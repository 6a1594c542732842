module Uarch = Dt_refcpu.Uarch
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Fault = Dt_difftune.Fault
module Rng = Dt_util.Rng

type t = {
  scale : Scale.t;
  checkpoint_dir : string option;
  mutable corpus : Dt_bhive.Dataset.corpus option;
  datasets : (Uarch.uarch, Dt_bhive.Dataset.t) Hashtbl.t;
  difftune_runs : (Uarch.uarch, Engine.result list) Hashtbl.t;
  wl_runs : (Uarch.uarch, Engine.result) Hashtbl.t;
  usim_runs : (Uarch.uarch, Engine.result) Hashtbl.t;
  ithemal_models : (Uarch.uarch, Dt_x86.Block.t -> float) Hashtbl.t;
  opentuner_tables : (Uarch.uarch, Spec.table) Hashtbl.t;
}

let create ?checkpoint_dir scale =
  {
    scale;
    checkpoint_dir;
    corpus = None;
    datasets = Hashtbl.create 4;
    difftune_runs = Hashtbl.create 4;
    wl_runs = Hashtbl.create 4;
    usim_runs = Hashtbl.create 4;
    ithemal_models = Hashtbl.create 4;
    opentuner_tables = Hashtbl.create 4;
  }

let scale t = t.scale

(* Progress goes through the engine's log hook, not straight to stderr,
   so embedders (and tests) control where it lands — and so messages
   about skipped/resumed phases on a checkpointed re-run are visible
   wherever the engine's own messages go. *)
let log t msg = t.scale.engine.log msg

(* Per-run checkpoint directory: [<dir>/<experiment>/<uarch>[/seed<k>]],
   one leaf per learned artifact so independent runs never share files. *)
let run_dir t parts =
  Option.map (fun d -> List.fold_left Filename.concat d parts) t.checkpoint_dir

let memo tbl key build =
  match Hashtbl.find_opt tbl key with
  | Some v -> v
  | None ->
      let v = build () in
      Hashtbl.replace tbl key v;
      v

let corpus t =
  match t.corpus with
  | Some c -> c
  | None ->
      log t (Printf.sprintf "[corpus: %d blocks]" t.scale.corpus_size);
      let c = Dt_bhive.Dataset.corpus ~seed:42 ~size:t.scale.corpus_size in
      t.corpus <- Some c;
      c

let dataset t uarch =
  memo t.datasets uarch (fun () ->
      log t (Printf.sprintf "[labeling %s]" (Uarch.uarch_name uarch));
      Dt_bhive.Dataset.label (corpus t) ~seed:1 ~uarch ~noise:t.scale.noise)

let default_params = Dt_mca.Params.default

let train_pairs t uarch =
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (dataset t uarch).train

let valid_pairs t uarch =
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (dataset t uarch).valid

let report_health t label (r : Engine.result) =
  let summary = Fault.health_summary r.health in
  if summary <> "clean" then
    log t (Printf.sprintf "[%s: health %s]" label summary);
  r

let difftune t uarch =
  memo t.difftune_runs uarch (fun () ->
      let train = train_pairs t uarch in
      let valid = valid_pairs t uarch in
      let spec = Spec.mca_full uarch in
      let uname = Uarch.uarch_name uarch in
      List.map
        (fun seed ->
          log t (Printf.sprintf "[difftune %s seed %d]" uname seed);
          let dir =
            run_dir t [ "difftune"; uname; Printf.sprintf "seed%d" seed ]
          in
          Engine.learn ~valid ?checkpoint_dir:dir { t.scale.engine with seed }
            spec ~train
          |> report_health t (Printf.sprintf "difftune %s seed %d" uname seed))
        t.scale.seeds)

let difftune_wl t uarch =
  memo t.wl_runs uarch (fun () ->
      let uname = Uarch.uarch_name uarch in
      log t (Printf.sprintf "[difftune-wl %s]" uname);
      let train = train_pairs t uarch in
      let valid = valid_pairs t uarch in
      Engine.learn ~valid
        ?checkpoint_dir:(run_dir t [ "difftune-wl"; uname ])
        t.scale.engine
        (Spec.mca_write_latency uarch)
        ~train
      |> report_health t (Printf.sprintf "difftune-wl %s" uname))

let difftune_usim t uarch =
  memo t.usim_runs uarch (fun () ->
      let uname = Uarch.uarch_name uarch in
      log t (Printf.sprintf "[difftune-usim %s]" uname);
      let train = train_pairs t uarch in
      let valid = valid_pairs t uarch in
      Engine.learn ~valid
        ?checkpoint_dir:(run_dir t [ "difftune-usim"; uname ])
        t.scale.engine (Spec.usim_spec uarch) ~train
      |> report_health t (Printf.sprintf "difftune-usim %s" uname))

(* The Ithemal baseline: the same network family trained directly on
   measurements, given the IACA bound decomposition as static analytic
   features (see DESIGN.md: learned-baseline parity at CPU scale). *)
let iaca_features uarch block =
  let b = Dt_iaca.Iaca.bounds uarch block in
  [| b.frontend; b.backend; b.latency |]

let ithemal t uarch =
  memo t.ithemal_models uarch (fun () ->
      log t (Printf.sprintf "[ithemal %s]" (Uarch.uarch_name uarch));
      let train = Array.to_list (train_pairs t uarch) in
      let features = Some (iaca_features uarch) in
      let model = Engine.train_ithemal t.scale.engine ~features ~train in
      Engine.ithemal_predict ~features model)

let opentuner t uarch =
  memo t.opentuner_tables uarch (fun () ->
      log t (Printf.sprintf "[opentuner %s]" (Uarch.uarch_name uarch));
      let train = train_pairs t uarch in
      let spec = Spec.mca_full uarch in
      (* Budget parity (Section V-C): the same number of block evaluations
         as DiffTune's end-to-end pipeline consumed. *)
      let budget =
        t.scale.opentuner_parity * t.scale.engine.sim_multiplier
        * Array.length train
      in
      let cfg =
        {
          Dt_opentuner.Opentuner.default_config with
          seed = 9;
          budget_evaluations = budget;
          eval_blocks = 128;
        }
      in
      let lower, upper = Spec.search_bounds spec in
      (* Fixed evaluation subset: a deterministic objective, as OpenTuner
         evaluates each configuration on the same benchmark set. *)
      let fixed = Array.sub train 0 (min 128 (Array.length train)) in
      let evaluate vec ~n =
        let timing = spec.timing (Spec.unflatten spec vec) in
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          let b, y = fixed.(i mod Array.length fixed) in
          acc := !acc +. (Float.abs (timing b -. y) /. y)
        done;
        !acc /. float_of_int n
      in
      let result = Dt_opentuner.Opentuner.optimize cfg ~lower ~upper ~evaluate in
      Spec.unflatten spec result.best)

let evaluate (ds : Dt_bhive.Dataset.t) f =
  let predicted =
    Array.map (fun (l : Dt_bhive.Dataset.labeled) -> f l.entry.block) ds.test
  in
  let actual = Array.map (fun (l : Dt_bhive.Dataset.labeled) -> l.timing) ds.test in
  ( Dt_eval.Metrics.mape ~predicted ~actual,
    Dt_eval.Metrics.kendall_tau predicted actual )

let test_errors (ds : Dt_bhive.Dataset.t) f =
  let predicted =
    Array.map (fun (l : Dt_bhive.Dataset.labeled) -> f l.entry.block) ds.test
  in
  let actual = Array.map (fun (l : Dt_bhive.Dataset.labeled) -> l.timing) ds.test in
  Dt_eval.Metrics.ape ~predicted ~actual
