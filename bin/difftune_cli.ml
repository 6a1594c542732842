(* difftune - command-line interface to the DiffTune reproduction.

   Subcommands:
     dataset    generate and summarize the synthetic BHive corpus
     predict    predict a block's timing with every predictor
     learn      run DiffTune on a simulator spec and report errors
     experiment run one of the paper's tables/figures (see bench/)
     serve      run the resilient prediction service (stdio or socket)
     route      consistent-hash router over running serve daemons
     fleet      launch + supervise a sharded fleet from a JSON spec

   Exit-code discipline: structured failures map to distinct nonzero
   codes with a one-line stderr message — no uncaught-exception
   backtraces.
     1  unexpected internal error
     3  parse error (assembly or CSV input)
     4  structured pipeline/serving fault (Dt_difftune.Fault)
     5  validation error (bad arguments or parameter tables)
   (cmdliner itself reserves 124/125 for CLI usage/internal errors.) *)

open Cmdliner

module Uarch = Dt_refcpu.Uarch
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine

let exit_internal = 1
let exit_parse = 3
let exit_fault = 4
let exit_validation = 5

(* Wraps every subcommand body: one line on stderr, deterministic exit
   code.  Binds (never wildcards) the final handler so injected faults
   and genuine crashes still surface with their constructor name. *)
let guarded f =
  try f () with
  | Dt_x86.Parser.Parse_error msg ->
      Dt_util.Log.error "parse error: %s" msg;
      exit exit_parse
  | Dt_difftune.Fault.Error fault ->
      Dt_util.Log.error "%s" (Dt_difftune.Fault.to_string fault);
      exit exit_fault
  | Invalid_argument msg | Failure msg ->
      Dt_util.Log.error "%s" msg;
      exit exit_validation
  | Sys_error msg ->
      Dt_util.Log.error "%s" msg;
      exit exit_internal
  | e ->
      Dt_util.Log.error "unexpected failure: %s" (Printexc.to_string e);
      exit exit_internal

let uarch_conv =
  let parse s =
    match Uarch.uarch_of_name s with
    | Some u -> Ok u
    | None ->
        Error (`Msg (Printf.sprintf "unknown microarchitecture %S (expected \
                                     ivybridge|haswell|skylake|zen2)" s))
  in
  let print fmt u = Format.pp_print_string fmt (Uarch.uarch_name u) in
  Arg.conv (parse, print)

let uarch_arg =
  Arg.(value & opt uarch_conv Uarch.Haswell
       & info [ "u"; "uarch" ] ~docv:"UARCH"
           ~doc:"Microarchitecture: ivybridge, haswell, skylake or zen2.")

let size_arg =
  Arg.(value & opt int 900
       & info [ "n"; "size" ] ~docv:"N" ~doc:"Corpus size (unique blocks).")

let seed_arg =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"Random seed.")

(* ---- dataset ---- *)

let dataset_cmd =
  let export_arg =
    Arg.(value & opt (some string) None
         & info [ "export" ] ~docv:"PATH"
             ~doc:"Also write the labeled dataset as BHive-style CSV.")
  in
  let run uarch size seed export = guarded @@ fun () ->
    let corpus = Dt_bhive.Dataset.corpus ~seed ~size in
    let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch ~noise:0.01 in
    let s = Dt_bhive.Dataset.summarize ds in
    Printf.printf "corpus: %d blocks for %s\n" size (Uarch.uarch_name uarch);
    Printf.printf "splits: train %d / valid %d / test %d\n" s.n_train s.n_valid
      s.n_test;
    Printf.printf "block length: min %d median %.0f mean %.2f max %d\n"
      s.min_len s.median_len s.mean_len s.max_len;
    Printf.printf "median timing (x100 iterations): %.0f cycles\n"
      s.median_timing;
    Printf.printf "unique opcodes: %d train / %d total\n" s.unique_opcodes_train
      s.unique_opcodes_total;
    match export with
    | None -> ()
    | Some path ->
        Dt_bhive.Export.save ds path;
        Printf.printf "dataset written to %s\n" path
  in
  Cmd.v (Cmd.info "dataset" ~doc:"Generate and summarize the synthetic corpus")
    Term.(const run $ uarch_arg $ size_arg $ seed_arg $ export_arg)

(* ---- predict ---- *)

let block_arg =
  Arg.(required & pos 0 (some string) None
       & info [] ~docv:"BLOCK"
           ~doc:"Basic block in AT&T syntax; instructions separated by ';'.")

(* Shared by predict/report: position-carrying parse failure, distinct
   exit code. *)
let parse_block_or_exit text =
  match Dt_x86.Parser.block_result text with
  | Ok [] ->
      Dt_util.Log.error "empty block";
      exit exit_parse
  | Ok instrs -> Dt_x86.Block.of_list instrs
  | Error e ->
      Dt_util.Log.error "parse error at %s" (Dt_x86.Parser.error_to_string e);
      exit exit_parse

let predict_cmd =
  let run uarch text = guarded @@ fun () ->
    match parse_block_or_exit text with
    | block ->
        let cfg = Uarch.config uarch in
        Printf.printf "block:\n%s\n\n" (Dt_x86.Block.to_string block);
        Printf.printf "reference CPU (ground truth): %.2f cycles/iteration\n"
          (Dt_refcpu.Machine.timing cfg block);
        let params = Dt_mca.Params.default uarch in
        Printf.printf "llvm-mca clone (default parameters): %.2f\n"
          (Dt_mca.Pipeline.timing params block);
        Printf.printf "llvm_sim clone (default parameters): %.2f\n"
          (Dt_usim.Usim.timing (Dt_usim.Usim.default uarch) block);
        (match Dt_iaca.Iaca.predict uarch block with
        | Some p -> Printf.printf "IACA-style analytical model: %.2f\n" p
        | None -> Printf.printf "IACA-style analytical model: N/A on AMD\n")
  in
  Cmd.v (Cmd.info "predict" ~doc:"Predict one block's timing with every model")
    Term.(const run $ uarch_arg $ block_arg)

(* ---- report ---- *)

let report_cmd =
  let run uarch text iterations = guarded @@ fun () ->
    let block = parse_block_or_exit text in
    let params = Dt_mca.Params.default uarch in
    print_string (Dt_mca.Report.full params ~iterations block)
  in
  let iterations_arg =
    Arg.(value & opt int 100
         & info [ "iterations" ] ~docv:"N"
             ~doc:"Iterations for the summary (timeline always shows 3).")
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:"llvm-mca-style report: summary, instruction info, timeline")
    Term.(const run $ uarch_arg $ block_arg $ iterations_arg)

(* ---- measure ---- *)

let measure_cmd =
  let opcode_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"OPCODE" ~doc:"LLVM-style opcode name, e.g. ADD64rr.")
  in
  let run uarch name = guarded @@ fun () ->
    match Dt_x86.Opcode.by_name name with
    | None ->
        Dt_util.Log.error "unknown opcode %S" name;
        exit exit_validation
    | Some op ->
        let cfg = Uarch.config uarch in
        let observations = Dt_measure.Measure.latency_observations cfg op in
        if observations = [] then
          Printf.printf
            "%s: no latency kernel can be built (flags-only or no \
             chainable result)\n"
            name
        else
          List.iter
            (fun (o : Dt_measure.Measure.observation) ->
              Printf.printf "%-22s latency %5.2f   kernel: %s\n" o.pattern
                o.latency
                (String.concat "; "
                   (String.split_on_char '\n'
                      (Dt_x86.Block.to_string o.block))))
            observations;
        (match Dt_measure.Measure.throughput cfg op with
        | Some t -> Printf.printf "%-22s %5.2f cycles/instr\n" "rthroughput" t
        | None -> ());
        Printf.printf "documented latency: %d\n"
          (Dt_refcpu.Uarch.documented_latency cfg op)
  in
  Cmd.v
    (Cmd.info "measure"
       ~doc:"Measure one opcode's latency/throughput on the reference CPU \
             with uops.info-style kernels")
    Term.(const run $ uarch_arg $ opcode_arg)

(* ---- learn ---- *)

let spec_conv =
  let parse = function
    | "mca" -> Ok `Mca
    | "mca-wl" -> Ok `Wl
    | "usim" -> Ok `Usim
    | s -> Error (`Msg (Printf.sprintf "unknown spec %S (mca|mca-wl|usim)" s))
  in
  let print fmt s =
    Format.pp_print_string fmt
      (match s with `Mca -> "mca" | `Wl -> "mca-wl" | `Usim -> "usim")
  in
  Arg.conv (parse, print)

let learn_cmd =
  let save_arg =
    Arg.(value & opt (some string) None
         & info [ "save" ] ~docv:"PATH"
             ~doc:"Write the learned parameter table to $(docv).")
  in
  let spec_arg =
    Arg.(value & opt spec_conv `Mca
         & info [ "spec" ] ~docv:"SPEC"
             ~doc:"Parameter spec: mca (full Table II), mca-wl (WriteLatency \
                   only, Section VI-B), or usim (Table VII).")
  in
  let full_arg =
    Arg.(value & flag
         & info [ "full" ] ~doc:"Use the full (slow) training scale.")
  in
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Periodically checkpoint training state under $(docv); \
                   re-running the same command resumes an interrupted run \
                   from the last checkpoint with identical results.")
  in
  let sampling_conv =
    let parse = function
      | "uniform" -> Ok Engine.Uniform
      | "guided" -> Ok (Engine.Guided Dt_difftune.Strata.default)
      | s -> Error (`Msg (Printf.sprintf "unknown sampling %S (uniform|guided)" s))
    in
    let print fmt s =
      Format.pp_print_string fmt
        (match s with Engine.Uniform -> "uniform" | Engine.Guided _ -> "guided")
    in
    Arg.conv (parse, print)
  in
  let sampling_arg =
    Arg.(value & opt sampling_conv Engine.Uniform
         & info [ "sampling" ] ~docv:"STRATEGY"
             ~doc:"Data-collection strategy: uniform (the paper's i.i.d. \
                   draw) or guided (Turaco-style complexity-guided \
                   stratified collection — equal fidelity on fewer \
                   samples).")
  in
  let run uarch size seed spec_kind full save checkpoint_dir sampling =
    guarded @@ fun () ->
    let scale = if full then Dt_exp.Scale.full else Dt_exp.Scale.quick in
    let scale = { scale with corpus_size = size } in
    let corpus = Dt_bhive.Dataset.corpus ~seed ~size in
    let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch ~noise:scale.noise in
    let train =
      Array.map
        (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
        ds.train
    in
    let spec =
      match spec_kind with
      | `Mca -> Spec.mca_full uarch
      | `Wl -> Spec.mca_write_latency uarch
      | `Usim -> Spec.usim_spec uarch
    in
    Printf.printf "learning %s on %s (%d training blocks)...\n%!" spec.name
      (Uarch.uarch_name uarch) (Array.length train);
    let cfg =
      { scale.engine with
        sampling;
        log = (fun m -> Printf.printf "  %s\n%!" m) }
    in
    let valid =
      Array.map
        (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
        ds.valid
    in
    let result = Engine.learn ~valid ?checkpoint_dir cfg spec ~train in
    Printf.printf "run health: %s\n"
      (Dt_difftune.Fault.health_summary result.health);
    let eval name f =
      let p =
        Array.map (fun (l : Dt_bhive.Dataset.labeled) -> f l.entry.block) ds.test
      in
      let a =
        Array.map (fun (l : Dt_bhive.Dataset.labeled) -> l.timing) ds.test
      in
      Printf.printf "%-22s error %5.1f%%  tau %.3f\n" name
        (100.0 *. Dt_eval.Metrics.mape ~predicted:p ~actual:a)
        (Dt_eval.Metrics.kendall_tau p a)
    in
    (match spec_kind with
    | `Mca | `Wl ->
        let dflt = Dt_mca.Params.default uarch in
        eval "default parameters" (fun b -> Dt_mca.Pipeline.timing dflt b)
    | `Usim ->
        let dflt = Dt_usim.Usim.default uarch in
        eval "default parameters" (fun b -> Dt_usim.Usim.timing dflt b));
    eval "DiffTune parameters" (fun b -> spec.timing result.table b);
    match save with
    | None -> ()
    | Some path ->
        Dt_difftune.Table_io.save spec result.table path;
        Printf.printf "learned table written to %s\n" path
  in
  Cmd.v
    (Cmd.info "learn" ~doc:"Run DiffTune end to end and report test error")
    Term.(const run $ uarch_arg $ size_arg $ seed_arg $ spec_arg $ full_arg
          $ save_arg $ ckpt_arg $ sampling_arg)

(* ---- experiment ---- *)

let experiment_cmd =
  let name_arg =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"NAME"
             ~doc:"Experiment id: table3, table4, table5, table6, fig2, fig4, \
                   fig5, ablation_wl, cases, table8, random_tables, \
                   measured_latency, extension_idioms, ablation_surrogate.")
  in
  let ckpt_arg =
    Arg.(value & opt (some string) None
         & info [ "checkpoint-dir" ] ~docv:"DIR"
             ~doc:"Checkpoint every DiffTune run under $(docv) so an \
                   interrupted experiment resumes instead of restarting.")
  in
  let run name checkpoint_dir = guarded @@ fun () ->
    match List.assoc_opt name Dt_exp.Experiments.all with
    | None ->
        Dt_util.Log.error "unknown experiment %S" name;
        exit exit_validation
    | Some f ->
        let runner =
          Dt_exp.Runner.create ?checkpoint_dir (Dt_exp.Scale.from_env ())
        in
        f runner
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Reproduce one of the paper's tables or figures")
    Term.(const run $ name_arg $ ckpt_arg)

(* ---- serve ---- *)

let serve_cmd =
  let socket_arg =
    Arg.(value & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Serve on a Unix-domain socket at $(docv) instead of \
                   stdin/stdout.")
  in
  let queue_arg =
    Arg.(value & opt int Dt_serve.Runtime.default_config.queue_capacity
         & info [ "queue" ] ~docv:"N"
             ~doc:"Admission-queue capacity; requests beyond it are shed \
                   with an overloaded response.")
  in
  let batch_arg =
    Arg.(value & opt int Dt_serve.Runtime.default_config.batch
         & info [ "batch" ] ~docv:"N"
             ~doc:"Requests evaluated per drain across the domain pool.")
  in
  let budget_arg =
    Arg.(value & opt int Dt_serve.Runtime.default_config.cycle_budget
         & info [ "cycle-budget" ] ~docv:"CYCLES"
             ~doc:"Per-request simulated-cycle deadline for the mca backend.")
  in
  let retries_arg =
    Arg.(value & opt int Dt_serve.Runtime.default_config.max_retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retries (with exponential backoff + jitter) after a \
                   transient worker fault.")
  in
  let threshold_arg =
    Arg.(value & opt int Dt_serve.Runtime.default_config.breaker_threshold
         & info [ "breaker-threshold" ] ~docv:"N"
             ~doc:"Consecutive failures that open a backend's circuit \
                   breaker.")
  in
  let cooldown_arg =
    Arg.(value & opt float Dt_serve.Runtime.default_config.breaker_cooldown
         & info [ "breaker-cooldown" ] ~docv:"SECONDS"
             ~doc:"Open-breaker cooldown before a half-open probe.")
  in
  let domains_arg =
    Arg.(value & opt (some int) None
         & info [ "domains" ] ~docv:"N"
             ~doc:"Worker-domain count (default: DIFFTUNE_DOMAINS or the \
                   recommended count).")
  in
  let surrogate_arg =
    Arg.(value & flag
         & info [ "train-surrogate" ]
             ~doc:"Train a quick Ithemal-style surrogate at startup and \
                   serve the full surrogate -> mca -> bound degradation \
                   chain under lifecycle management: shadow scoring, \
                   drift detection, background retraining and hot-swap \
                   (default chain: mca -> bound, no lifecycle).")
  in
  let corpus_arg =
    Arg.(value & opt int 120
         & info [ "corpus" ] ~docv:"N"
             ~doc:"Synthetic corpus size for the startup surrogate \
                   training (with $(b,--train-surrogate)).")
  in
  let ldefault = Dt_serve.Lifecycle.default_config in
  let shadow_arg =
    Arg.(value & opt int ldefault.shadow_every
         & info [ "shadow-every" ] ~docv:"K"
             ~doc:"Shadow-score every $(docv)-th surrogate-served \
                   request against the mca reference.")
  in
  let window_arg =
    Arg.(value & opt int ldefault.window
         & info [ "drift-window-size" ] ~docv:"N"
             ~doc:"Shadow scores per drift-detection window.")
  in
  let band_arg =
    Arg.(value & opt float ldefault.drift_band
         & info [ "drift-band" ] ~docv:"FRACTION"
             ~doc:"Window MAPE above $(docv) (relative error) is out of \
                   band.")
  in
  let quantile_band_arg =
    Arg.(value & opt float ldefault.quantile_band
         & info [ "quantile-band" ] ~docv:"FRACTION"
             ~doc:"Window error-quantile (p95) above $(docv) is out of \
                   band.")
  in
  let windows_arg =
    Arg.(value & opt int ldefault.drift_windows
         & info [ "drift-windows" ] ~docv:"K"
             ~doc:"Consecutive out-of-band windows before drift is \
                   declared and retraining starts.")
  in
  let canary_arg =
    Arg.(value & opt int ldefault.canary_windows
         & info [ "canary" ] ~docv:"K"
             ~doc:"In-band windows a freshly swapped model must survive \
                   before its predecessor is released; an out-of-band \
                   canary window rolls back.")
  in
  let model_dir_arg =
    Arg.(value & opt (some string) None
         & info [ "model-dir" ] ~docv:"DIR"
             ~doc:"Versioned model registry directory: every installed \
                   surrogate version is persisted (CRC-checked \
                   container) and candidates are validated by reloading \
                   from disk before the swap.")
  in
  let min_retrain_arg =
    Arg.(value & opt int ldefault.min_retrain
         & info [ "min-retrain" ] ~docv:"N"
             ~doc:"Minimum reservoir samples before retraining starts.")
  in
  let sync_retrain_arg =
    Arg.(value & flag
         & info [ "sync-retrain" ]
             ~doc:"Retrain inline at the batch boundary instead of on a \
                   background domain (deterministic timing, for tests).")
  in
  let run uarch seed socket queue batch cycle_budget max_retries
      breaker_threshold breaker_cooldown domains train_surrogate corpus
      shadow_every window drift_band quantile_band drift_windows canary
      model_dir min_retrain sync_retrain =
    guarded @@ fun () ->
    let mca = Dt_serve.Backend.mca uarch in
    let bound = Dt_serve.Backend.bound uarch in
    let backends, lifecycle =
      if not train_surrogate then ([ mca; bound ], None)
      else begin
        Dt_util.Log.status "serve: training quick surrogate...";
        let scale = Dt_exp.Scale.quick in
        let corpus = Dt_bhive.Dataset.corpus ~seed ~size:corpus in
        let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch ~noise:0.0 in
        let train =
          Array.to_list
            (Array.map
               (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
               ds.train)
        in
        let cfg = { scale.engine with log = (fun _ -> ()) } in
        let model = Engine.train_ithemal cfg ~features:None ~train in
        Dt_util.Log.status "serve: surrogate ready";
        let lcfg =
          {
            Dt_serve.Lifecycle.default_config with
            shadow_every;
            window;
            drift_band;
            quantile_band;
            drift_windows;
            canary_windows = canary;
            min_retrain;
            sync_retrain;
            seed;
          }
        in
        (* Retrains are cheap incremental refreshes of the serving
           weights on harvested traffic, not from-scratch runs. *)
        let retrain_cfg =
          { cfg with surrogate_passes = Float.max 0.5 (cfg.surrogate_passes *. 0.5) }
        in
        let retrain ~init data =
          Engine.retrain_ithemal retrain_cfg ~features:None ~init
            ~train:(Array.to_list data)
        in
        let reference block =
          mca.Dt_serve.Backend.predict ~cycle_budget block
        in
        let lc =
          Dt_serve.Lifecycle.create ?model_dir lcfg ~reference ~retrain
            ~features:None model
        in
        ([ Dt_serve.Lifecycle.backend lc; mca; bound ], Some lc)
      end
    in
    let cfg =
      {
        Dt_serve.Runtime.default_config with
        queue_capacity = queue;
        batch;
        cycle_budget;
        max_retries;
        breaker_threshold;
        breaker_cooldown;
        seed;
      }
    in
    let pool = Dt_util.Pool.create ?domains () in
    let rt = Dt_serve.Runtime.create ~pool ?lifecycle cfg backends in
    Fun.protect
      ~finally:(fun () ->
        Dt_serve.Runtime.shutdown rt;
        Dt_util.Pool.shutdown pool)
      (fun () ->
        match socket with
        | Some path ->
            Dt_util.Log.status "serve: listening on %s (%s)" path
              (Uarch.uarch_name uarch);
            Dt_serve.Server.serve_socket rt ~path
        | None -> Dt_serve.Server.serve_channels rt stdin stdout)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resilient prediction service (newline-delimited \
             protocol on stdio or a Unix socket): bounded admission \
             queue, per-request deadlines, retries, circuit breakers, a \
             labeled degradation chain, and a managed surrogate \
             lifecycle (drift detection, background retraining, \
             zero-downtime hot-swap)")
    Term.(const run $ uarch_arg $ seed_arg $ socket_arg $ queue_arg
          $ batch_arg $ budget_arg $ retries_arg $ threshold_arg
          $ cooldown_arg $ domains_arg $ surrogate_arg $ corpus_arg
          $ shadow_arg $ window_arg $ band_arg $ quantile_band_arg
          $ windows_arg $ canary_arg $ model_dir_arg $ min_retrain_arg
          $ sync_retrain_arg)

(* ---- route (sharded-serving router over existing daemons) ---- *)

let route_cmd =
  let dflt = Dt_cluster.Router.default_config in
  let socket_arg =
    Arg.(required & opt (some string) None
         & info [ "socket" ] ~docv:"PATH"
             ~doc:"Unix-domain socket the router listens on.")
  in
  let shard_arg =
    Arg.(non_empty & opt_all (pair ~sep:'=' string string) []
         & info [ "shard" ] ~docv:"NAME=PATH"
             ~doc:"A serve daemon's name and socket path (repeatable).")
  in
  let replicas_arg =
    Arg.(value & opt int dflt.replicas
         & info [ "replicas" ] ~docv:"N"
             ~doc:"Ring owners tried per key (primary + failovers).")
  in
  let vnodes_arg =
    Arg.(value & opt int dflt.vnodes
         & info [ "vnodes" ] ~docv:"N" ~doc:"Ring points per shard.")
  in
  let budget_arg =
    Arg.(value & opt float dflt.reply_budget
         & info [ "reply-budget" ] ~docv:"SECONDS"
             ~doc:"Time an unanswered forward gets before failing over.")
  in
  let probe_arg =
    Arg.(value & opt float dflt.probe_interval
         & info [ "probe-interval" ] ~docv:"SECONDS"
             ~doc:"Health-probe (ping) cadence per shard.")
  in
  let inflight_arg =
    Arg.(value & opt int dflt.max_inflight
         & info [ "max-inflight" ] ~docv:"N"
             ~doc:"Per-shard in-flight window.")
  in
  let pending_arg =
    Arg.(value & opt int dflt.max_pending
         & info [ "max-pending" ] ~docv:"N"
             ~doc:"Global in-flight bound; beyond it requests are shed.")
  in
  let run uarch socket shards replicas vnodes reply_budget probe_interval
      max_inflight max_pending =
    guarded @@ fun () ->
    let cfg =
      {
        dflt with
        Dt_cluster.Router.replicas;
        vnodes;
        reply_budget;
        probe_interval;
        probe_budget = reply_budget;
        max_inflight;
        max_pending;
      }
    in
    let router =
      Dt_cluster.Router.create cfg ~uarch ~shards:(List.map fst shards)
    in
    Dt_util.Log.status "route: %d shards, listening on %s"
      (List.length shards) socket;
    Dt_cluster.Loop.run router ~listen:socket ~shards ()
  in
  Cmd.v
    (Cmd.info "route"
       ~doc:"Run the consistent-hash router over running serve daemons: \
             replica failover, per-shard circuit breakers and health \
             probation, analytic-bound degradation when every owner is \
             down")
    Term.(const run $ uarch_arg $ socket_arg $ shard_arg $ replicas_arg
          $ vnodes_arg $ budget_arg $ probe_arg $ inflight_arg
          $ pending_arg)

(* ---- fleet (spec-driven launch + supervision) ---- *)

let fleet_cmd =
  let spec_arg =
    Arg.(value & pos 0 (some string) None
         & info [] ~docv:"SPEC"
             ~doc:"JSON fleet spec (see $(b,--example)).")
  in
  let example_arg =
    Arg.(value & flag
         & info [ "example" ] ~doc:"Print an example spec and exit.")
  in
  let run example spec_path =
    guarded @@ fun () ->
    if example then print_string Dt_cluster.Fleet.Spec.example
    else
      match spec_path with
      | None -> failwith "fleet: a SPEC file is required (try --example)"
      | Some path ->
          let spec = Dt_cluster.Fleet.Spec.load path in
          Dt_cluster.Fleet.launch spec ~cli:Sys.executable_name
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Launch and supervise a sharded serving fleet from a JSON \
             spec: N serve daemons plus the router in one process tree, \
             crashed shards restarted with capped backoff, one \
             aggregated cluster report on exit")
    Term.(const run $ example_arg $ spec_arg)

let () =
  let doc = "DiffTune: learning CPU-simulator parameters (MICRO 2020) in OCaml" in
  let info = Cmd.info "difftune" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ dataset_cmd; predict_cmd; report_cmd; measure_cmd; learn_cmd;
            experiment_cmd; serve_cmd; route_cmd; fleet_cmd ]))
