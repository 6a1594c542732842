module Fault = Dt_difftune.Fault
module Checkpoint = Dt_difftune.Checkpoint
module Simcache = Dt_difftune.Simcache
module Engine = Dt_difftune.Engine
module Model = Dt_surrogate.Model
module Rng = Dt_util.Rng
module Stats = Dt_util.Stats
module Faultsim = Dt_util.Faultsim
module Log = Dt_util.Log
module Sync = Dt_util.Sync

type config = {
  shadow_every : int;
  window : int;
  drift_band : float;
  quantile : float;
  quantile_band : float;
  drift_windows : int;
  canary_windows : int;
  reservoir_capacity : int;
  min_retrain : int;
  sync_retrain : bool;
  seed : int;
}

let default_config =
  {
    shadow_every = 8;
    window = 64;
    drift_band = 0.25;
    quantile = 95.0;
    quantile_band = 0.75;
    drift_windows = 3;
    canary_windows = 3;
    reservoir_capacity = 512;
    min_retrain = 32;
    sync_retrain = false;
    seed = 0;
  }

type state = Stable | Drifting | Retraining | Canary

let state_name = function
  | Stable -> "stable"
  | Drifting -> "drifting"
  | Retraining -> "retraining"
  | Canary -> "canary"

let backend_name = "surrogate"

(* ---- versioned on-disk registry ---- *)

module Registry = struct
  let magic = "dt-surrogate-model-v1"
  let name version = Printf.sprintf "model_v%d" version
  let path ~dir ~version = Checkpoint.path ~dir ~name:(name version)

  let enc_config b (c : Model.config) =
    let module E = Checkpoint.Enc in
    E.int b c.embed_dim;
    E.int b c.token_hidden;
    E.int b c.instr_hidden;
    E.int b c.token_layers;
    E.int b c.instr_layers;
    E.bool b c.with_params;
    E.int b c.per_instr_params;
    E.int b c.global_params;
    E.int b c.feature_width;
    E.int b c.head_hidden

  let dec_config d : Model.config =
    let module D = Checkpoint.Dec in
    let embed_dim = D.int d in
    let token_hidden = D.int d in
    let instr_hidden = D.int d in
    let token_layers = D.int d in
    let instr_layers = D.int d in
    let with_params = D.bool d in
    let per_instr_params = D.int d in
    let global_params = D.int d in
    let feature_width = D.int d in
    let head_hidden = D.int d in
    {
      embed_dim;
      token_hidden;
      instr_hidden;
      token_layers;
      instr_layers;
      with_params;
      per_instr_params;
      global_params;
      feature_width;
      head_hidden;
    }

  let save ~dir ~version model =
    Checkpoint.save ~dir ~name:(name version) (fun b ->
        let module E = Checkpoint.Enc in
        E.string b magic;
        E.int b version;
        enc_config b (Model.config model);
        E.list b
          (fun b (wname, rows, cols, data) ->
            E.string b wname;
            E.int b rows;
            E.int b cols;
            E.float_array b data)
          (Dt_nn.Nn.Store.export_values (Model.store model)));
    (* Mirror of [ckpt.truncate], scoped to the model registry: tear the
       file that was just atomically installed, so the validating reload
       must catch it. *)
    if Faultsim.fire "lifecycle.corrupt_model" then begin
      let p = path ~dir ~version in
      let full = In_channel.with_open_bin p In_channel.input_all in
      Out_channel.with_open_bin p (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)))
    end

  let load ~dir ~version =
    let payload =
      Checkpoint.load ~dir ~name:(name version) (fun d ->
          let module D = Checkpoint.Dec in
          let m = D.string d in
          if not (String.equal m magic) then
            raise (D.Corrupt (Printf.sprintf "bad model magic %S" m));
          let v = D.int d in
          if v <> version then
            raise
              (D.Corrupt
                 (Printf.sprintf "model version %d where %d was expected" v
                    version));
          let cfg = dec_config d in
          let weights =
            D.list d (fun d ->
                let wname = D.string d in
                let rows = D.int d in
                let cols = D.int d in
                let data = D.float_array d in
                (wname, rows, cols, data))
          in
          (cfg, weights))
    in
    match payload with
    | Error f -> Error f
    | Ok (cfg, weights) -> (
        let model = Model.create ~config:cfg (Rng.create 0) in
        match Dt_nn.Nn.Store.import_values (Model.store model) weights with
        | () -> Ok model
        | exception Invalid_argument reason ->
            Error (Fault.Model_rejected { version; reason }))
end

(* ---- per-version serving epoch ---- *)

(* Cached surrogate timings are a function of the weights, so each model
   version owns a fresh cache; the table half of the cache key is the
   version label, which also keeps the hit/miss counters per version. *)
type epoch = { eversion : int; emodel : Model.t; ecache : Simcache.t }

let make_epoch version model =
  { eversion = version; emodel = model; ecache = Simcache.create ~capacity:1024 }

type job = {
  jversion : int;
  jdomain : unit Domain.t option;
  jresult : (Model.t, string) result option ref;
  jmutex : Sync.mutex;
}

type t = {
  cfg : config;
  clock : Clock.t;
  model_dir : string option;
  reference : Dt_x86.Block.t -> float;
  retrain : init:Model.t -> (Dt_x86.Block.t * float) array -> Model.t;
  features : (Dt_x86.Block.t -> float array) option;
  pm : Sync.mutex;  (** serializes scalar predictions on the scratch ctx *)
  downer : Sync.owner;
      (** drain-thread confinement stamp for the window/reservoir state *)
  current : epoch Atomic.t;
  mutable previous : epoch option;  (** canary fallback *)
  mutable retired : (int * Simcache.t) list;  (** stats of old versions *)
  mutable next_version : int;
  mutable st : state;
  (* drift-window accumulation (drain thread only) *)
  rels : float array;
  mutable wfill : int;
  mutable consecutive : int;
  mutable canary_left : int;
  mutable want_retrain : bool;
  mutable windows : int;
  mutable windows_out : int;
  mutable last_mape : float;
  mutable last_q : float;
  (* reservoir (Algorithm R; drain thread only) *)
  res : (Dt_x86.Block.t * float) option array;
  mutable res_size : int;
  mutable res_seen : int;
  rrng : Rng.t;
  (* counters *)
  mutable observed : int;
  mutable shadow_scored : int;
  mutable shadow_errors : int;
  mutable retrains_started : int;
  mutable retrains_failed : int;
  mutable models_rejected : int;
  mutable swaps : int;
  mutable rollbacks : int;
  mutable last_swap_pause : float;
  mutable job : job option;
  mutable stopped : bool;
}

let validate cfg =
  let bad fmt = Printf.ksprintf invalid_arg ("Lifecycle.create: " ^^ fmt) in
  if cfg.shadow_every < 1 then bad "shadow_every %d < 1" cfg.shadow_every;
  if cfg.window < 1 then bad "window %d < 1" cfg.window;
  if cfg.drift_band <= 0.0 then bad "drift_band %g <= 0" cfg.drift_band;
  if cfg.quantile < 0.0 || cfg.quantile > 100.0 then
    bad "quantile %g outside [0,100]" cfg.quantile;
  if cfg.quantile_band <= 0.0 then bad "quantile_band %g <= 0" cfg.quantile_band;
  if cfg.drift_windows < 1 then bad "drift_windows %d < 1" cfg.drift_windows;
  if cfg.canary_windows < 0 then bad "canary_windows %d < 0" cfg.canary_windows;
  if cfg.reservoir_capacity < 1 then
    bad "reservoir_capacity %d < 1" cfg.reservoir_capacity;
  if cfg.min_retrain < 1 then bad "min_retrain %d < 1" cfg.min_retrain

let create ?clock ?model_dir cfg ~reference ~retrain ~features model =
  validate cfg;
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  let t =
    {
      cfg;
      clock;
      model_dir;
      reference;
      retrain;
      features;
      pm = Sync.mutex "lifecycle.pm";
      downer = Sync.owner "lifecycle.drain";
      current = Atomic.make (make_epoch 1 model);
      previous = None;
      retired = [];
      next_version = 2;
      st = Stable;
      rels = Array.make cfg.window 0.0;
      wfill = 0;
      consecutive = 0;
      canary_left = 0;
      want_retrain = false;
      windows = 0;
      windows_out = 0;
      last_mape = 0.0;
      last_q = 0.0;
      res = Array.make cfg.reservoir_capacity None;
      res_size = 0;
      res_seen = 0;
      rrng = Rng.create (cfg.seed lxor 0x2f61d9);
      observed = 0;
      shadow_scored = 0;
      shadow_errors = 0;
      retrains_started = 0;
      retrains_failed = 0;
      models_rejected = 0;
      swaps = 0;
      rollbacks = 0;
      last_swap_pause = 0.0;
      job = None;
      stopped = false;
    }
  in
  (* Best effort: the registry should hold every version that ever
     served, including the initial one.  Serving does not depend on this
     write succeeding. *)
  (match model_dir with
  | None -> ()
  | Some dir -> (
      match Registry.save ~dir ~version:1 model with
      | () -> ()
      | exception e ->
          Log.warn "lifecycle: could not persist initial model v1: %s"
            (Printexc.to_string e)));
  t

let version t = (Atomic.get t.current).eversion
let state t = t.st

let locked m f = Sync.with_lock m f

(* ---- serving backend ---- *)

let cache_key epoch block =
  Simcache.key
    ~table:(Printf.sprintf "model:v%d" epoch.eversion)
    ~block:(Simcache.block_key block)

let predict t ~cycle_budget:_ block =
  let e = Atomic.get t.current in
  Simcache.find_or_add e.ecache (cache_key e block) (fun () ->
      locked t.pm (fun () ->
          Engine.ithemal_predict ~features:t.features e.emodel block))

let predict_batch t ~cycle_budget:_ blocks =
  let e = Atomic.get t.current in
  let n = Array.length blocks in
  let out = Array.make n Float.nan in
  let miss = ref [] in
  for i = n - 1 downto 0 do
    match Simcache.find e.ecache (cache_key e blocks.(i)) with
    | Some v -> out.(i) <- v
    | None -> miss := i :: !miss
  done;
  let miss = Array.of_list !miss in
  if Array.length miss > 0 then begin
    let vals =
      locked t.pm (fun () ->
          Engine.ithemal_predict_batch ~features:t.features e.emodel
            (Array.map (fun i -> blocks.(i)) miss))
    in
    Array.iteri
      (fun j i ->
        out.(i) <- vals.(j);
        if Float.is_finite vals.(j) then
          Simcache.add e.ecache (cache_key e blocks.(i)) vals.(j))
      miss
  end;
  out

let cache_pairs t =
  let one (v, cache) =
    [
      (Printf.sprintf "cache_hits.v%d" v, string_of_int (Simcache.hits cache));
      ( Printf.sprintf "cache_misses.v%d" v,
        string_of_int (Simcache.misses cache) );
    ]
  in
  let epochs =
    let cur = Atomic.get t.current in
    ((cur.eversion, cur.ecache)
     :: (match t.previous with
        | Some p -> [ (p.eversion, p.ecache) ]
        | None -> []))
    @ t.retired
  in
  List.concat_map one (List.sort (fun (a, _) (b, _) -> compare a b) epochs)

let backend t =
  Backend.custom
    ~batch:(predict_batch t)
    ~xstats:(fun () -> cache_pairs t)
    backend_name (predict t)

(* ---- reservoir (Algorithm R) ---- *)

let reservoir_add t block target =
  t.res_seen <- t.res_seen + 1;
  if t.res_size < t.cfg.reservoir_capacity then begin
    t.res.(t.res_size) <- Some (block, target);
    t.res_size <- t.res_size + 1
  end
  else begin
    let j = Rng.int t.rrng t.res_seen in
    if j < t.cfg.reservoir_capacity then t.res.(j) <- Some (block, target)
  end

let reservoir_data t =
  Array.init t.res_size (fun i ->
      match t.res.(i) with
      | Some pair -> pair
      | None -> assert false)

let reservoir_snapshot t =
  Array.to_list
    (Array.map
       (fun (block, target) -> (Dt_x86.Block.to_string block, target))
       (reservoir_data t))

(* ---- swap / rollback ---- *)

let retire t epoch =
  t.retired <- (epoch.eversion, epoch.ecache) :: t.retired;
  (* Bound the stats list; versions churn but memory must not. *)
  if List.length t.retired > 8 then
    t.retired <- List.filteri (fun i _ -> i < 8) t.retired

let reset_window t =
  t.wfill <- 0;
  t.consecutive <- 0

let install t v candidate_result =
  let t0 = t.clock.Clock.now () in
  let validated =
    match candidate_result with
    | Error fault -> Error fault
    | Ok model -> (
        match t.model_dir with
        | None -> Ok model
        | Some dir -> (
            (* Persist, then serve what the disk proves decodable: the
               reload exercises magic, CRC and shape checks on the very
               bytes a restart would read. *)
            match Registry.save ~dir ~version:v model with
            | () -> Registry.load ~dir ~version:v
            | exception e ->
                Error
                  (Fault.Model_rejected
                     { version = v; reason = Printexc.to_string e })))
  in
  let self_checked =
    match validated with
    | Error _ as e -> e
    | Ok model -> (
        (* Never swap in a model that cannot produce a sane prediction:
           one forward pass on a probe block must be finite and
           non-negative. *)
        let probe = Dt_x86.Block.parse "addq %rax, %rbx" in
        match Engine.ithemal_predict ~features:t.features model probe with
        | p when Float.is_finite p && p >= 0.0 -> Ok model
        | p ->
            Error
              (Fault.Model_rejected
                 {
                   version = v;
                   reason = Printf.sprintf "self-check predicted %g" p;
                 })
        | exception e ->
            Error
              (Fault.Model_rejected
                 {
                   version = v;
                   reason = "self-check raised " ^ Printexc.to_string e;
                 }))
  in
  match self_checked with
  | Error fault ->
      t.models_rejected <- t.models_rejected + 1;
      Log.warn "lifecycle: %s" (Fault.to_string fault);
      t.st <- Stable;
      reset_window t
  | Ok model ->
      let prev = Atomic.get t.current in
      Atomic.set t.current (make_epoch v model);
      t.swaps <- t.swaps + 1;
      reset_window t;
      if t.cfg.canary_windows > 0 then begin
        t.previous <- Some prev;
        t.canary_left <- t.cfg.canary_windows;
        t.st <- Canary
      end
      else begin
        retire t prev;
        t.previous <- None;
        t.st <- Stable
      end;
      t.last_swap_pause <- t.clock.Clock.now () -. t0;
      Log.status "lifecycle: model v%d installed (serving; canary %d windows)"
        v t.cfg.canary_windows

let rollback t =
  match t.previous with
  | None ->
      t.st <- Stable;
      reset_window t
  | Some prev ->
      let bad = Atomic.get t.current in
      Atomic.set t.current prev;
      retire t bad;
      t.previous <- None;
      t.rollbacks <- t.rollbacks + 1;
      t.st <- Stable;
      reset_window t;
      Log.warn "lifecycle: model v%d regressed in canary; rolled back to v%d"
        bad.eversion prev.eversion

let promote t =
  (match t.previous with
  | Some p ->
      retire t p;
      Log.status "lifecycle: model v%d survived canary; v%d released"
        (Atomic.get t.current).eversion p.eversion
  | None -> ());
  t.previous <- None;
  t.st <- Stable;
  t.consecutive <- 0

(* ---- drift windows ---- *)

let finalize_window t =
  let rels = Array.sub t.rels 0 t.wfill in
  t.wfill <- 0;
  let mape = Stats.mean rels in
  let q = Stats.percentile rels t.cfg.quantile in
  t.last_mape <- mape;
  t.last_q <- q;
  t.windows <- t.windows + 1;
  let stormed = Faultsim.fire "lifecycle.drift_storm" in
  let out = stormed || mape > t.cfg.drift_band || q > t.cfg.quantile_band in
  if out then t.windows_out <- t.windows_out + 1;
  match t.st with
  | Canary ->
      if out then rollback t
      else begin
        t.canary_left <- t.canary_left - 1;
        if t.canary_left <= 0 then promote t
      end
  | Retraining ->
      (* Drift accounting is paused while a candidate is in flight; the
         window stats keep rolling for observability. *)
      ()
  | Stable | Drifting ->
      if out then begin
        t.consecutive <- t.consecutive + 1;
        t.st <- Drifting;
        if t.consecutive >= t.cfg.drift_windows then t.want_retrain <- true
      end
      else begin
        t.consecutive <- 0;
        t.want_retrain <- false;
        t.st <- Stable
      end

(* The window/reservoir/counter state below is drain-thread confined by
   design (no lock): [with_owner] makes that confinement checkable —
   under DIFFTUNE_RACECHECK=1 a second domain entering while the drain
   thread is inside raises Sync.Race naming both sites. *)
let observe t ~asm ~value =
  Sync.with_owner t.downer ~site:"Lifecycle.observe" @@ fun () ->
  t.observed <- t.observed + 1;
  if t.observed mod t.cfg.shadow_every = 0 then begin
    match Dt_x86.Parser.block_result asm with
    | Error _ | Ok [] -> t.shadow_errors <- t.shadow_errors + 1
    | Ok (_ :: _ as instrs) -> (
        let block = Dt_x86.Block.of_list instrs in
        match t.reference block with
        | exception e ->
            t.shadow_errors <- t.shadow_errors + 1;
            Log.warn "lifecycle: shadow reference failed: %s"
              (Printexc.to_string e)
        | rv ->
            if Float.is_finite rv && rv > 0.0 then begin
              t.shadow_scored <- t.shadow_scored + 1;
              let rel = Float.abs (value -. rv) /. rv in
              t.rels.(t.wfill) <- rel;
              t.wfill <- t.wfill + 1;
              reservoir_add t block rv;
              if t.wfill >= t.cfg.window then finalize_window t
            end
            else t.shadow_errors <- t.shadow_errors + 1)
  end

(* ---- retraining ---- *)

let retrain_finished t v result =
  match result with
  | Error detail ->
      t.retrains_failed <- t.retrains_failed + 1;
      Log.warn "lifecycle: %s"
        (Fault.to_string (Fault.Retrain_failed { version = v; detail }));
      t.st <- Stable;
      reset_window t
  | Ok model -> install t v (Ok model)

let start_retrain t =
  t.want_retrain <- false;
  t.retrains_started <- t.retrains_started + 1;
  let v = t.next_version in
  t.next_version <- t.next_version + 1;
  let data = reservoir_data t in
  (* Clone synchronously: the background domain must never touch the
     serving model's scratch workspace. *)
  let init = Model.clone (Atomic.get t.current).emodel in
  t.st <- Retraining;
  t.consecutive <- 0;
  let work () =
    Faultsim.fire_exn "lifecycle.retrain_crash";
    t.retrain ~init data
  in
  Log.status "lifecycle: drift confirmed; retraining model v%d on %d samples"
    v (Array.length data);
  if t.cfg.sync_retrain then
    retrain_finished t v
      (match work () with
      | model -> Ok model
      | exception e -> Error (Printexc.to_string e))
  else begin
    let jresult = ref None in
    let jmutex = Sync.mutex "lifecycle.job" in
    let d =
      Domain.spawn (fun () ->
          let r =
            match work () with
            | model -> Ok model
            | exception e -> Error (Printexc.to_string e)
          in
          locked jmutex (fun () -> jresult := Some r))
    in
    t.job <- Some { jversion = v; jdomain = Some d; jresult; jmutex }
  end

let tick t =
  Sync.with_owner t.downer ~site:"Lifecycle.tick" @@ fun () ->
  (match t.job with
  | None -> ()
  | Some j -> (
      match locked j.jmutex (fun () -> !(j.jresult)) with
      | None -> ()
      | Some r ->
          (match j.jdomain with Some d -> Domain.join d | None -> ());
          t.job <- None;
          retrain_finished t j.jversion r));
  if
    t.want_retrain
    && Option.is_none t.job
    && (match t.st with Stable | Drifting -> true | Retraining | Canary -> false)
  then begin
    if t.res_size >= t.cfg.min_retrain then start_retrain t
    else begin
      (* Not enough harvested traffic yet; stay drifting and try again
         at the next window. *)
      t.want_retrain <- false;
      Log.warn
        "lifecycle: drift confirmed but reservoir has %d/%d samples; waiting"
        t.res_size t.cfg.min_retrain
    end
  end

let stats_pairs t =
  let f2 x = Printf.sprintf "%.4f" x in
  [
    ("state", state_name t.st);
    ("version", string_of_int (version t));
    ("versions_created", string_of_int (t.next_version - 1));
    ("swaps", string_of_int t.swaps);
    ("rollbacks", string_of_int t.rollbacks);
    ("retrains_started", string_of_int t.retrains_started);
    ("retrains_failed", string_of_int t.retrains_failed);
    ("models_rejected", string_of_int t.models_rejected);
    ("observed", string_of_int t.observed);
    ("shadow_scored", string_of_int t.shadow_scored);
    ("shadow_errors", string_of_int t.shadow_errors);
    ("windows", string_of_int t.windows);
    ("windows_out_of_band", string_of_int t.windows_out);
    ("consecutive_out", string_of_int t.consecutive);
    ("window_fill", string_of_int t.wfill);
    ("last_window_mape", f2 t.last_mape);
    ("last_window_q", f2 t.last_q);
    ("reservoir_size", string_of_int t.res_size);
    ("reservoir_seen", string_of_int t.res_seen);
    ("canary_left", string_of_int t.canary_left);
    ("swap_pause_ms", f2 (t.last_swap_pause *. 1000.0));
  ]

let stop t =
  if not t.stopped then begin
    t.stopped <- true;
    match t.job with
    | None -> ()
    | Some j ->
        (match j.jdomain with
        | Some d ->
            Log.status "lifecycle: waiting for in-flight retrain of v%d"
              j.jversion;
            Domain.join d
        | None -> ());
        t.job <- None
  end
