module Fault = Dt_difftune.Fault
module Faultsim = Dt_util.Faultsim
module Sync = Dt_util.Sync

type config = {
  queue_capacity : int;
  batch : int;
  cycle_budget : int;
  max_retries : int;
  backoff_base : float;
  backoff_cap : float;
  jitter : float;
  breaker_threshold : int;
  breaker_cooldown : float;
  seed : int;
}

let default_config =
  {
    queue_capacity = 64;
    batch = 16;
    cycle_budget = 200_000;
    max_retries = 2;
    backoff_base = 0.01;
    backoff_cap = 0.25;
    jitter = 0.25;
    breaker_threshold = 3;
    breaker_cooldown = 1.0;
    seed = 0;
  }

type backend_stats = {
  mutable requests : int;        (* requests that attempted this backend *)
  mutable served : int;          (* responses this backend produced *)
  mutable served_fallback : int; (* ... of which as a degraded fallback *)
  mutable retries : int;
  mutable timeouts : int;        (* cycle-budget overruns *)
  mutable faults : int;          (* transient attempt failures *)
  mutable breaker_skips : int;   (* fast-fail rejections by the breaker *)
  mutable exhausted : int;       (* requests this backend gave up on *)
}

type lane = {
  backend : Backend.t;
  breaker : Breaker.t;
  bstats : backend_stats;
}

type entry = {
  id : string;
  asm : string;
  rng : Dt_util.Rng.t; (* per-request jitter stream, split at admission *)
  respond : string -> unit;
}

type t = {
  cfg : config;
  clock : Clock.t;
  started : float; (* clock time at creation, for ping uptime *)
  pool : Dt_util.Pool.t;
  owned_pool : bool;
  lanes : lane list;
  queue : entry Queue.t;
  lifecycle : Lifecycle.t option;
  m : Sync.mutex;
  master_rng : Dt_util.Rng.t;
  mutable received : int;
  mutable answered : int;
  mutable ok : int;
  mutable degraded : int;
  mutable failed : int;
  mutable overloaded : int;
  mutable malformed : int;
  mutable queue_hwm : int;
  mutable stopped : bool;
}

let create ?pool ?clock ?lifecycle cfg backends =
  if backends = [] then invalid_arg "Runtime.create: empty backend chain";
  if cfg.queue_capacity < 1 then
    invalid_arg "Runtime.create: queue_capacity must be >= 1";
  if cfg.batch < 1 then invalid_arg "Runtime.create: batch must be >= 1";
  if cfg.cycle_budget < 1 then
    invalid_arg "Runtime.create: cycle_budget must be >= 1";
  if cfg.max_retries < 0 then
    invalid_arg "Runtime.create: max_retries must be >= 0";
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  let owned_pool = pool = None in
  let pool =
    match pool with Some p -> p | None -> Dt_util.Pool.create ()
  in
  let lanes =
    List.map
      (fun backend ->
        {
          backend;
          breaker =
            Breaker.create ~clock ~threshold:cfg.breaker_threshold
              ~cooldown:cfg.breaker_cooldown backend.Backend.name;
          bstats =
            {
              requests = 0;
              served = 0;
              served_fallback = 0;
              retries = 0;
              timeouts = 0;
              faults = 0;
              breaker_skips = 0;
              exhausted = 0;
            };
        })
      backends
  in
  {
    cfg;
    clock;
    started = clock.Clock.now ();
    pool;
    owned_pool;
    lanes;
    queue = Queue.create ();
    lifecycle;
    m = Sync.mutex "runtime.m";
    master_rng = Dt_util.Rng.create cfg.seed;
    received = 0;
    answered = 0;
    ok = 0;
    degraded = 0;
    failed = 0;
    overloaded = 0;
    malformed = 0;
    queue_hwm = 0;
    stopped = false;
  }

let config t = t.cfg

let locked t f = Sync.with_lock t.m f

let pending t = locked t (fun () -> Queue.length t.queue)

(* Every response funnels through here: the exactly-once accounting and
   the per-status counters live in one place. *)
let emit t ~id ~respond resp =
  respond (Protocol.encode_response ~id resp);
  locked t (fun () ->
      t.answered <- t.answered + 1;
      match resp with
      | Protocol.Answer { via = []; _ } -> t.ok <- t.ok + 1
      | Protocol.Answer _ -> t.degraded <- t.degraded + 1
      | Protocol.Overloaded _ -> t.overloaded <- t.overloaded + 1
      | Protocol.Failed (Fault.Request_malformed _) ->
          t.malformed <- t.malformed + 1;
          t.failed <- t.failed + 1
      | Protocol.Failed _ -> t.failed <- t.failed + 1
      | Protocol.Stat_report _ | Protocol.Pong _ | Protocol.Flushed _
      | Protocol.Bye ->
          ())

(* ---- one backend attempt loop: breaker, retries, backoff ---- *)

let backoff t rng attempt_no =
  let expo = t.cfg.backoff_base *. (2.0 ** float_of_int attempt_no) in
  let capped = Float.min expo t.cfg.backoff_cap in
  capped *. (1.0 +. (t.cfg.jitter *. Dt_util.Rng.float rng 1.0))

(* Runs on a pool worker.  Returns [Ok cycles] or [Error reason_slug].
   Deadline overruns are terminal for the backend (retrying a slow block
   just burns another budget); everything else is transient and retried
   with backoff.  [?prefetched] short-circuits attempt 0 with a value
   the drain thread already computed through the backend's batched entry
   point; every other piece of the contract — breaker acquisition and
   accounting, request counters, fault injection, validity checks,
   retries — is unchanged, and a rejected prefetch (non-finite) retries
   through the scalar path. *)
let attempt t lane rng ?prefetched block =
  let rec go attempt_no =
    if not (Breaker.acquire lane.breaker) then begin
      locked t (fun () ->
          lane.bstats.breaker_skips <- lane.bstats.breaker_skips + 1);
      Error "breaker_open"
    end
    else begin
      if attempt_no = 0 then
        locked t (fun () -> lane.bstats.requests <- lane.bstats.requests + 1);
      match
        Faultsim.fire_exn "serve.worker_crash";
        match prefetched with
        | Some v when attempt_no = 0 -> v
        | _ ->
            lane.backend.Backend.predict ~cycle_budget:t.cfg.cycle_budget block
      with
      | v when Float.is_finite v && v >= 0.0 ->
          Breaker.success lane.breaker;
          Ok v
      | _ -> transient "non_finite" attempt_no
      | exception Dt_mca.Pipeline.Budget_exceeded _ ->
          Breaker.failure lane.breaker;
          locked t (fun () ->
              lane.bstats.timeouts <- lane.bstats.timeouts + 1);
          Error "deadline"
      | exception (Sync.Lock_cycle _ as e) ->
          (* Dynamic-checker verdicts are not transient backend faults:
             let [process] turn them into structured concurrency faults
             instead of burning the retry budget on them. *)
          raise e
      | exception (Sync.Race _ as e) -> raise e
      | exception e ->
          ignore (e : exn);
          transient "worker_fault" attempt_no
    end
  and transient reason attempt_no =
    Breaker.failure lane.breaker;
    locked t (fun () -> lane.bstats.faults <- lane.bstats.faults + 1);
    if attempt_no < t.cfg.max_retries then begin
      locked t (fun () -> lane.bstats.retries <- lane.bstats.retries + 1);
      t.clock.Clock.sleep (backoff t rng attempt_no);
      go (attempt_no + 1)
    end
    else Error reason
  in
  go 0

(* ---- the degradation chain (runs on a pool worker) ---- *)

let process_chain t ?lane0_value entry =
  match Dt_x86.Parser.block_result entry.asm with
  | Error e ->
      Error
        (Fault.Block_unparsable { line = e.line; col = e.col; detail = e.msg })
  | Ok [] -> Error (Fault.Request_malformed { detail = "empty block" })
  | Ok instrs ->
      let block = Dt_x86.Block.of_list instrs in
      let rec chain via = function
        | [] -> (
            match List.rev via with
            | [ (b, "deadline") ] ->
                Error
                  (Fault.Deadline_exceeded
                     { backend = b; cycle_budget = t.cfg.cycle_budget })
            | [ (b, reason) ] ->
                Error (Fault.Backend_unavailable { backend = b; reason })
            | failed -> Error (Fault.All_backends_failed { chain = failed }))
        | lane :: rest -> (
            let prefetched = if via = [] then lane0_value else None in
            match attempt t lane entry.rng ?prefetched block with
            | Ok cycles ->
                locked t (fun () ->
                    lane.bstats.served <- lane.bstats.served + 1;
                    if via <> [] then
                      lane.bstats.served_fallback <-
                        lane.bstats.served_fallback + 1);
                Ok
                  {
                    Protocol.cycles;
                    backend = lane.backend.Backend.name;
                    via = List.rev via;
                    model = None;
                  }
            | Error reason ->
                locked t (fun () ->
                    lane.bstats.exhausted <- lane.bstats.exhausted + 1);
                chain ((lane.backend.Backend.name, reason) :: via) rest)
      in
      chain [] t.lanes

let process t ?lane0_value entry =
  try
    (* Seeded lock-order inversion: probe the runtime queue lock against
       the first lane's breaker lock in both nesting orders.  With
       racecheck on the second nesting closes a cycle and the
       handler below reports a structured Fault.Lock_cycle; with
       checking off it is four uncontended lock/unlock pairs. *)
    if Faultsim.fire "race.lock_cycle" then
      (match t.lanes with
      | lane :: _ -> Sync.cycle_probe t.m (Breaker.handle lane.breaker)
      | [] -> ());
    process_chain t ?lane0_value entry
  with
  | Sync.Lock_cycle chain -> Error (Fault.Lock_cycle { chain })
  | Sync.Race { structure; first; second } ->
      Error (Fault.Race { structure; first; second })

(* ---- batch evaluation on the pool ---- *)

(* Batched lane-0 prefetch, on the drain thread: when the first backend
   offers [predict_batch] and its breaker is closed, the whole admitted
   batch is predicted with one call, and each request's attempt 0
   consumes its value instead of a scalar call.  Any shortfall — no
   batched entry point, open breaker, unparsable entries, an exception
   or a wrong-length result — degrades to the per-request path; the
   prefetch itself never touches breakers or counters. *)
let prefetch_lane0 t entries =
  let n = Array.length entries in
  let none () = Array.make n None in
  match t.lanes with
  | { backend = { Backend.predict_batch = Some pb; _ }; breaker; _ } :: _
    when Breaker.state breaker = Breaker.Closed -> (
      let blocks =
        Array.map
          (fun e ->
            match Dt_x86.Parser.block_result e.asm with
            | Ok (_ :: _ as instrs) -> Some (Dt_x86.Block.of_list instrs)
            | Ok [] | Error _ -> None)
          entries
      in
      let idx = ref [] in
      Array.iteri
        (fun i b -> if Option.is_some b then idx := i :: !idx)
        blocks;
      let idxs = Array.of_list (List.rev !idx) in
      if Array.length idxs = 0 then none ()
      else
        let packed = Array.map (fun i -> Option.get blocks.(i)) idxs in
        match pb ~cycle_budget:t.cfg.cycle_budget packed with
        | vals when Array.length vals = Array.length idxs ->
            let out = none () in
            Array.iteri (fun j i -> out.(i) <- Some vals.(j)) idxs;
            out
        | _ -> none ()
        | exception _ -> none ())
  | _ -> none ()

let drain_batch t =
  let entries =
    locked t (fun () ->
        let n = Int.min t.cfg.batch (Queue.length t.queue) in
        Array.init n (fun _ -> Queue.pop t.queue))
  in
  let n = Array.length entries in
  if n = 0 then begin
    (* Even an idle service must reap finished background retrains. *)
    (match t.lifecycle with Some lc -> Lifecycle.tick lc | None -> ());
    0
  end
  else begin
    (* The serving-model label for this whole batch, read once: the
       lifecycle only swaps inside [tick] (below, after the emits), so a
       batch can never mix versions. *)
    let mver =
      match t.lifecycle with
      | Some lc -> Some (Printf.sprintf "v%d" (Lifecycle.version lc))
      | None -> None
    in
    (* Pre-filled with a structured error so that even a runtime bug
       that aborts the batch cannot drop a response. *)
    let results =
      Array.make n
        (Error
           (Fault.All_backends_failed { chain = [ ("runtime", "batch_aborted") ] }))
    in
    let prefetch =
      try prefetch_lane0 t entries
      with e ->
        Dt_util.Log.warn "serve: lane-0 prefetch failed: %s"
          (Printexc.to_string e);
        Array.make n None
    in
    (try
       Dt_util.Pool.run t.pool n (fun i ->
           results.(i) <- process t ?lane0_value:prefetch.(i) entries.(i))
     with e ->
       Dt_util.Log.warn "serve: batch aborted by worker error: %s"
         (Printexc.to_string e));
    Array.iteri
      (fun i entry ->
        let resp =
          match results.(i) with
          | Ok answer ->
              let answer =
                if String.equal answer.Protocol.backend Lifecycle.backend_name
                then { answer with Protocol.model = mver }
                else answer
              in
              results.(i) <- Ok answer;
              Protocol.Answer answer
          | Error fault -> Protocol.Failed fault
        in
        emit t ~id:entry.id ~respond:entry.respond resp)
      entries;
    (* Lifecycle housekeeping at the batch boundary, after every
       response is out: shadow-score this batch's surrogate-served
       answers in admission order (deterministic under any pool size),
       then let the lifecycle start/reap retrains and hot-swap. *)
    (match t.lifecycle with
    | None -> ()
    | Some lc ->
        Array.iteri
          (fun i entry ->
            match results.(i) with
            | Ok a when String.equal a.Protocol.backend Lifecycle.backend_name
              ->
                Lifecycle.observe lc ~asm:entry.asm ~value:a.Protocol.cycles
            | Ok _ | Error _ -> ())
          entries;
        Lifecycle.tick lc);
    n
  end

let drain t = ignore (drain_batch t)

let drain_all t =
  let rec go total =
    let n = drain_batch t in
    if n = 0 then total else go (total + n)
  in
  go 0

(* ---- stats ---- *)

let stats_pairs t =
  let i = string_of_int in
  let global =
    locked t (fun () ->
        [
          ("received", i t.received);
          ("answered", i t.answered);
          ("ok", i t.ok);
          ("degraded", i t.degraded);
          ("failed", i t.failed);
          ("overloaded", i t.overloaded);
          ("malformed", i t.malformed);
          ("queue_depth", i (Queue.length t.queue));
          ("queue_hwm", i t.queue_hwm);
          ("queue_capacity", i t.cfg.queue_capacity);
        ])
  in
  let per_lane lane =
    let b = lane.bstats in
    (* Read everything breaker-locked before taking the runtime lock:
       acquiring breaker.m while holding runtime.m was the one nested
       acquisition in the serving path, and the dt_race dynamic layer
       (rightly) charges such edges against the declared lock order. *)
    let opened, half_opened, closed, rejected = Breaker.counters lane.breaker in
    let bstate = Breaker.state_name (Breaker.state lane.breaker) in
    let p key v = (lane.backend.Backend.name ^ "." ^ key, v) in
    locked t (fun () ->
        [
          p "requests" (i b.requests);
          p "served" (i b.served);
          p "fallbacks" (i b.served_fallback);
          p "retries" (i b.retries);
          p "timeouts" (i b.timeouts);
          p "faults" (i b.faults);
          p "breaker_skips" (i b.breaker_skips);
          p "exhausted" (i b.exhausted);
          p "breaker_state" bstate;
          p "breaker_opened" (i opened);
          p "breaker_half_opened" (i half_opened);
          p "breaker_closed" (i closed);
          p "breaker_rejected" (i rejected);
        ])
    @
    match lane.backend.Backend.xstats with
    | None -> []
    | Some f ->
        List.map (fun (k, v) -> (lane.backend.Backend.name ^ "." ^ k, v)) (f ())
  in
  let lifecycle =
    match t.lifecycle with
    | None -> []
    | Some lc ->
        List.map (fun (k, v) -> ("lifecycle." ^ k, v)) (Lifecycle.stats_pairs lc)
  in
  let racecheck =
    List.map (fun (k, v) -> ("racecheck." ^ k, v)) (Sync.stats ())
  in
  global @ List.concat_map per_lane t.lanes @ lifecycle @ racecheck

(* The health-probe payload of a [ping]: cheap enough for a router to
   poll every few hundred milliseconds. *)
let ping_payload t =
  {
    Protocol.version = Protocol.proto_version;
    uptime = t.clock.Clock.now () -. t.started;
    model =
      (match t.lifecycle with
      | Some lc -> Some (Printf.sprintf "v%d" (Lifecycle.version lc))
      | None -> None);
    queue_depth = locked t (fun () -> Queue.length t.queue);
  }

let breaker t name =
  List.find_map
    (fun lane ->
      if String.equal lane.backend.Backend.name name then Some lane.breaker
      else None)
    t.lanes

(* ---- admission ---- *)

let submit t ~line ~respond =
  (* Deterministic input corruption: an armed [serve.malformed_input]
     mangles the tail of the line (the id usually survives, so the
     structured error still reaches the right caller). *)
  let line =
    if Faultsim.fire "serve.malformed_input" then line ^ " ;; .corrupt %%"
    else line
  in
  locked t (fun () -> t.received <- t.received + 1);
  match Protocol.decode line with
  | Error (id, fault) ->
      emit t ~id ~respond (Protocol.Failed fault);
      `Ok
  | Ok (id, Protocol.Stats) ->
      emit t ~id ~respond (Protocol.Stat_report (stats_pairs t));
      `Ok
  | Ok (id, Protocol.Ping) ->
      emit t ~id ~respond (Protocol.Pong (ping_payload t));
      `Ok
  | Ok (id, Protocol.Flush) ->
      let n = drain_all t in
      emit t ~id ~respond (Protocol.Flushed n);
      `Ok
  | Ok (id, Protocol.Shutdown) ->
      ignore (drain_all t);
      emit t ~id ~respond Protocol.Bye;
      `Shutdown
  | Ok (id, Protocol.Predict asm) -> (
      let admitted =
        locked t (fun () ->
            if Queue.length t.queue >= t.cfg.queue_capacity then false
            else begin
              Queue.add
                {
                  id;
                  asm;
                  rng = Dt_util.Rng.split t.master_rng;
                  respond;
                }
                t.queue;
              t.queue_hwm <- Int.max t.queue_hwm (Queue.length t.queue);
              true
            end)
      in
      if not admitted then
        emit t ~id ~respond
          (Protocol.Overloaded { capacity = t.cfg.queue_capacity });
      `Ok)

let shutdown t =
  ignore (drain_all t);
  let fresh =
    locked t (fun () ->
        let fresh = not t.stopped in
        t.stopped <- true;
        fresh)
  in
  if fresh then begin
    (match t.lifecycle with Some lc -> Lifecycle.stop lc | None -> ());
    if t.owned_pool then Dt_util.Pool.shutdown t.pool
  end
