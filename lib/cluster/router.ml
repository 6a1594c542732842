module Clock = Dt_serve.Clock
module Breaker = Dt_serve.Breaker
module Backend = Dt_serve.Backend
module Protocol = Dt_serve.Protocol
module Fault = Dt_difftune.Fault
module Log = Dt_util.Log

type config = {
  vnodes : int;
  replicas : int;
  reply_budget : float;
  probe_interval : float;
  probe_budget : float;
  max_inflight : int;
  max_pending : int;
  breaker_threshold : int;
  breaker_cooldown : float;
  health : Health.config;
}

let default_config =
  {
    vnodes = 64;
    replicas = 2;
    reply_budget = 0.25;
    probe_interval = 0.5;
    probe_budget = 0.25;
    max_inflight = 64;
    max_pending = 4096;
    breaker_threshold = 3;
    breaker_cooldown = 1.0;
    health = Health.default_config;
  }

(* A barrier completes (calls [on_complete total]) when the data
   requests registered on it have all been finally answered. *)
type barrier = {
  mutable remaining : int;
  total : int;
  on_complete : int -> unit;
}

type data = {
  orig_id : string;
  key : string;              (* routing key: the block text *)
  payload : string;          (* verb + payload, resent verbatim on failover *)
  asm : string;
  d_respond : string -> unit;
  mutable assigned : string; (* shard currently serving it *)
  mutable deadline : float;
  mutable tried : (string * string) list; (* reverse (shard, reason) *)
  mutable barriers : barrier list;
}

type collect = {
  c_orig : string;
  c_respond : string -> unit;
  c_deadline : float;
  mutable c_waiting : int;   (* -1 once finished (late replies ignored) *)
  mutable c_pairs : (string * string) list list;
}

type pending =
  | Data of data
  | Probe of string          (* shard name *)
  | Collect of collect

type shard = {
  name : string;
  s_breaker : Breaker.t;
  s_health : Health.t;
  mutable link : (string -> bool) option;
  mutable inflight : int;
  mutable last_probe : float;
  mutable probe_pending : (string * float) option; (* rid, deadline *)
  mutable pong : Protocol.pong option;
  mutable sent : int;
  mutable answered : int;
  mutable timeouts : int;
}

type t = {
  cfg : config;
  clock : Clock.t;
  started : float;
  fallback : Backend.t;
  shards : (string * shard) list; (* sorted by name *)
  mutable ring : Ring.t;
  mutable seq : int;
  pending : (string, pending) Hashtbl.t;
  deadlines : (float * string) Queue.t; (* FIFO = sorted: constant budget *)
  mutable collects : collect list;
  mutable data_live : int;
  mutable is_draining : bool;
  mutable is_stopped : bool;
  (* counters *)
  mutable received : int;
  mutable predicts : int;
  mutable forwarded : int;
  mutable shard_answers : int;
  mutable failovers : int;
  mutable fallback_local : int;
  mutable shed : int;
  mutable late_discarded : int;
  mutable probes_sent : int;
  mutable probe_failures : int;
}

let validate cfg =
  if cfg.replicas < 1 then invalid_arg "Router: replicas must be >= 1";
  if cfg.max_inflight < 1 then invalid_arg "Router: max_inflight must be >= 1";
  if cfg.max_pending < 1 then invalid_arg "Router: max_pending must be >= 1";
  if cfg.reply_budget <= 0.0 || cfg.probe_budget <= 0.0 then
    invalid_arg "Router: budgets must be positive";
  if cfg.probe_interval <= 0.0 then
    invalid_arg "Router: probe_interval must be positive"

let create ?clock cfg ~uarch ~shards =
  validate cfg;
  let clock = match clock with Some c -> c | None -> Clock.monotonic () in
  if shards = [] then invalid_arg "Router: need at least one shard";
  let names = List.sort_uniq String.compare shards in
  let mk name =
    ( name,
      {
        name;
        s_breaker =
          Breaker.create ~clock ~threshold:cfg.breaker_threshold
            ~cooldown:cfg.breaker_cooldown name;
        s_health = Health.create cfg.health;
        link = None;
        inflight = 0;
        last_probe = Float.neg_infinity;
        probe_pending = None;
        pong = None;
        sent = 0;
        answered = 0;
        timeouts = 0;
      } )
  in
  {
    cfg;
    clock;
    started = clock.Clock.now ();
    fallback = Backend.bound uarch;
    shards = List.map mk names;
    ring = Ring.create ~vnodes:cfg.vnodes names;
    seq = 0;
    pending = Hashtbl.create 256;
    deadlines = Queue.create ();
    collects = [];
    data_live = 0;
    is_draining = false;
    is_stopped = false;
    received = 0;
    predicts = 0;
    forwarded = 0;
    shard_answers = 0;
    failovers = 0;
    fallback_local = 0;
    shed = 0;
    late_discarded = 0;
    probes_sent = 0;
    probe_failures = 0;
  }

let find_shard t name = List.assoc_opt name t.shards

let get_shard t name =
  match find_shard t name with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Router: unknown shard %S" name)

let fresh_id t prefix =
  t.seq <- t.seq + 1;
  Printf.sprintf "%s%d" prefix t.seq

let rebuild_ring t =
  let members =
    List.filter_map
      (fun (n, s) -> if Health.routable s.s_health then Some n else None)
      t.shards
  in
  t.ring <- Ring.create ~vnodes:t.cfg.vnodes members

let on_health_change t s st =
  Log.status "router: shard %s -> %s" s.name (Health.state_name st);
  rebuild_ring t

let health_success t s =
  match Health.note_success s.s_health with
  | `Changed st -> on_health_change t s st
  | `Unchanged -> ()

let health_failure t s =
  match Health.note_failure s.s_health ~now:(t.clock.Clock.now ()) with
  | `Changed st -> on_health_change t s st
  | `Unchanged -> ()

(* ---- barriers (flush / shutdown / drain) ---- *)

let barrier_hit b =
  b.remaining <- b.remaining - 1;
  if b.remaining = 0 then b.on_complete b.total

(* Attach a barrier to every live data request; completes immediately
   when nothing is in flight. *)
let add_barrier t on_complete =
  let b = { remaining = t.data_live; total = t.data_live; on_complete } in
  if b.remaining = 0 then on_complete 0
  else
    Hashtbl.iter
      (fun _ p ->
        match p with
        | Data d ->
            (* FIFO: a flush registered before a shutdown must answer
               first when the same final request completes both *)
            d.barriers <- d.barriers @ [ b ]
        | _ -> ())
      t.pending

(* ---- final resolution of a data request ---- *)

let finish_data t d response_line =
  t.data_live <- t.data_live - 1;
  d.d_respond response_line;
  List.iter barrier_hit d.barriers;
  d.barriers <- []

(* When every ring owner has been tried (or none exists), answer from
   the local analytic bound, labeled with the whole failover ladder. *)
let local_fallback t d =
  t.fallback_local <- t.fallback_local + 1;
  let via =
    match List.rev d.tried with
    | [] -> [ ("cluster", "no_shards") ]
    | tried -> List.map (fun (s, r) -> ("shard_" ^ s, r)) tried
  in
  let resp =
    match Dt_x86.Parser.block_result d.asm with
    | Error e ->
        Protocol.Failed
          (Fault.Block_unparsable { line = e.line; col = e.col; detail = e.msg })
    | Ok [] -> Protocol.Failed (Fault.Request_malformed { detail = "empty block" })
    | Ok instrs ->
        let block = Dt_x86.Block.of_list instrs in
        let cycles =
          t.fallback.Backend.predict ~cycle_budget:max_int block
        in
        Protocol.Answer
          { cycles; backend = t.fallback.Backend.name; via; model = None }
  in
  finish_data t d (Protocol.encode_response ~id:d.orig_id resp)

(* ---- dispatch / failover ---- *)

let tried_shard d name = List.exists (fun (n, _) -> String.equal n name) d.tried

(* Try the ring owners not yet attempted, in replica order; every
   skipped owner is recorded with its reason so the fallback label
   tells the whole story. *)
let rec route_data t d =
  let owners = Ring.owners t.ring d.key ~n:t.cfg.replicas in
  let candidates = List.filter (fun n -> not (tried_shard d n)) owners in
  try_candidates t d candidates

and try_candidates t d = function
  | [] -> local_fallback t d
  | name :: rest -> (
      let s = get_shard t name in
      let skip reason =
        d.tried <- (name, reason) :: d.tried;
        try_candidates t d rest
      in
      match s.link with
      | None -> skip "no_link"
      | Some send ->
          if not (Health.routable s.s_health) then skip "unroutable"
          else if s.inflight >= t.cfg.max_inflight then skip "window_full"
          else if not (Breaker.acquire s.s_breaker) then skip "breaker_open"
          else begin
            let rid = fresh_id t "g" in
            let now = t.clock.Clock.now () in
            d.assigned <- name;
            d.deadline <- now +. t.cfg.reply_budget;
            if send (rid ^ " " ^ d.payload) then begin
              Hashtbl.replace t.pending rid (Data d);
              Queue.push (d.deadline, rid) t.deadlines;
              s.inflight <- s.inflight + 1;
              s.sent <- s.sent + 1;
              t.forwarded <- t.forwarded + 1
            end
            else begin
              (* write failed: the link is dead; drop it so the prober
                 must bring the shard back *)
              Breaker.failure s.s_breaker;
              health_failure t s;
              lose_link t s;
              d.tried <- (name, "send_failed") :: d.tried;
              try_candidates t d rest
            end
          end)

and fail_over t d rid s reason =
  Hashtbl.remove t.pending rid;
  s.inflight <- Int.max 0 (s.inflight - 1);
  t.failovers <- t.failovers + 1;
  d.tried <- (s.name, reason) :: d.tried;
  route_data t d

(* The link to [s] is gone, whether the transport detached it or a send
   found it dead: a dropped link strands everything in flight on this
   shard, so fail it over now rather than letting each request wait out
   its full reply budget (a crashed shard would otherwise put the whole
   window at p99 = reply_budget). *)
and lose_link t s =
  s.link <- None;
  (match s.probe_pending with
  | Some (prid, _) ->
      Hashtbl.remove t.pending prid;
      s.probe_pending <- None
  | None -> ());
  let stranded =
    Hashtbl.fold
      (fun rid p acc ->
        match p with
        | Data d when String.equal d.assigned s.name -> (rid, d) :: acc
        | _ -> acc)
      t.pending []
  in
  List.iter (fun (rid, d) -> fail_over t d rid s "link_lost") stranded

(* ---- stats (cluster report) ---- *)

let router_pairs t =
  let base =
    [
      ("router.received", string_of_int t.received);
      ("router.predicts", string_of_int t.predicts);
      ("router.forwarded", string_of_int t.forwarded);
      ("router.shard_answers", string_of_int t.shard_answers);
      ("router.failovers", string_of_int t.failovers);
      ("router.fallback_local", string_of_int t.fallback_local);
      ("router.shed", string_of_int t.shed);
      ("router.late_discarded", string_of_int t.late_discarded);
      ("router.probes_sent", string_of_int t.probes_sent);
      ("router.probe_failures", string_of_int t.probe_failures);
      ("router.pending", string_of_int t.data_live);
      ("router.ring_size", string_of_int (List.length (Ring.members t.ring)));
    ]
  in
  let per_shard =
    List.concat_map
      (fun (n, s) ->
        let opened, _, _, rejected = Breaker.counters s.s_breaker in
        [
          (n ^ ".state", Health.state_name (Health.state s.s_health));
          ( n ^ ".model",
            match s.pong with
            | Some { Protocol.model = Some m; _ } -> m
            | _ -> "-" );
          ( n ^ ".queue_depth",
            match s.pong with
            | Some p -> string_of_int p.Protocol.queue_depth
            | None -> "-" );
          (n ^ ".sent", string_of_int s.sent);
          (n ^ ".answered", string_of_int s.answered);
          (n ^ ".timeouts", string_of_int s.timeouts);
          (n ^ ".breaker", Breaker.state_name (Breaker.state s.s_breaker));
          (n ^ ".breaker_opened", string_of_int opened);
          (n ^ ".breaker_rejected", string_of_int rejected);
        ])
      t.shards
  in
  base @ per_shard

let stats_pairs = router_pairs

(* Merge shard stats into the cluster report: numeric values summed
   under [fleet.<key>]; everything non-numeric is shard-local detail
   the per-shard rows already cover. *)
let finish_collect t c =
  if c.c_waiting >= 0 then begin
    c.c_waiting <- -1;
    t.collects <- List.filter (fun c' -> c' != c) t.collects;
    let sums = ref [] in
    List.iter
      (List.iter (fun (k, v) ->
           match float_of_string_opt v with
           | None -> ()
           | Some f ->
               let cur =
                 match List.assoc_opt k !sums with Some x -> x | None -> 0.0
               in
               sums := (k, cur +. f) :: List.remove_assoc k !sums))
      c.c_pairs;
    let fleet =
      List.sort (fun (a, _) (b, _) -> String.compare a b) !sums
      |> List.map (fun (k, v) ->
             ( "fleet." ^ k,
               if Float.is_integer v then Printf.sprintf "%.0f" v
               else Printf.sprintf "%.4f" v ))
    in
    let pairs =
      ("shards_reporting", string_of_int (List.length c.c_pairs))
      :: (router_pairs t @ fleet)
    in
    c.c_respond
      (Protocol.encode_response ~id:c.c_orig (Protocol.Stat_report pairs))
  end

let start_collect t ~id ~respond =
  let linked = List.filter (fun (_, s) -> s.link <> None) t.shards in
  let c =
    {
      c_orig = id;
      c_respond = respond;
      c_deadline = t.clock.Clock.now () +. t.cfg.reply_budget;
      c_waiting = List.length linked;
      c_pairs = [];
    }
  in
  if c.c_waiting = 0 then begin
    c.c_waiting <- 0;
    t.collects <- c :: t.collects;
    finish_collect t c
  end
  else begin
    t.collects <- c :: t.collects;
    List.iter
      (fun (_, s) ->
        match s.link with
        | None -> ()
        | Some send ->
            let rid = fresh_id t "st" in
            if send (rid ^ " stats") then
              Hashtbl.replace t.pending rid (Collect c)
            else begin
              lose_link t s;
              c.c_waiting <- c.c_waiting - 1
            end)
      linked;
    if c.c_waiting <= 0 then finish_collect t c
  end

(* ---- probes ---- *)

let probe_shard t s =
  let now = t.clock.Clock.now () in
  match s.link with
  | None ->
      (* a due probe with no transport is a failed probe *)
      s.last_probe <- now;
      t.probe_failures <- t.probe_failures + 1;
      health_failure t s
  | Some send ->
      let rid = fresh_id t "pb" in
      s.last_probe <- now;
      if send (rid ^ " ping") then begin
        Hashtbl.replace t.pending rid (Probe s.name);
        s.probe_pending <- Some (rid, now +. t.cfg.probe_budget);
        t.probes_sent <- t.probes_sent + 1
      end
      else begin
        lose_link t s;
        t.probe_failures <- t.probe_failures + 1;
        health_failure t s
      end

(* ---- public entry points ---- *)

let ping_payload t =
  {
    Protocol.version = Protocol.proto_version;
    uptime = t.clock.Clock.now () -. t.started;
    model = None;
    queue_depth = t.data_live;
  }

let shed t ~id ~respond =
  t.shed <- t.shed + 1;
  respond
    (Protocol.encode_response ~id
       (Protocol.Overloaded { capacity = t.cfg.max_pending }))

let submit t ~line ~respond =
  t.received <- t.received + 1;
  match Protocol.decode line with
  | Error (id, fault) ->
      respond (Protocol.encode_response ~id (Protocol.Failed fault))
  | Ok (id, Protocol.Ping) ->
      respond (Protocol.encode_response ~id (Protocol.Pong (ping_payload t)))
  | Ok (id, Protocol.Stats) -> start_collect t ~id ~respond
  | Ok (id, Protocol.Flush) ->
      add_barrier t (fun total ->
          respond (Protocol.encode_response ~id (Protocol.Flushed total)))
  | Ok (id, Protocol.Shutdown) ->
      t.is_draining <- true;
      add_barrier t (fun _ ->
          respond (Protocol.encode_response ~id Protocol.Bye);
          t.is_stopped <- true)
  | Ok (id, Protocol.Predict asm) ->
      if t.is_draining || t.data_live >= t.cfg.max_pending then
        shed t ~id ~respond
      else begin
        t.predicts <- t.predicts + 1;
        t.data_live <- t.data_live + 1;
        let d =
          {
            orig_id = id;
            key = asm;
            payload = "predict " ^ asm;
            asm;
            d_respond = respond;
            assigned = "";
            deadline = 0.0;
            tried = [];
            barriers = [];
          }
        in
        route_data t d
      end

(* Substitute the client's id for the router-generated one: the rid is
   the line's first token at offset 0. *)
let rewrite_id line ~rid ~orig =
  orig ^ String.sub line (String.length rid) (String.length line - String.length rid)

(* The status keyword is the response line's second whitespace token. *)
let status_token line =
  let n = String.length line in
  let is_sp c = c = ' ' || c = '\t' in
  let rec skip i = if i < n && is_sp line.[i] then skip (i + 1) else i in
  let rec span i = if i < n && not (is_sp line.[i]) then span (i + 1) else i in
  let i0 = skip 0 in
  let i1 = span i0 in
  let j0 = skip i1 in
  let j1 = span j0 in
  String.sub line j0 (j1 - j0)

let on_shard_line t ~shard ~line =
  let rid = Protocol.response_id line in
  match Hashtbl.find_opt t.pending rid with
  | None -> t.late_discarded <- t.late_discarded + 1
  | Some (Probe name) ->
      Hashtbl.remove t.pending rid;
      let s = get_shard t name in
      s.probe_pending <- None;
      (match Protocol.pong_of_line line with
      | Some pong ->
          s.pong <- Some pong;
          health_success t s
      | None ->
          t.probe_failures <- t.probe_failures + 1;
          health_failure t s)
  | Some (Collect c) ->
      Hashtbl.remove t.pending rid;
      if c.c_waiting >= 0 then begin
        c.c_pairs <- Protocol.fields line :: c.c_pairs;
        c.c_waiting <- c.c_waiting - 1;
        if c.c_waiting = 0 then finish_collect t c
      end
  | Some (Data d) -> (
      let s =
        match find_shard t shard with
        | Some s -> s
        | None -> get_shard t d.assigned
      in
      match status_token line with
      | "overloaded" ->
          (* the shard shed: back-pressure counts against its breaker,
             and the request moves down the ladder *)
          Breaker.failure s.s_breaker;
          health_success t s; (* it answered; the shard is alive *)
          fail_over t d rid s "overloaded"
      | _ ->
          (* ok / degraded / error: a definitive answer — forward it.
             Errors are deterministic (same block, same parse), so a
             replica would only repeat them. *)
          Hashtbl.remove t.pending rid;
          s.inflight <- Int.max 0 (s.inflight - 1);
          s.answered <- s.answered + 1;
          t.shard_answers <- t.shard_answers + 1;
          Breaker.success s.s_breaker;
          health_success t s;
          finish_data t d (rewrite_id line ~rid ~orig:d.orig_id))

let tick t =
  let now = t.clock.Clock.now () in
  (* reply deadlines: the FIFO is sorted (constant budget, monotonic
     sends); stale rids — answered or already failed over — are skipped *)
  let rec drain_deadlines () =
    match Queue.peek_opt t.deadlines with
    | Some (dl, rid) when dl <= now -> (
        ignore (Queue.pop t.deadlines);
        match Hashtbl.find_opt t.pending rid with
        | Some (Data d) when d.deadline <= now ->
            let s = get_shard t d.assigned in
            s.timeouts <- s.timeouts + 1;
            Breaker.failure s.s_breaker;
            health_failure t s;
            fail_over t d rid s "timeout";
            drain_deadlines ()
        | _ -> drain_deadlines ())
    | _ -> ()
  in
  drain_deadlines ();
  (* probes and ejection timers *)
  List.iter
    (fun (_, s) ->
      (match s.probe_pending with
      | Some (rid, dl) when dl <= now ->
          Hashtbl.remove t.pending rid;
          s.probe_pending <- None;
          t.probe_failures <- t.probe_failures + 1;
          health_failure t s
      | _ -> ());
      (match Health.tick s.s_health ~now with
      | `Changed st -> on_health_change t s st
      | `Unchanged -> ());
      if
        s.probe_pending = None
        && Health.probeable s.s_health
        && now -. s.last_probe >= t.cfg.probe_interval
      then probe_shard t s)
    t.shards;
  (* stats collections that ran out of budget answer with what arrived *)
  List.iter
    (fun c -> if c.c_waiting > 0 && c.c_deadline <= now then finish_collect t c)
    t.collects

let pending_data t = t.data_live

let request_drain t =
  if not t.is_draining then begin
    t.is_draining <- true;
    add_barrier t (fun _ -> t.is_stopped <- true)
  end

let draining t = t.is_draining
let stopped t = t.is_stopped

let set_link t name link =
  let s = get_shard t name in
  match link with
  | Some _ -> s.link <- link
  | None ->
      if Option.is_some s.link then begin
        Breaker.failure s.s_breaker;
        health_failure t s;
        lose_link t s
      end

let shard_names t = List.map fst t.shards
let ring_members t = Ring.members t.ring
let breaker t name = Option.map (fun s -> s.s_breaker) (find_shard t name)
let health_state t name =
  Option.map (fun s -> Health.state s.s_health) (find_shard t name)
