(** The sharded-serving router: transport-agnostic core.

    One router fronts N serve daemons ("shards").  Every [predict]
    request is consistent-hashed by its block text onto a {!Ring} of
    the currently-routable shards and forwarded to the primary owner;
    if that shard times out, sheds, or has no usable link, the request
    {e fails over} along the ring's replica order — and when every
    owner is exhausted it falls through to the local analytic-bound
    backend, answered as [degraded ... via=shard_<name>:<reason>,...]
    so the caller can see the whole ladder.  A reply that arrives after
    its request failed over is discarded (exactly-once toward the
    client).

    The core is deliberately single-threaded and free of I/O: shard
    links are injected as [string -> bool] send closures
    ({!set_link}), replies are pushed in ({!on_shard_line}), and all
    time-based machinery — reply deadlines, health probes, breaker
    cooldowns, ejection hysteresis — advances in {!tick} on the
    injected {!Dt_serve.Clock.t}.  Tests drive the whole failover
    ladder with {!Dt_serve.Clock.manual} and in-memory links; the
    select transport in {!Loop} supplies real sockets.

    Per-shard machinery: a {!Dt_serve.Breaker.t} (opens after
    consecutive data-path failures, half-opens after cooldown), a
    {!Health.t} state machine driven by probe and data outcomes
    (routable shards form the ring; ejected shards rejoin through
    probation), a bounded in-flight window, and the last [ping] payload
    (protocol version, serving model version, queue depth) from the
    health prober. *)

type config = {
  vnodes : int;          (** ring points per shard *)
  replicas : int;        (** owners tried per key (primary + failovers) *)
  reply_budget : float;  (** seconds before an unanswered send fails over *)
  probe_interval : float;(** seconds between health probes per shard *)
  probe_budget : float;  (** seconds before an unanswered probe fails *)
  max_inflight : int;    (** per-shard in-flight window *)
  max_pending : int;     (** global admission bound; beyond it, shed *)
  breaker_threshold : int;
  breaker_cooldown : float;
  health : Health.config;
}

val default_config : config

type t

(** [create ?clock cfg ~uarch ~shards] — [shards] are the member names
    (sockets and links come later via {!set_link}).  All shards start
    [Up] and in the ring.  The local fallback backend is
    [Dt_serve.Backend.bound uarch]. *)
val create :
  ?clock:Dt_serve.Clock.t ->
  config -> uarch:Dt_refcpu.Uarch.uarch -> shards:string list -> t

(** [set_link t name send] — attach ([Some send]) or detach ([None])
    the transport for shard [name].  [send line] must deliver (or queue
    for delivery) one protocol line and report success; [false] (or
    detaching) makes the shard unavailable to the ladder.  Detaching
    counts one health and breaker failure (a lost connection {e is} a
    failure).  Both a detach and a [false] from [send] immediately fail
    over every request in flight on that shard — nothing waits out its
    reply budget against a dead link.  Unknown names raise
    [Invalid_argument]. *)
val set_link : t -> string -> (string -> bool) option -> unit

(** [submit t ~line ~respond] — admit one client line.  [respond]
    receives exactly one response line, now or during a later
    {!tick}/{!on_shard_line}.  Control verbs: [ping] answers with the
    router's own payload; [stats] fans out to every linked shard and
    answers one merged cluster report (numeric shard counters summed
    under [fleet.*], router counters under [router.*], per-shard state
    inline); [flush] is a barrier over the data requests in flight at
    submission; [shutdown] starts a drain — new predictions shed while
    it completes, then [ok shutdown] is sent and {!stopped} holds. *)
val submit : t -> line:string -> respond:(string -> unit) -> unit

(** [on_shard_line t ~shard ~line] — a response line read from
    [shard]'s connection.  Resolves the matching pending request or
    probe; unmatched ids (late replies after failover) are counted and
    discarded. *)
val on_shard_line : t -> shard:string -> line:string -> unit

(** Advance deadlines, probes, breaker cooldowns and ejection timers to
    the clock's current now.  Call once per event-loop iteration. *)
val tick : t -> unit

(** Data requests currently in flight (router-side). *)
val pending_data : t -> int

(** Begin a signal-initiated drain: stop admitting predictions, finish
    the ones in flight, then {!stopped}.  Idempotent. *)
val request_drain : t -> unit

val draining : t -> bool

(** The loop should exit: a shutdown/drain completed. *)
val stopped : t -> bool

(** Router-side counters and per-shard status, as [stats] pairs. *)
val stats_pairs : t -> (string * string) list

(** The router's own [ping] payload. *)
val ping_payload : t -> Dt_serve.Protocol.pong

(** Introspection for tests. *)

val shard_names : t -> string list
val ring_members : t -> string list
val breaker : t -> string -> Dt_serve.Breaker.t option
val health_state : t -> string -> Health.state option
