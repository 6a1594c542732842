(** Declarative fleet supervision: launch N serve daemons plus the
    router from one JSON spec, restart crashed shards with capped
    backoff, and print an aggregated cluster report on exit.

    The spec is a single JSON object (all keys except [shards] and
    [socket_dir] optional — see {!Spec.example}):

    {v
    {
      "shards": 3,
      "socket_dir": "/tmp/difftune_fleet",
      "router_socket": "/tmp/difftune_fleet/router.sock",
      "replicas": 2,
      "vnodes": 64,
      "reply_budget_s": 0.25,
      "probe_interval_s": 0.5,
      "probe_budget_s": 0.25,
      "max_inflight": 64,
      "max_pending": 4096,
      "breaker": { "threshold": 3, "cooldown_s": 1.0 },
      "health": { "eject_after": 3, "rejoin_after": 2,
                  "cooldown_s": 1.0, "cooldown_cap_s": 30.0 },
      "uarch": "haswell",
      "serve": { "queue": 256, "batch": 16 },
      "restart": { "max": 5, "backoff_s": 0.2, "cap_s": 2.0,
                   "grace_s": 2.0 },
      "shard_faults": { "0": "cluster.shard_crash@40" }
    }
    v}

    [serve] holds extra flags passed to every [difftune serve] daemon
    verbatim ([{"queue": 256}] becomes [--queue 256]; a [true] value is
    a bare flag).  [shard_faults] maps shard indices to
    {!Dt_util.Faultsim} specs, passed as [--faults SPEC] to that daemon
    only: shards run in the supervisor's environment, and no other
    path arms them. *)

module Spec : sig
  type t = {
    shards : int;
    socket_dir : string;
    router_socket : string;
    uarch : Dt_refcpu.Uarch.uarch;
    router : Router.config;
    serve_flags : string list;
    shard_faults : (int * string) list;
    restart_max : int;      (** restarts per shard before giving up *)
    restart_backoff : float;(** first restart delay, seconds *)
    restart_cap : float;    (** restart-delay ceiling, seconds *)
    grace : float;          (** SIGTERM -> SIGKILL grace on shutdown *)
  }

  (** Raises [Invalid_argument] on a malformed spec. *)
  val of_json : Dt_util.Json.t -> t

  (** Parse [path]; [Dt_util.Json.Parse_error] / [Sys_error] on bad
      input. *)
  val load : string -> t

  (** A copy-paste spec (the one above). *)
  val example : string

  val shard_name : int -> string
  val shard_socket : t -> int -> string
end

(** [launch spec ~cli] — spawn the shards ([cli serve --socket ...]),
    run the router loop in this process until a [shutdown] request or
    drain signal, supervising the children the whole time (a crashed
    shard restarts after capped exponential backoff, at most
    [restart_max] times), then SIGTERM the fleet, escalate to SIGKILL
    after [grace], and print the final cluster report to stdout. *)
val launch : Spec.t -> cli:string -> unit
