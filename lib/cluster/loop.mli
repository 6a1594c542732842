(** The router's socket transport: one select loop over the client
    listener, every client connection, and one outbound connection per
    shard.

    Responsibilities split: {!Router} owns all routing/failover/health
    decisions; this loop only moves bytes — it accepts clients, feeds
    their lines to {!Router.submit}, feeds shard replies to
    {!Router.on_shard_line}, (re)establishes shard connections with a
    short retry cadence (handing each live connection to the router as
    a send closure), calls {!Router.tick} every iteration, and exits
    when {!Router.stopped} holds.  [SIGTERM]/[SIGINT] start a graceful
    drain via {!Router.request_drain} (handlers shared with
    {!Dt_serve.Server}).

    Every socket is a non-blocking {!Dt_serve.Conn.t}, as in a shard,
    so no write blocks the loop.  A client with more than 1 MiB of
    unread replies is not read until it catches up; shard links are
    always read, because the router's in-flight window bounds what they
    can owe.  A link found dead is closed and detached
    ({!Router.set_link} [None]) and re-dialled after [reconnect_delay].
    After the loop stops, queued client replies (the [ok shutdown] among
    them) get up to 1 s to drain ({!Dt_serve.Conn.flush_all}).

    [on_tick now] runs once per iteration — the fleet supervisor hooks
    child reaping and restarts into it. *)

val run :
  Router.t ->
  listen:string ->
  shards:(string * string) list ->
  (* (shard name, socket path); must cover {!Router.shard_names} *)
  ?reconnect_delay:float ->
  ?on_tick:(float -> unit) ->
  unit ->
  unit
