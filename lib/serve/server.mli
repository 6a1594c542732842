(** Transport front-ends for {!Runtime}: newline-delimited protocol over
    stdin/stdout or a Unix-domain socket.

    Both loops share the runtime's semantics: a line is admitted with
    {!Runtime.submit} as soon as it arrives, and queued predictions are
    evaluated in admission order.  A [shutdown] request drains,
    acknowledges, and stops the loop.

    {b When a socket shard evaluates}: whenever work is queued.  While
    {!Runtime.pending} is positive the select loop polls without
    waiting and runs one {!Runtime.drain} (at most [batch] requests)
    every round, so a lone request is answered after its own
    simulation, not after a batch fills.  Requests that arrive while a
    batch runs join the next one, so batches still fill under load.
    {b Socket writes never block}: every connection is a {!Conn.t},
    whose replies queue when the peer's socket is full and flush when it
    becomes writable.  A client with more than 1 MiB of unread replies
    is not read until it catches up, so a peer that stops reading stalls
    only itself.  On exit, queued replies get up to 1 s to reach their
    peers ({!Conn.flush_all}).

    {b Stdio} keeps fixed batch boundaries: it evaluates when [batch]
    predictions are queued and at end of input, so request ordinals map
    to batches deterministically (the lifecycle hot-swap drills rely on
    it).  An interactive stdio client sends [flush] to have a partial
    batch answered.

    {b Graceful drain}: both loops install [SIGTERM]/[SIGINT] handlers
    (saved and restored on exit) that flip a flag; at the next loop
    iteration the server stops admitting, answers every already-admitted
    request on its still-open connection, emits one final stats line via
    {!Dt_util.Log.status}, and returns normally — so a supervised stop
    exits 0 without dropping accepted work.  In socket mode the flag is
    seen within one idle select tick (≤ 20 ms); in stdio mode at the
    next input line or EOF.

    {b Cluster fault sites} ({!Dt_util.Faultsim}), armed per shard via a
    fleet spec: [cluster.shard_crash] kills the process abruptly
    ([Unix._exit 70], stale socket left behind), [cluster.net_partition]
    keeps the daemon accepting and reading but never replying from the
    armed hit on, [cluster.slow_shard] stalls one request for
    [DIFFTUNE_SLOW_SHARD_S] seconds (default 0.75) so its reply lands
    after the router has failed over. *)

(** [with_drain_signals f] — run [f] with the [SIGTERM]/[SIGINT] drain
    handlers installed (restored afterwards).  Exposed so other serving
    loops — the cluster router ({!Dt_cluster}) — share the same drain
    discipline. *)
val with_drain_signals : (unit -> 'a) -> 'a

(** Whether a drain signal has arrived since {!with_drain_signals}
    (re)installed the handlers. *)
val drain_pending : unit -> bool

(** [serve_channels rt ic oc] — serve until EOF on [ic], a [shutdown]
    request, or a drain signal.  Responses are written (and flushed) to
    [oc] one line each. *)
val serve_channels : Runtime.t -> in_channel -> out_channel -> unit

(** [serve_socket rt ~path] — bind a Unix-domain socket at [path]
    (replacing a stale file), accept any number of concurrent clients in
    one select loop, and serve until some client sends [shutdown] or a
    drain signal arrives.  Responses go to the client that issued the
    request.  The socket file is removed on exit and the client sockets
    are closed, so replies a later {!Runtime.shutdown} drains are
    dropped; [SIGPIPE] is ignored for the duration. *)
val serve_socket : Runtime.t -> path:string -> unit
