(** One non-blocking, newline-delimited stream connection.

    Both select loops — the shard's {!Server.serve_socket} and the
    router's [Dt_cluster.Loop] — own every socket through a [t]:

    - {b reads} split the byte stream into lines; a line split across
      two reads is reassembled;
    - {b sends} queue the line and write it with [Unix.single_write],
      one system call whose byte count is exact.  A full socket
      ([EAGAIN]) keeps the unsent bytes queued for the next {!flush};
      [EINTR] retries.  Any other error ([EPIPE], [ECONNRESET], ...)
      marks the peer dead and drops its queued bytes — the only
      delivery a dead peer can have.  A send never blocks and never
      raises (with [SIGPIPE] ignored, as both loops do), so a peer that
      stops reading can only stall itself;
    - {b close} is idempotent; a send after it is dropped.

    The loops select on {!fd} for reading while {!reading} holds and
    for writing while {!has_output} holds, and call {!flush} when the
    socket is writable. *)

type t

(** [create fd] takes ownership of a connected stream socket and makes
    it non-blocking. *)
val create : Unix.file_descr -> t

val fd : t -> Unix.file_descr

(** Open and the peer not known to be gone. *)
val alive : t -> bool

(** [read t] — one read from a socket the loop found readable; returns
    the complete lines received, without their ['\n'].  End of stream or
    a read error marks [t] dead. *)
val read : t -> string list

(** [send t line] queues [line] plus ['\n'] and writes what the socket
    takes now.  [false] when [t] is dead or closed: the line is
    dropped. *)
val send : t -> string -> bool

(** Write as much queued output as the socket accepts now. *)
val flush : t -> unit

(** Queued output not yet accepted by the socket. *)
val has_output : t -> bool

(** Alive and no more than 1 MiB of output queued.  A loop stops
    reading a peer that does not read its replies, so the peer gets
    backpressure instead of unbounded buffering. *)
val reading : t -> bool

(** [fds_where p ts] — the sockets of the [ts] satisfying [p], for a
    select set. *)
val fds_where : (t -> bool) -> t list -> Unix.file_descr list

(** Close the socket; further sends are dropped.  Idempotent. *)
val close : t -> unit

(** [flush_all ts] — select-and-flush until no live [t] has queued
    output, for at most 1 s (under the fleet's default 2 s grace between
    [SIGTERM] and [SIGKILL]).  Used on exit, so the answers to a drain
    reach their peers before the sockets close. *)
val flush_all : t list -> unit
