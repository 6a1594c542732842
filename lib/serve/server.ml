module Faultsim = Dt_util.Faultsim

(* ---- graceful drain ----

   SIGTERM/SIGINT set a flag (async-signal-safe: the handler only
   stores); the serve loops poll it at their next iteration, stop
   admitting, answer everything already admitted, emit one final stats
   line and return normally — so a supervisor-initiated stop never
   drops a request that was accepted.  Handlers are saved and restored
   around each loop so embedding a runtime in a larger process (tests,
   the cluster fleet) does not leak them. *)

let drain_requested = Atomic.make false

let drain_pending () = Atomic.get drain_requested

let with_drain_signals f =
  Atomic.set drain_requested false;
  let install s =
    try Some (Sys.signal s (Sys.Signal_handle (fun _ -> Atomic.set drain_requested true)))
    with Invalid_argument _ | Sys_error _ -> None (* platform without it *)
  in
  let prev_term = install Sys.sigterm in
  let prev_int = install Sys.sigint in
  Fun.protect
    ~finally:(fun () ->
      let restore s prev =
        match prev with
        | Some h -> ( try Sys.set_signal s h with Invalid_argument _ | Sys_error _ -> ())
        | None -> ()
      in
      restore Sys.sigterm prev_term;
      restore Sys.sigint prev_int)
    f

(* One line summarizing what the drained daemon did, for the operator's
   log; the full per-lane breakdown stays behind the [stats] verb. *)
let final_stats_line rt ~drained =
  let pairs = Runtime.stats_pairs rt in
  let get k = match List.assoc_opt k pairs with Some v -> v | None -> "0" in
  Dt_util.Log.status
    "serve: drained (in_flight_flushed=%d received=%s answered=%s ok=%s \
     degraded=%s failed=%s overloaded=%s)"
    drained (get "received") (get "answered") (get "ok") (get "degraded")
    (get "failed") (get "overloaded")

(* ---- cluster fault sites ----

   Three deterministic shard pathologies for the router's failover
   ladder, armed per shard by [--faults] from its fleet spec entry:

   - [cluster.shard_crash]: the process dies abruptly (no drain, no
     socket-file cleanup) — a SIGKILL-class loss the supervisor must
     restart and the router must fail over;
   - [cluster.net_partition]: from the armed hit on, the daemon keeps
     accepting connections and reading bytes but never replies — the
     half-open-connection partition that only timeouts can detect;
   - [cluster.slow_shard]: one request stalls the daemon past any
     reasonable router budget ([slow_shard_delay] seconds) — the reply
     eventually arrives *after* the router has failed over, exercising
     late-reply discard. *)

let slow_shard_delay = 0.75

let fire_cluster_faults ~partitioned () =
  (* [Unix._exit]: no at_exit, no finalizers — the socket file stays
     behind exactly as a SIGKILL would leave it. *)
  if Faultsim.fire "cluster.shard_crash" then Unix._exit 70;
  if Faultsim.fire "cluster.net_partition" then partitioned := true;
  if Faultsim.fire "cluster.slow_shard" then
    Unix.sleepf slow_shard_delay

(* ---- stdio ---- *)

let serve_channels rt ic oc =
  with_drain_signals @@ fun () ->
  let respond line =
    output_string oc line;
    output_char oc '\n';
    flush oc
  in
  let batch = (Runtime.config rt).Runtime.batch in
  let partitioned = ref false in
  let drain () = final_stats_line rt ~drained:(Runtime.drain_all rt) in
  let rec loop () =
    if Atomic.get drain_requested then drain ()
    else
      match input_line ic with
      | exception End_of_file -> ignore (Runtime.drain_all rt)
      | line ->
          if String.trim line = "" then loop ()
          else begin
            fire_cluster_faults ~partitioned ();
            if !partitioned then loop ()
            else
              match Runtime.submit rt ~line ~respond with
              | `Shutdown -> ()
              | `Ok ->
                  if Runtime.pending rt >= batch then Runtime.drain rt;
                  loop ()
          end
  in
  loop ()

(* ---- Unix-domain socket ---- *)

(* The select timeout with nothing queued: how long a drain signal that
   lands just before the select can go unseen. *)
let idle_tick = 0.02

let serve_socket rt ~path =
  with_drain_signals @@ fun () ->
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None (* platform without sigpipe *)
  in
  if Sys.file_exists path then Sys.remove path;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let clients = ref [] in
  let stop = ref false in
  let partitioned = ref false in
  Fun.protect
    ~finally:(fun () ->
      (* closed connections drop the replies a later [Runtime.shutdown]
         drains into them *)
      List.iter Conn.close !clients;
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Sys.remove path with Sys_error _ -> ());
      match prev_sigpipe with
      | Some h -> Sys.set_signal Sys.sigpipe h
      | None -> ())
    (fun () ->
      Unix.bind srv (Unix.ADDR_UNIX path);
      Unix.listen srv 16;
      let handle_line client line =
        if String.trim line <> "" then begin
          fire_cluster_faults ~partitioned ();
          if not !partitioned then
            match
              Runtime.submit rt ~line ~respond:(fun l ->
                  ignore (Conn.send client l))
            with
            | `Shutdown -> stop := true
            | `Ok -> ()
        end
      in
      while (not !stop) && not (Atomic.get drain_requested) do
        (* Work-conserving: with requests queued, poll without waiting
           and evaluate one batch per round.  Requests that arrive while
           a batch runs join the next one, so batches still fill under
           load. *)
        let timeout = if Runtime.pending rt > 0 then 0.0 else idle_tick in
        let readable, writable =
          match
            Unix.select
              (srv :: Conn.fds_where Conn.reading !clients)
              (Conn.fds_where Conn.has_output !clients)
              [] timeout
          with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun c -> if List.mem (Conn.fd c) writable then Conn.flush c)
          !clients;
        List.iter
          (fun c ->
            if List.mem (Conn.fd c) readable then
              List.iter (handle_line c) (Conn.read c))
          !clients;
        if List.mem srv readable then begin
          match Unix.accept srv with
          | fd, _ -> clients := Conn.create fd :: !clients
          | exception Unix.Unix_error _ -> ()
        end;
        if Runtime.pending rt > 0 then Runtime.drain rt;
        let live, dead = List.partition Conn.alive !clients in
        List.iter Conn.close dead;
        clients := live
      done;
      if Atomic.get drain_requested then begin
        (* Graceful drain: stop accepting (the listener is closed by the
           finalizer and no further client bytes are read), answer every
           admitted request over the still-open client connections, and
           leave a one-line trace.  The loop then exits 0 normally. *)
        final_stats_line rt ~drained:(Runtime.drain_all rt)
      end
      else ignore (Runtime.drain_all rt);
      Conn.flush_all !clients)
