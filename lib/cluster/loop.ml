module Server = Dt_serve.Server
module Conn = Dt_serve.Conn

(* One outbound shard link, re-dialled on a retry cadence. *)
type link = {
  name : string;
  path : string;
  mutable conn : Conn.t option;
  mutable next_attempt : float;
}

let try_connect router link ~delay ~now =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  match Unix.connect fd (Unix.ADDR_UNIX link.path) with
  | () ->
      let c = Conn.create fd in
      link.conn <- Some c;
      Router.set_link router link.name (Some (Conn.send c))
  | exception Unix.Unix_error (_, _, _) ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      link.next_attempt <- now +. delay

(* A link found dead is closed, detached from the router (which fails
   over what was in flight on it) and re-dialled after [delay]. *)
let reap_link router link ~delay ~now =
  match link.conn with
  | Some c when not (Conn.alive c) ->
      Conn.close c;
      link.conn <- None;
      link.next_attempt <- now +. delay;
      Router.set_link router link.name None
  | Some _ | None -> ()

let run router ~listen ~shards ?(reconnect_delay = 0.2) ?on_tick () =
  Server.with_drain_signals @@ fun () ->
  let prev_sigpipe =
    try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
    with Invalid_argument _ -> None
  in
  if Sys.file_exists listen then Sys.remove listen;
  let srv = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let clients = ref [] in
  let links =
    List.map
      (fun (name, path) -> { name; path; conn = None; next_attempt = 0.0 })
      shards
  in
  let link_conns () = List.filter_map (fun l -> l.conn) links in
  Fun.protect
    ~finally:(fun () ->
      List.iter Conn.close !clients;
      List.iter Conn.close (link_conns ());
      (try Unix.close srv with Unix.Unix_error _ -> ());
      (try Sys.remove listen with Sys_error _ -> ());
      match prev_sigpipe with
      | Some h -> Sys.set_signal Sys.sigpipe h
      | None -> ())
    (fun () ->
      Unix.bind srv (Unix.ADDR_UNIX listen);
      Unix.listen srv 64;
      while not (Router.stopped router) do
        let now = Unix.gettimeofday () in
        if Server.drain_pending () then Router.request_drain router;
        List.iter
          (fun l ->
            if Option.is_none l.conn && l.next_attempt <= now then
              try_connect router l ~delay:reconnect_delay ~now)
          links;
        let shard_conns = link_conns () in
        let readable, writable =
          match
            Unix.select
              (* shard links are always read: the in-flight window
                 bounds what they can owe *)
              ((srv :: Conn.fds_where Conn.alive shard_conns)
              @ Conn.fds_where Conn.reading !clients)
              (Conn.fds_where Conn.has_output (shard_conns @ !clients))
              [] 0.02
          with
          | r, w, _ -> (r, w)
          | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
        in
        List.iter
          (fun c -> if List.mem (Conn.fd c) writable then Conn.flush c)
          (shard_conns @ !clients);
        List.iter
          (fun l ->
            match l.conn with
            | Some c when List.mem (Conn.fd c) readable ->
                List.iter
                  (fun line ->
                    if String.trim line <> "" then
                      Router.on_shard_line router ~shard:l.name ~line)
                  (Conn.read c)
            | Some _ | None -> ())
          links;
        (* detach dead links before routing new work to them *)
        List.iter (reap_link router ~delay:reconnect_delay ~now) links;
        List.iter
          (fun c ->
            if List.mem (Conn.fd c) readable then
              List.iter
                (fun line ->
                  if String.trim line <> "" then
                    Router.submit router ~line ~respond:(fun l ->
                        ignore (Conn.send c l)))
                (Conn.read c))
          !clients;
        if List.mem srv readable then begin
          match Unix.accept srv with
          | fd, _ -> clients := Conn.create fd :: !clients
          | exception Unix.Unix_error _ -> ()
        end;
        Router.tick router;
        (match on_tick with Some f -> f now | None -> ());
        let live, dead = List.partition Conn.alive !clients in
        List.iter Conn.close dead;
        clients := live
      done;
      Conn.flush_all !clients)
