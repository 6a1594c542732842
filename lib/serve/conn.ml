type t = {
  fd : Unix.file_descr;
  chunk : Bytes.t; (* read scratch *)
  partial : Buffer.t; (* bytes received since the last '\n' *)
  queued : Buffer.t; (* output sent since [wbuf] was cut *)
  mutable wbuf : Bytes.t; (* output being written *)
  mutable woff : int; (* bytes of [wbuf] the socket has taken *)
  mutable alive : bool;
  mutable closed : bool;
}

let max_output = 1 lsl 20 (* queued bytes beyond which [reading] fails *)
let exit_flush_timeout = 1.0

let create fd =
  Unix.set_nonblock fd;
  {
    fd;
    chunk = Bytes.create 65536;
    partial = Buffer.create 256;
    queued = Buffer.create 256;
    wbuf = Bytes.empty;
    woff = 0;
    alive = true;
    closed = false;
  }

let fd t = t.fd
let alive t = t.alive
let output_bytes t = Bytes.length t.wbuf - t.woff + Buffer.length t.queued
let has_output t = t.alive && output_bytes t > 0
let reading t = t.alive && output_bytes t <= max_output

let fds_where p ts =
  List.filter_map (fun t -> if p t then Some t.fd else None) ts

(* The peer is gone: nothing queued for it can be delivered. *)
let kill t =
  t.alive <- false;
  Buffer.reset t.queued;
  t.wbuf <- Bytes.empty;
  t.woff <- 0

let rec flush t =
  if t.alive then begin
    if t.woff = Bytes.length t.wbuf && Buffer.length t.queued > 0 then begin
      t.wbuf <- Buffer.to_bytes t.queued;
      t.woff <- 0;
      Buffer.clear t.queued
    end;
    let len = Bytes.length t.wbuf - t.woff in
    if len > 0 then
      match Unix.single_write t.fd t.wbuf t.woff len with
      | n ->
          t.woff <- t.woff + n;
          flush t
      | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> flush t
      | exception Unix.Unix_error _ -> kill t
  end

let send t line =
  t.alive
  && begin
       (* Output already queued means the socket was full: leave the
          write to the loop's next writable [flush]. *)
       let idle = output_bytes t = 0 in
       Buffer.add_string t.queued line;
       Buffer.add_char t.queued '\n';
       if idle then flush t;
       t.alive
     end

let read t =
  if not t.alive then []
  else
    match Unix.read t.fd t.chunk 0 (Bytes.length t.chunk) with
    | 0 ->
        kill t;
        []
    | n ->
        let lines = ref [] and start = ref 0 in
        for i = 0 to n - 1 do
          if Bytes.get t.chunk i = '\n' then begin
            Buffer.add_subbytes t.partial t.chunk !start (i - !start);
            lines := Buffer.contents t.partial :: !lines;
            Buffer.clear t.partial;
            start := i + 1
          end
        done;
        Buffer.add_subbytes t.partial t.chunk !start (n - !start);
        List.rev !lines
    | exception
        Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
        []
    | exception Unix.Unix_error _ ->
        kill t;
        []

let close t =
  if not t.closed then begin
    t.closed <- true;
    kill t;
    try Unix.close t.fd with Unix.Unix_error _ -> ()
  end

let flush_all ts =
  let deadline = Unix.gettimeofday () +. exit_flush_timeout in
  let rec go () =
    let waiting = List.filter has_output ts in
    let left = deadline -. Unix.gettimeofday () in
    if waiting <> [] && left > 0.0 then begin
      (try ignore (Unix.select [] (List.map fd waiting) [] left)
       with Unix.Unix_error (Unix.EINTR, _, _) -> ());
      List.iter flush waiting;
      go ()
    end
  in
  go ()
