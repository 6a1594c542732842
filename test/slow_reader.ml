(* The slow-reader check shared by the serving and fleet smokes.

   Connection [a] sends [n] pings and reads nothing, so the server's
   replies to it pile up.  Connection [b]'s ping must still be answered
   within [b_budget] seconds: a server that blocks writing to [a] (or
   buffers without bound) fails here.  Then [a] reads and must receive
   exactly one pong per ping.  Both sockets end in blocking mode with
   nothing left unread, so the caller can keep using them. *)

let now = Unix.gettimeofday

type reader = {
  fd : Unix.file_descr;
  partial : Buffer.t;
  chunk : Bytes.t;
}

let reader fd = { fd; partial = Buffer.create 256; chunk = Bytes.create 65536 }

(* One non-blocking read; complete lines go to [on_line].  [false] at
   end of stream. *)
let read_some r on_line =
  match Unix.read r.fd r.chunk 0 (Bytes.length r.chunk) with
  | 0 -> false
  | n ->
      for i = 0 to n - 1 do
        match Bytes.get r.chunk i with
        | '\n' ->
            on_line (Buffer.contents r.partial);
            Buffer.clear r.partial
        | ch -> Buffer.add_char r.partial ch
      done;
      true
  | exception
      Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
      true

(* Write [s] from [!off] until done, [deadline], or [keep_going] says
   stop; also reads [r] when given, so a peer that answers while we
   write is drained. *)
let pump ?r ?(on_line = ignore) ~deadline ~keep_going fd s off =
  let len = String.length s in
  let open_ = ref true in
  while !open_ && keep_going () && now () < deadline do
    let wr = if !off < len then [ fd ] else [] in
    let rd = match r with Some r -> [ r.fd ] | None -> [] in
    if wr = [] && rd = [] then open_ := false
    else begin
      let rd', wr', _ =
        try Unix.select rd wr [] (Float.max 0.0 (deadline -. now ()))
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      (if wr' <> [] then
         match Unix.single_write_substring fd s !off (len - !off) with
         | k -> off := !off + k
         | exception
             Unix.Unix_error
               ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) ->
             ());
      match r with
      | Some r when rd' <> [] ->
          if not (read_some r on_line) then open_ := false
      | Some _ | None -> ()
    end
  done

let id_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let run ~fail ?(n = 20_000) ?(b_budget = 3.0) ~a ~b () =
  Unix.set_nonblock a;
  Unix.set_nonblock b;
  let pings =
    String.concat "" (List.init n (fun i -> Printf.sprintf "a%d ping\n" i))
  in
  let a_off = ref 0 in
  pump ~deadline:(now () +. 10.0) ~keep_going:(fun () -> true) a pings a_off;
  if !a_off < String.length pings then
    fail
      (Printf.sprintf "only %d of %d ping bytes accepted in 10 s"
         !a_off (String.length pings));
  (* b asks while a's replies are stuck *)
  let rb = reader b in
  let b_lines = ref [] in
  let b_line l = b_lines := l :: !b_lines in
  let t0 = now () in
  pump ~r:rb ~on_line:b_line ~deadline:(t0 +. b_budget)
    ~keep_going:(fun () -> !b_lines = [])
    b "b ping\n" (ref 0);
  if !b_lines = [] then
    fail
      (Printf.sprintf
         "b's ping not answered within %.1f s while a reads nothing"
         b_budget);
  (* a reads at last: exactly one pong per ping *)
  let seen = Array.make n 0 and a_lines = ref 0 and stray = ref 0 in
  let a_line l =
    incr a_lines;
    let id = id_of l in
    let index =
      if String.length id > 1 && id.[0] = 'a' then
        int_of_string_opt (String.sub id 1 (String.length id - 1))
      else None
    in
    match index with
    | Some i when i >= 0 && i < n -> seen.(i) <- seen.(i) + 1
    | Some _ | None -> incr stray
  in
  pump ~r:(reader a) ~on_line:a_line ~deadline:(now () +. 30.0)
    ~keep_going:(fun () -> !a_lines < n)
    a pings a_off;
  if !a_lines <> n || !stray > 0 then
    fail (Printf.sprintf "a got %d replies (%d stray) for %d pings"
            !a_lines !stray n);
  let wrong =
    Array.fold_left (fun acc k -> if k <> 1 then acc + 1 else acc) 0 seen
  in
  if wrong > 0 then
    fail (Printf.sprintf "%d of a's pings not answered exactly once" wrong);
  (* a late answer to b still arrives, and only once *)
  if !b_lines = [] then
    pump ~r:rb ~on_line:b_line ~deadline:(now () +. 10.0)
      ~keep_going:(fun () -> !b_lines = [])
      b "" (ref 0);
  (match !b_lines with
  | [ l ] when id_of l = "b" -> ()
  | ls -> fail (Printf.sprintf "b got %S" (String.concat "|" ls)));
  Unix.clear_nonblock a;
  Unix.clear_nonblock b
