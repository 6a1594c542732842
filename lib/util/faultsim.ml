exception Injected of string

type state = {
  mutable armed : (string * int) list; (* site, 1-based hit number *)
  counters : (string, int) Hashtbl.t;
}

let st = { armed = []; counters = Hashtbl.create 8 }
let m = Mutex.create ()

(* Fast path for the common case of no injection: checked without the
   lock so instrumented hot loops pay one atomic load. *)
let any_armed = Atomic.make false

let locked f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let reset_locked armed =
  st.armed <- armed;
  Hashtbl.reset st.counters;
  Atomic.set any_armed (armed <> [])

let parse spec =
  String.split_on_char ';' spec
  |> List.concat_map (String.split_on_char ',')
  |> List.filter_map (fun entry ->
         match String.trim entry with
         | "" -> None
         | entry -> (
             match String.index_opt entry '@' with
             | None -> Some (entry, 1)
             | Some i ->
                 let site = String.sub entry 0 i in
                 let num =
                   String.sub entry (i + 1) (String.length entry - i - 1)
                 in
                 (match (site, int_of_string_opt num) with
                 | "", _ | _, None ->
                     invalid_arg
                       (Printf.sprintf "Faultsim: malformed entry %S" entry)
                 | _, Some k when k < 1 ->
                     invalid_arg
                       (Printf.sprintf "Faultsim: hit number must be >= 1 in %S"
                          entry)
                 | site, Some k -> Some (site, k))))

let configure spec =
  let armed = parse spec in
  locked (fun () -> reset_locked armed)

let clear () = locked (fun () -> reset_locked [])

let arm site ~at =
  if at < 1 then invalid_arg "Faultsim.arm: hit number must be >= 1";
  locked (fun () ->
      st.armed <- (site, at) :: st.armed;
      Atomic.set any_armed true)

let fire site =
  if not (Atomic.get any_armed) then false
  else
    locked (fun () ->
        if st.armed = [] then false
        else begin
          let hit =
            1 + (Option.value ~default:0 (Hashtbl.find_opt st.counters site))
          in
          Hashtbl.replace st.counters site hit;
          List.exists (fun (s, k) -> s = site && k = hit) st.armed
        end)

let fire_exn site = if fire site then raise (Injected site)

let hits site =
  locked (fun () ->
      Option.value ~default:0 (Hashtbl.find_opt st.counters site))

let active () = Atomic.get any_armed
