(* Serving smoke driver for `make serve-smoke` and `dune runtest`.

   Spawns the real `difftune_cli serve` daemon (stdio and Unix-socket
   transports) under armed fault injections — worker crashes, a
   pathologically slow block, corrupted input — and checks the
   resilience contract from the outside: every request id is answered
   exactly once (success, labeled degraded fallback, or structured
   error), nothing is dropped, nothing crashes, and the process exits
   cleanly after `shutdown`. *)

let cli =
  if Array.length Sys.argv < 2 then begin
    print_endline "usage: serve_smoke <path-to-difftune_cli>";
    exit 2
  end
  else Sys.argv.(1)

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "serve_smoke: FAIL %s\n%!" s)
    fmt

let asm = "addq %rax, %rbx"

(* Spawn `serve` with its faults and serving-pool size as flags.  The
   startup fit and every lifecycle retrain size their pool from
   DIFFTUNE_DOMAINS, which the daemon inherits pinned to the same count,
   so a scenario's retrains run at its domain count on any machine. *)
let spawn_serve ~faults ~domains args stdin stdout stderr =
  let faults = if faults = "" then [] else [ "--faults"; faults ] in
  let argv =
    Array.of_list
      ([ cli; "serve"; "--domains"; string_of_int domains ] @ faults @ args)
  in
  Testkit.with_domains domains (fun () ->
      Unix.create_process cli argv stdin stdout stderr)

let read_all_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

let wait_clean name pid =
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> failf "%s: daemon exited with code %d" name c
  | _, Unix.WSIGNALED s -> failf "%s: daemon killed by signal %d" name s
  | _, Unix.WSTOPPED s -> failf "%s: daemon stopped by signal %d" name s

(* Run one stdio scenario: write [requests], collect every response
   line, reap the daemon, and hand the lines to [checks]. *)
let stdio_scenario name ~faults ~domains ~args ~requests checks =
  Printf.printf "serve_smoke: scenario %s (faults=%S)\n%!" name faults;
  let in_r, in_w = Unix.pipe ~cloexec:false () in
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let pid = spawn_serve ~faults ~domains args in_r out_w Unix.stderr in
  Unix.close in_r;
  Unix.close out_w;
  let oc = Unix.out_channel_of_descr in_w in
  List.iter
    (fun line ->
      output_string oc line;
      output_char oc '\n')
    requests;
  flush oc;
  close_out oc;
  let ic = Unix.in_channel_of_descr out_r in
  let lines = read_all_lines ic in
  close_in ic;
  wait_clean name pid;
  checks lines;
  lines

let id_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* The exactly-once contract: every expected id answered once, no
   stray or duplicate responses. *)
let check_ids name expected lines =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun line ->
      let id = id_of line in
      Hashtbl.replace seen id (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
    lines;
  List.iter
    (fun id ->
      match Hashtbl.find_opt seen id with
      | Some 1 -> ()
      | Some n -> failf "%s: id %s answered %d times" name id n
      | None -> failf "%s: id %s never answered" name id)
    expected;
  if List.length lines <> List.length expected then
    failf "%s: %d responses for %d requests" name (List.length lines)
      (List.length expected)

let find name lines id =
  match List.find_opt (fun l -> id_of l = id) lines with
  | Some l -> l
  | None ->
      failf "%s: no response for id %s" name id;
      ""

let expect name lines id ~affix =
  let l = find name lines id in
  if not (contains ~affix l) then failf "%s: %s: wanted %S in %S" name id affix l

(* ---- scenario A: worker crashes exhaust retries, breaker opens ---- *)

let scenario_crash () =
  let name = "crash-degrade" in
  let requests =
    [
      "r1 predict " ^ asm;
      "r2 predict " ^ asm;
      "r3 predict " ^ asm;
      "r4 predict " ^ asm;
      "m1 predict";
      "z shutdown";
    ]
  in
  let lines =
    stdio_scenario name
      ~faults:"serve.worker_crash@1;serve.worker_crash@2;serve.worker_crash@3"
      ~domains:1
      ~args:[ "--queue"; "32"; "--batch"; "4"; "--retries"; "2"; "--seed"; "3" ]
      ~requests
      (check_ids name [ "r1"; "r2"; "r3"; "r4"; "m1"; "z" ])
  in
  (* r1 absorbs all three injected crashes (2 retries + final attempt),
     falls back to the analytic bound; the three consecutive failures
     open the mca breaker, so r2..r4 are served via breaker_open. *)
  expect name lines "r1" ~affix:"degraded";
  expect name lines "r1" ~affix:"backend=bound via=mca:worker_fault";
  List.iter
    (fun id -> expect name lines id ~affix:"backend=bound via=mca:breaker_open")
    [ "r2"; "r3"; "r4" ];
  expect name lines "m1" ~affix:"error kind=malformed";
  expect name lines "z" ~affix:"ok shutdown"

(* ---- scenario B: a pathologically slow block hits the deadline ---- *)

let scenario_slow_block () =
  let name = "slow-block" in
  let requests =
    [
      "p1 predict " ^ asm;
      "p2 predict " ^ asm;
      "p3 predict " ^ asm;
      "z shutdown";
    ]
  in
  let lines =
    stdio_scenario name ~faults:"serve.slow_block@2" ~domains:1
      ~args:[ "--batch"; "2"; "--cycle-budget"; "50000" ]
      ~requests
      (check_ids name [ "p1"; "p2"; "p3"; "z" ])
  in
  expect name lines "p1" ~affix:"ok cycles=";
  expect name lines "p1" ~affix:"backend=mca";
  expect name lines "p2" ~affix:"degraded";
  expect name lines "p2" ~affix:"backend=bound via=mca:deadline";
  expect name lines "p3" ~affix:"ok cycles="

(* ---- scenario C: injected input corruption stays attributable ---- *)

let scenario_malformed_input () =
  let name = "malformed-input" in
  let requests =
    [ "m1 predict " ^ asm; "m2 predict " ^ asm; "z shutdown" ]
  in
  let lines =
    stdio_scenario name ~faults:"serve.malformed_input@2" ~domains:1
      ~args:[ "--batch"; "2" ] ~requests
      (check_ids name [ "m1"; "m2"; "z" ])
  in
  expect name lines "m1" ~affix:"ok cycles=";
  (* the corrupted line keeps its id, so the structured error reaches
     the caller that sent it *)
  expect name lines "m2" ~affix:"error kind=parse"

(* ---- scenario D: a full queue sheds explicitly, never drops ---- *)

let scenario_overload () =
  let name = "overload" in
  let requests =
    [
      "o1 predict " ^ asm;
      "o2 predict " ^ asm;
      "o3 predict " ^ asm;
      "o4 predict " ^ asm;
      "z shutdown";
    ]
  in
  let lines =
    stdio_scenario name ~faults:"" ~domains:1
      ~args:[ "--queue"; "2"; "--batch"; "32" ]
      ~requests
      (check_ids name [ "o1"; "o2"; "o3"; "o4"; "z" ])
  in
  expect name lines "o1" ~affix:"ok cycles=";
  expect name lines "o2" ~affix:"ok cycles=";
  expect name lines "o3" ~affix:"overloaded capacity=2";
  expect name lines "o4" ~affix:"overloaded capacity=2"

(* ---- scenario E: mixed load across parallel domains ---- *)

let scenario_mixed () =
  let name = "mixed" in
  let predicts = List.init 10 (fun i -> Printf.sprintf "d%d" (i + 1)) in
  let requests =
    List.map (fun id -> id ^ " predict " ^ asm) predicts
    @ [ "bad frobnicate"; "q ping"; "s stats"; "z shutdown" ]
  in
  let expected = predicts @ [ "bad"; "q"; "s"; "z" ] in
  let lines =
    stdio_scenario name
      ~faults:"serve.worker_crash@2;serve.slow_block@4" ~domains:2
      ~args:
        [
          "--batch"; "4"; "--cycle-budget"; "50000"; "--retries"; "1";
          "--breaker-threshold"; "100";
        ]
      ~requests (check_ids name expected)
  in
  (* With two domains the crash/slow hits land on nondeterministic
     requests; the contract is that every predict still gets a success
     or a labeled fallback — never a drop, never an unlabeled value. *)
  List.iter
    (fun id ->
      let l = find name lines id in
      if
        not
          (contains ~affix:"ok cycles=" l
          || (contains ~affix:"degraded cycles=" l && contains ~affix:"via=" l))
      then failf "%s: %s not answered with ok/labeled-degraded: %S" name id l)
    predicts;
  expect name lines "bad" ~affix:"error kind=malformed";
  expect name lines "q" ~affix:"pong";
  expect name lines "s" ~affix:"stats received=";
  expect name lines "z" ~affix:"ok shutdown"

(* ---- scenario F: Unix-domain socket, two interleaved clients ---- *)

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then begin
          failf "socket: daemon never came up at %s" path;
          exit 1
        end;
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let send fd line =
  ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1))

let recv_lines name ic n =
  let rec go acc k =
    if k = 0 then List.rev acc
    else
      match input_line ic with
      | line -> go (line :: acc) (k - 1)
      | exception End_of_file ->
          failf "%s: eof after %d of %d lines" name (n - k) n;
          List.rev acc
  in
  go [] n

(* Spawn `serve --socket` with [args]; returns the pid and socket path. *)
let socket_daemon name args =
  Printf.printf "serve_smoke: scenario %s\n%!" name;
  let path =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_serve_smoke_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let pid =
    spawn_serve ~faults:"" ~domains:1 ("--socket" :: path :: args) Unix.stdin
      Unix.stdout Unix.stderr
  in
  (pid, path)

(* Shut the daemon down over [fd]/[ic] and reap it. *)
let socket_shutdown name pid path fd ic =
  send fd "z shutdown";
  expect name (recv_lines name ic 1) "z" ~affix:"ok shutdown";
  wait_clean name pid;
  if Sys.file_exists path then failf "%s: socket file left behind" name

let scenario_socket () =
  let name = "socket" in
  let pid, path = socket_daemon name [ "--batch"; "2" ] in
  let c1 = connect_with_retry path in
  let c2 = connect_with_retry path in
  (* one buffered channel per connection, reused across reads, so no
     bytes are stranded in an abandoned buffer *)
  let ic1 = Unix.in_channel_of_descr c1 and ic2 = Unix.in_channel_of_descr c2 in
  let recv_lines = recv_lines name in
  send c1 ("a1 predict " ^ asm);
  send c2 ("b1 predict " ^ asm);
  send c1 ("a2 predict " ^ asm);
  send c2 "b2 ping";
  let la = recv_lines ic1 2 in
  let lb = recv_lines ic2 2 in
  (* responses are routed to the connection that asked *)
  check_ids (name ^ "/c1") [ "a1"; "a2" ] la;
  check_ids (name ^ "/c2") [ "b1"; "b2" ] lb;
  expect name la "a1" ~affix:"ok cycles=";
  expect name lb "b2" ~affix:"pong";
  socket_shutdown name pid path c1 ic1;
  Unix.close c1;
  Unix.close c2

(* ---- scenario G: sequential round trips are not held for a batch ----

   A shard evaluates as soon as work is admitted, so one client waiting
   on each answer before it sends the next sees simulation time, not a
   select tick per request. *)

let scenario_serial () =
  let name = "serial-roundtrip" in
  let pid, path = socket_daemon name [ "--batch"; "16" ] in
  let fd = connect_with_retry path in
  let ic = Unix.in_channel_of_descr fd in
  let roundtrip id =
    send fd (id ^ " predict " ^ asm);
    recv_lines name ic 1
  in
  (* untimed: the block's first simulation *)
  ignore (roundtrip "w");
  let ids = List.init 20 (Printf.sprintf "s%d") in
  let t0 = Unix.gettimeofday () in
  let lines = List.concat_map roundtrip ids in
  let ms = 1000.0 *. (Unix.gettimeofday () -. t0) in
  Printf.printf "serve_smoke: %s: 20 sequential predicts in %.1f ms\n%!" name
    ms;
  check_ids name ids lines;
  List.iter (fun id -> expect name lines id ~affix:"ok cycles=") ids;
  if ms >= 200.0 then
    failf "%s: 20 sequential predicts took %.0f ms (limit 200 ms)" name ms;
  socket_shutdown name pid path fd ic;
  Unix.close fd

(* ---- scenario H: a client that never reads stalls only itself ---- *)

let scenario_slow_reader () =
  let name = "slow-reader" in
  let pid, path = socket_daemon name [] in
  let a = connect_with_retry path in
  let b = connect_with_retry path in
  Slow_reader.run ~fail:(failf "%s: %s" name) ~a ~b ();
  socket_shutdown name pid path b (Unix.in_channel_of_descr b);
  Unix.close a;
  Unix.close b

(* ---- lifecycle scenarios ----

   The daemon runs with a lifecycle-managed surrogate: a tiny model
   trained at startup (--train-surrogate --corpus 24), every request
   shadow-scored (--shadow-every 1), 4-score windows, and bands so wide
   that only an armed [lifecycle.drift_storm] window is ever out of
   band — the drift -> retrain -> swap -> canary path fires at exact
   request ordinals.  --sync-retrain keeps the timing deterministic. *)

let lifecycle_args extra =
  [
    "--train-surrogate"; "--corpus"; "24"; "--sync-retrain";
    "--shadow-every"; "1"; "--drift-window-size"; "4"; "--drift-windows"; "1";
    "--min-retrain"; "4"; "--drift-band"; "1000"; "--quantile-band"; "1000";
    "--batch"; "4"; "--seed"; "5";
  ]
  @ extra

let lifecycle_predicts n = List.init n (fun i -> Printf.sprintf "l%d" (i + 1))

(* Continuous traffic across a live hot-swap and a canary rollback:
   window 1 storms -> retrain + swap to v2 (canary), window 2 is clean
   (canary survives one of two windows), window 3 storms -> rollback to
   v1.  Zero failed, shed or unlabeled requests end to end. *)
let scenario_lifecycle_swap () =
  let name = "lifecycle-swap-rollback" in
  let predicts = lifecycle_predicts 16 in
  let requests =
    List.map (fun id -> id ^ " predict " ^ asm) predicts
    @ [ "s stats"; "z shutdown" ]
  in
  let lines =
    stdio_scenario name
      ~faults:"lifecycle.drift_storm@1;lifecycle.drift_storm@3" ~domains:2
      ~args:(lifecycle_args [ "--canary"; "2" ])
      ~requests
      (check_ids name (predicts @ [ "s"; "z" ]))
  in
  (* Every request is served ok by the surrogate and labeled with the
     version that served it: v1 before the swap, v2 during canary, v1
     again after the rollback. *)
  List.iteri
    (fun i id ->
      let want = if i < 4 then "v1" else if i < 12 then "v2" else "v1" in
      expect name lines id ~affix:"ok cycles=";
      expect name lines id ~affix:("backend=surrogate model=" ^ want))
    predicts;
  expect name lines "s" ~affix:"lifecycle.swaps=1";
  expect name lines "s" ~affix:"lifecycle.rollbacks=1";
  expect name lines "s" ~affix:"lifecycle.version=1";
  expect name lines "s" ~affix:"lifecycle.state=stable";
  expect name lines "s" ~affix:" failed=0";
  expect name lines "s" ~affix:" overloaded=0"

(* A crashed background retrain must leave serving untouched. *)
let scenario_lifecycle_retrain_crash () =
  let name = "lifecycle-retrain-crash" in
  let predicts = lifecycle_predicts 8 in
  let requests =
    List.map (fun id -> id ^ " predict " ^ asm) predicts
    @ [ "s stats"; "z shutdown" ]
  in
  let lines =
    stdio_scenario name
      ~faults:"lifecycle.drift_storm@1;lifecycle.retrain_crash@1" ~domains:1
      ~args:(lifecycle_args [])
      ~requests
      (check_ids name (predicts @ [ "s"; "z" ]))
  in
  List.iter
    (fun id ->
      expect name lines id ~affix:"ok cycles=";
      expect name lines id ~affix:"backend=surrogate model=v1")
    predicts;
  expect name lines "s" ~affix:"lifecycle.retrains_failed=1";
  expect name lines "s" ~affix:"lifecycle.swaps=0";
  expect name lines "s" ~affix:"lifecycle.version=1";
  expect name lines "s" ~affix:" failed=0"

(* A candidate whose registry file is torn right after the write must be
   rejected by the validating reload and never swap in. *)
let scenario_lifecycle_corrupt_model () =
  let name = "lifecycle-corrupt-model" in
  let model_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_serve_smoke_models_%d" (Unix.getpid ()))
  in
  let predicts = lifecycle_predicts 8 in
  let requests =
    List.map (fun id -> id ^ " predict " ^ asm) predicts
    @ [ "s stats"; "z shutdown" ]
  in
  let lines =
    (* corrupt_model hit 1 is the initial v1 persist; hit 2 tears the
       v2 candidate. *)
    stdio_scenario name
      ~faults:"lifecycle.drift_storm@1;lifecycle.corrupt_model@2" ~domains:1
      ~args:(lifecycle_args [ "--model-dir"; model_dir ])
      ~requests
      (check_ids name (predicts @ [ "s"; "z" ]))
  in
  List.iter
    (fun id ->
      expect name lines id ~affix:"ok cycles=";
      expect name lines id ~affix:"backend=surrogate model=v1")
    predicts;
  expect name lines "s" ~affix:"lifecycle.models_rejected=1";
  expect name lines "s" ~affix:"lifecycle.swaps=0";
  expect name lines "s" ~affix:"lifecycle.version=1";
  expect name lines "s" ~affix:" failed=0";
  (* best-effort cleanup of the registry dir *)
  (try
     Array.iter
       (fun e -> Sys.remove (Filename.concat model_dir e))
       (Sys.readdir model_dir);
     Sys.rmdir model_dir
   with Sys_error _ -> ())

(* ---- a malformed --faults spec is a validation error (exit 5) ---- *)

let scenario_bad_faults () =
  let name = "bad-faults" in
  Printf.printf "serve_smoke: scenario %s\n%!" name;
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    spawn_serve ~faults:"serve.worker_crash@0" ~domains:1 [] devnull devnull
      devnull
  in
  Unix.close devnull;
  match Unix.waitpid [] pid with
  | _, Unix.WEXITED 5 -> ()
  | _, Unix.WEXITED c -> failf "%s: daemon exited %d, expected 5" name c
  | _, (Unix.WSIGNALED s | Unix.WSTOPPED s) ->
      failf "%s: daemon stopped by signal %d" name s

let () =
  (* hard watchdog: a hung daemon must fail the smoke, not wedge CI *)
  ignore (Unix.alarm 300);
  scenario_crash ();
  scenario_slow_block ();
  scenario_malformed_input ();
  scenario_overload ();
  scenario_mixed ();
  scenario_socket ();
  scenario_serial ();
  scenario_slow_reader ();
  scenario_lifecycle_swap ();
  scenario_lifecycle_retrain_crash ();
  scenario_lifecycle_corrupt_model ();
  scenario_bad_faults ();
  if !failures > 0 then begin
    Printf.printf "serve_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "serve_smoke: OK (12 scenarios, zero drops)"
