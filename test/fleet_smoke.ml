(* Fleet smoke driver for `make fleet-smoke` / `make verify`.

   Spawns the real `difftune_cli fleet` supervisor — N serve daemons
   plus the consistent-hash router, wired from a JSON spec written to a
   temp dir — and checks the sharded-serving contract from the outside
   under armed cluster faults: a shard crashing mid-storm (restarted by
   the supervisor, failed over by the router), a network partition (a
   shard that reads but never replies), and a pathologically slow shard
   whose late replies must be discarded.  In every scenario each
   request id is answered exactly once with a success or a labeled
   fallback — never a drop, never a duplicate — and the fleet exits 0
   with an aggregated cluster report. *)

let cli =
  if Array.length Sys.argv < 2 then begin
    print_endline "usage: fleet_smoke <path-to-difftune_cli>";
    exit 2
  end
  else Sys.argv.(1)

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      Printf.printf "fleet_smoke: FAIL %s\n%!" s)
    fmt

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let id_of line =
  match String.index_opt line ' ' with
  | Some i -> String.sub line 0 i
  | None -> line

(* Distinct block texts so the storm spreads across the ring. *)
let regs =
  [| "%rax"; "%rbx"; "%rcx"; "%rdx"; "%rsi"; "%rdi"; "%r8"; "%r9";
     "%r10"; "%r11"; "%r12"; "%r13"; "%r14"; "%r15" |]

let block i =
  Printf.sprintf "addq %s, %s"
    regs.(i mod Array.length regs)
    regs.((i / Array.length regs) mod Array.length regs)

(* The supervisor's own environment must never leak fault arming into
   the fleet: shard faults come only from the spec. *)
let fleet_env () =
  let keep e =
    not
      (String.length e >= 15
      && (String.sub e 0 15 = "DIFFTUNE_FAULTS"
         || String.sub e 0 15 = "DIFFTUNE_DOMAIN"))
  in
  Array.of_list (List.filter keep (Array.to_list (Unix.environment ())))

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then begin
          failf "router never came up at %s" path;
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

let check_ids name expected lines =
  let seen = Hashtbl.create 64 in
  List.iter
    (fun line ->
      let id = id_of line in
      Hashtbl.replace seen id
        (1 + Option.value ~default:0 (Hashtbl.find_opt seen id)))
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

(* Every prediction succeeds or carries the failover story — never an
   unlabeled value, never a shed (the storms stay under max_pending). *)
let check_served name lines =
  List.iter
    (fun l ->
      if
        not
          (contains ~affix:"ok cycles=" l
          || (contains ~affix:"degraded cycles=" l && contains ~affix:"via=" l)
          )
      then failf "%s: %s not ok/labeled-degraded: %S" name (id_of l) l)
    lines

let read_all_lines ic =
  let rec go acc =
    match input_line ic with
    | line -> go (line :: acc)
    | exception End_of_file -> List.rev acc
  in
  go []

(* "  key=value" from the cluster report printed on fleet exit. *)
let report_int report key =
  let prefix = key ^ "=" in
  List.find_map
    (fun l ->
      let l = String.trim l in
      if String.length l > String.length prefix
         && String.sub l 0 (String.length prefix) = prefix
      then
        int_of_string_opt
          (String.sub l (String.length prefix)
             (String.length l - String.length prefix))
      else None)
    report

let rm_rf dir =
  if Sys.file_exists dir then begin
    (try
       Array.iter
         (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
         (Sys.readdir dir)
     with Sys_error _ -> ());
    try Sys.rmdir dir with Sys_error _ -> ()
  end

let scenario_seq = ref 0

(* Write the spec, spawn the fleet, hand a connected client channel to
   [drive] (which must end with shutdown), then collect the supervisor's
   stdout report and exit status. *)
let fleet_scenario name ~spec drive =
  Printf.printf "fleet_smoke: scenario %s\n%!" name;
  incr scenario_seq;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_fleet_smoke_%d_%d" (Unix.getpid ()) !scenario_seq)
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  let spec_path = Filename.concat dir "fleet.json" in
  let oc = open_out spec_path in
  output_string oc (spec ~dir);
  close_out oc;
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process_env cli
      [| cli; "fleet"; spec_path |]
      (fleet_env ()) devnull out_w Unix.stderr
  in
  Unix.close devnull;
  Unix.close out_w;
  let fd = connect_with_retry (Filename.concat dir "router.sock") in
  let ic = Unix.in_channel_of_descr fd in
  (* Startup warmup: the router listens before the shard links finish
     connecting, so early predictions would take the no-link fallback.
     Wait until a prediction is actually served by a shard. *)
  let rec warmup k =
    if k > 200 then failf "%s: shards never became routable" name
    else begin
      send fd (Printf.sprintf "w%d predict %s" k (block 0));
      match recv_lines name ic 1 with
      | [ l ] when contains ~affix:"ok cycles=" l -> ()
      | _ ->
          Unix.sleepf 0.05;
          warmup (k + 1)
    end
  in
  warmup 0;
  drive ~router:(Filename.concat dir "router.sock") fd ic;
  Unix.close fd;
  let fleet_out = Unix.in_channel_of_descr out_r in
  let report = read_all_lines fleet_out in
  close_in fleet_out;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED c -> failf "%s: fleet exited with code %d" name c
  | _, Unix.WSIGNALED s -> failf "%s: fleet killed by signal %d" name s
  | _, Unix.WSTOPPED s -> failf "%s: fleet stopped by signal %d" name s);
  if not (List.exists (fun l -> l = "cluster report:") report) then
    failf "%s: no cluster report in fleet output" name;
  rm_rf dir;
  report

let spec_json ?(faults = []) ?(reply_budget = 0.5) ?(eject_after = 3) () ~dir =
  let fault_entries =
    faults
    |> List.map (fun (i, f) -> Printf.sprintf "%S: %S" (string_of_int i) f)
    |> String.concat ", "
  in
  Printf.sprintf
    {|{
  "shards": 3,
  "socket_dir": %S,
  "replicas": 2,
  "reply_budget_s": %.3f,
  "probe_interval_s": 0.25,
  "probe_budget_s": %.3f,
  "breaker": { "threshold": 3, "cooldown_s": 0.5 },
  "health": { "eject_after": %d, "rejoin_after": 2,
              "cooldown_s": 0.5, "cooldown_cap_s": 4.0 },
  "serve": { "queue": 256, "batch": 8 },
  "restart": { "max": 5, "backoff_s": 0.1, "cap_s": 0.5, "grace_s": 2.0 },
  "shard_faults": { %s }
}|}
    dir reply_budget reply_budget eject_after fault_entries

let storm fd ic name n =
  let ids = List.init n (fun i -> Printf.sprintf "r%d" i) in
  List.iteri
    (fun i id -> send fd (Printf.sprintf "%s predict %s" id (block i)))
    ids;
  let lines = recv_lines name ic n in
  check_ids name ids lines;
  check_served name lines;
  lines

let shutdown fd ic name =
  send fd "z shutdown";
  match recv_lines name ic 1 with
  | [ l ] when contains ~affix:"z ok shutdown" l -> ()
  | ls -> failf "%s: bad shutdown response %S" name (String.concat "|" ls)

(* ---- scenario A: no faults armed — the sites must be harmless off,
   every control verb works, nothing restarts ---- *)

let scenario_clean () =
  let name = "clean" in
  let report =
    fleet_scenario name ~spec:(spec_json ())
      (fun ~router:_ fd ic ->
        let lines = storm fd ic name 30 in
        (* with all shards up, nothing degrades *)
        List.iter
          (fun l ->
            if not (contains ~affix:"ok cycles=" l) then
              failf "%s: %s degraded without faults: %S" name (id_of l) l)
          lines;
        send fd "q ping";
        (match recv_lines name ic 1 with
        | [ l ] when contains ~affix:"q pong" l && contains ~affix:"version=" l
          -> ()
        | ls -> failf "%s: bad pong %S" name (String.concat "|" ls));
        send fd "s stats";
        (match recv_lines name ic 1 with
        | [ l ] when contains ~affix:"shards_reporting=3" l -> ()
        | ls -> failf "%s: bad stats %S" name (String.concat "|" ls));
        send fd "f flush";
        (match recv_lines name ic 1 with
        | [ l ] when contains ~affix:"f ok flushed=" l -> ()
        | ls -> failf "%s: bad flush %S" name (String.concat "|" ls));
        shutdown fd ic name)
  in
  (match report_int report "fleet.restarts" with
  | Some 0 -> ()
  | r -> failf "%s: expected fleet.restarts=0, got %s" name
           (match r with Some n -> string_of_int n | None -> "missing"))

(* ---- scenario B: a shard crashes mid-storm; the supervisor restarts
   it and the router fails its requests over — zero lost ids ---- *)

let scenario_crash () =
  let name = "shard-crash" in
  let report =
    fleet_scenario name
      ~spec:(spec_json ~faults:[ (0, "cluster.shard_crash@10") ] ())
      (fun ~router:_ fd ic ->
        ignore (storm fd ic name 80);
        (* let the supervisor notice the corpse and restart it *)
        Unix.sleepf 1.0;
        shutdown fd ic name)
  in
  match report_int report "fleet.restarts" with
  | Some n when n >= 1 -> ()
  | r ->
      failf "%s: expected fleet.restarts>=1, got %s" name
        (match r with Some n -> string_of_int n | None -> "missing")

(* ---- scenario C: a shard partitions (reads but never replies); only
   reply budgets can detect it, requests fail over ---- *)

let scenario_partition () =
  let name = "net-partition" in
  let report =
    fleet_scenario name
      ~spec:
        (spec_json ~faults:[ (1, "cluster.net_partition@4") ]
           ~reply_budget:0.15 ~eject_after:2 ())
      (fun ~router:_ fd ic ->
        ignore (storm fd ic name 40);
        (* a merged stats report still answers (partial: the partitioned
           shard never replies, the collect deadline fills in) *)
        send fd "s stats";
        (match recv_lines name ic 1 with
        | [ l ] when contains ~affix:"s stats" l -> ()
        | ls -> failf "%s: bad stats %S" name (String.concat "|" ls));
        shutdown fd ic name)
  in
  match report_int report "router.failovers" with
  | Some n when n >= 1 -> ()
  | r ->
      failf "%s: expected router.failovers>=1, got %s" name
        (match r with Some n -> string_of_int n | None -> "missing")

(* ---- scenario D: a slow shard stalls past the reply budget; the
   router fails over and its eventual reply is discarded, never
   delivered twice ---- *)

let scenario_slow () =
  let name = "slow-shard" in
  let report =
    fleet_scenario name
      ~spec:
        (spec_json ~faults:[ (2, "cluster.slow_shard@6") ] ~reply_budget:0.15
           ())
      (fun ~router:_ fd ic ->
        ignore (storm fd ic name 40);
        (* give the stalled reply time to arrive (and be discarded) *)
        Unix.sleepf 1.0;
        shutdown fd ic name)
  in
  match report_int report "router.late_discarded" with
  | Some n when n >= 1 -> ()
  | r ->
      failf "%s: expected router.late_discarded>=1, got %s" name
        (match r with Some n -> string_of_int n | None -> "missing")

(* ---- scenario E: a client that never reads stalls only itself; the
   router keeps answering everyone else ---- *)

let scenario_slow_reader () =
  let name = "slow-reader" in
  ignore
    (fleet_scenario name ~spec:(spec_json ())
       (fun ~router fd ic ->
         let a = connect_with_retry router in
         let b = connect_with_retry router in
         Slow_reader.run ~fail:(failf "%s: %s" name) ~a ~b ();
         Unix.close a;
         Unix.close b;
         shutdown fd ic name))

let () =
  (* hard watchdog: a wedged fleet must fail the smoke, not hang CI *)
  ignore (Unix.alarm 300);
  scenario_clean ();
  scenario_crash ();
  scenario_partition ();
  scenario_slow ();
  scenario_slow_reader ();
  if !failures > 0 then begin
    Printf.printf "fleet_smoke: %d failure(s)\n%!" !failures;
    exit 1
  end;
  print_endline "fleet_smoke: OK (5 scenarios, zero drops)"
