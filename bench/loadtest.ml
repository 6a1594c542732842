(* Zipfian load-test harness for the sharded serving fleet (PR 9).

   Spawns a real `difftune_cli fleet` (4 serve shards + the
   consistent-hash router) from a generated spec, then drives thousands
   of concurrent in-flight requests from one select loop: [connections]
   client sockets, each pipelining a bounded window of outstanding
   predictions, drawing block texts from a Zipf-distributed corpus with
   a seeded RNG — the schedule is bit-reproducible, only the timings
   are wall-clock.  One shard is armed with [cluster.shard_crash]
   mid-run, so the numbers cover supervisor restart and router failover,
   not just the happy path.

   Emits BENCH_PR9.json with request latency percentiles, shed rate,
   failover/late-discard counts, and cache-hit locality (consistent
   hashing keeps each block on one shard, so the per-shard mca simcache
   stays hot — `fleet.mca.cache_hits` over the merged cluster stats
   measures exactly that affinity).  `make bench-guard` holds the
   committed snapshot to absolute bounds: zero lost, zero duplicates,
   shed <= 1%, p99 under the recorded ceiling, and at least one observed
   failover (the crash must actually have been survived). *)

let cli =
  if Array.length Sys.argv >= 2 then Sys.argv.(1)
  else "_build/default/bin/difftune_cli.exe"

let shards = 4
let connections = 64
let window = 32
let total_requests = 8192
let corpus_size = 512
let seed = 9
let zipf_s = 1.1

let die fmt = Printf.ksprintf (fun s -> prerr_endline ("loadtest: " ^ s); exit 1) fmt

(* ---- corpus: distinct parseable blocks, rank 0 most popular ---- *)

let corpus =
  let regs =
    [| "%rax"; "%rbx"; "%rcx"; "%rdx"; "%rsi"; "%rdi"; "%r8"; "%r9";
       "%r10"; "%r11"; "%r12"; "%r13"; "%r14"; "%r15" |]
  in
  let ops = [| "addq"; "subq"; "xorq"; "andq"; "orq"; "imulq" |] in
  Array.init corpus_size (fun i ->
      let r = Array.length regs in
      Printf.sprintf "%s %s, %s"
        ops.(i / (r * r) mod Array.length ops)
        regs.(i mod r)
        regs.(i / r mod r))

(* Zipf CDF over ranks: P(rank i) proportional to 1/(i+1)^s. *)
let zipf_cdf =
  let w = Array.init corpus_size (fun i -> 1.0 /. (float_of_int (i + 1) ** zipf_s)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let sample_rank rng =
  let u = Dt_util.Rng.float rng 1.0 in
  (* first rank whose cumulative weight covers u *)
  let lo = ref 0 and hi = ref (corpus_size - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if zipf_cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

(* The whole request schedule, fixed up front by the seed. *)
let schedule =
  let rng = Dt_util.Rng.create seed in
  Array.init total_requests (fun _ -> sample_rank rng)

(* ---- fleet under test ---- *)

let dir =
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dt_loadtest_%d" (Unix.getpid ()))

let spec =
  (* crash shard0 mid-run: its hit counter sees probes + its share of
     the storm, so ~800 lines lands well inside the schedule *)
  Printf.sprintf
    {|{
  "shards": %d,
  "socket_dir": %S,
  "replicas": 3,
  "reply_budget_s": 2.0,
  "probe_interval_s": 0.25,
  "probe_budget_s": 2.0,
  "max_inflight": 1024,
  "max_pending": 8192,
  "serve": { "queue": 2048, "batch": 16 },
  "restart": { "max": 10, "backoff_s": 0.1, "cap_s": 0.5, "grace_s": 2.0 },
  "shard_faults": { "0": "cluster.shard_crash@800" }
}|}
    shards dir

let connect_with_retry path =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if Unix.gettimeofday () > deadline then die "router never came up";
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let send_line fd line =
  ignore (Unix.write_substring fd (line ^ "\n") 0 (String.length line + 1))

(* ---- the client swarm: one select loop, [connections] sockets,
   [window] outstanding requests each ---- *)

type conn = {
  fd : Unix.file_descr;
  buf : Buffer.t;
  mutable outstanding : int;
}

type outcome = { mutable ok : int; mutable degraded : int;
                 mutable overloaded : int; mutable error : int }

let run_storm conns =
  let t_start = Unix.gettimeofday () in
  let next = ref 0 in
  let answered = ref 0 in
  let duplicates = ref 0 in
  let outcomes = { ok = 0; degraded = 0; overloaded = 0; error = 0 } in
  let latencies = Array.make total_requests 0.0 in
  (* rid -> (send time, request index); a resolved rid moves to [done_] *)
  let pending = Hashtbl.create (4 * connections * window) in
  let done_ = Hashtbl.create (2 * total_requests) in
  let fill c =
    while c.outstanding < window && !next < total_requests do
      let i = !next in
      incr next;
      let rid = "r" ^ string_of_int i in
      Hashtbl.replace pending rid (Unix.gettimeofday (), i);
      send_line c.fd (Printf.sprintf "%s predict %s" rid corpus.(schedule.(i)));
      c.outstanding <- c.outstanding + 1
    done
  in
  let classify line =
    (* "<rid> <status> ..." *)
    match String.split_on_char ' ' line with
    | rid :: status :: _ -> (rid, status)
    | _ -> (line, "?")
  in
  let on_line c line =
    if String.trim line <> "" then begin
      let rid, status = classify line in
      (match Hashtbl.find_opt pending rid with
      | Some (t0, i) ->
          Hashtbl.remove pending rid;
          Hashtbl.replace done_ rid ();
          latencies.(i) <- Unix.gettimeofday () -. t0;
          incr answered;
          c.outstanding <- c.outstanding - 1;
          (match status with
          | "ok" -> outcomes.ok <- outcomes.ok + 1
          | "degraded" -> outcomes.degraded <- outcomes.degraded + 1
          | "overloaded" -> outcomes.overloaded <- outcomes.overloaded + 1
          | _ -> outcomes.error <- outcomes.error + 1)
      | None -> if Hashtbl.mem done_ rid then incr duplicates);
      fill c
    end
  in
  let read_conn c =
    let bytes = Bytes.create 65536 in
    match Unix.read c.fd bytes 0 (Bytes.length bytes) with
    | 0 -> die "router closed a client connection mid-run"
    | n ->
        Buffer.add_subbytes c.buf bytes 0 n;
        let s = Buffer.contents c.buf in
        let rec split from =
          match String.index_from_opt s from '\n' with
          | Some nl ->
              on_line c (String.sub s from (nl - from));
              split (nl + 1)
          | None ->
              Buffer.clear c.buf;
              Buffer.add_string c.buf (String.sub s from (String.length s - from))
        in
        split 0
  in
  List.iter fill conns;
  let deadline = Unix.gettimeofday () +. 240.0 in
  while !answered < total_requests do
    if Unix.gettimeofday () > deadline then
      die "storm stalled: %d/%d answered" !answered total_requests;
    let fds = List.map (fun c -> c.fd) conns in
    let ready, _, _ = Unix.select fds [] [] 0.25 in
    List.iter
      (fun fd -> read_conn (List.find (fun c -> c.fd = fd) conns))
      ready
  done;
  let elapsed = Unix.gettimeofday () -. t_start in
  (latencies, outcomes, !duplicates, elapsed)

let percentile sorted p =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (ceil (p /. 100.0 *. float_of_int n)) - 1))

(* one blocking control request on an otherwise idle connection *)
let control fd ic line =
  send_line fd line;
  match input_line ic with
  | l -> l
  | exception End_of_file -> die "eof on control request %S" line

let stat_int line key =
  (* " key=<int>" somewhere in a stats line *)
  let affix = " " ^ key ^ "=" in
  let n = String.length line and m = String.length affix in
  let rec go i =
    if i + m > n then None
    else if String.sub line i m = affix then begin
      let j = i + m in
      let k = ref j in
      while
        !k < n && (match line.[!k] with '0' .. '9' | '-' -> true | _ -> false)
      do
        incr k
      done;
      int_of_string_opt (String.sub line j (!k - j))
    end
    else go (i + 1)
  in
  go 0

let () =
  ignore (Unix.alarm 600);
  if Sys.file_exists dir then
    Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
      (try Sys.readdir dir with Sys_error _ -> [||]);
  (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let spec_path = Filename.concat dir "fleet.json" in
  let oc = open_out spec_path in
  output_string oc spec;
  close_out oc;
  Printf.printf
    "loadtest: %d shards, %d connections x %d window (%d concurrent), %d \
     requests over %d blocks (zipf s=%.1f, seed %d)\n%!"
    shards connections window (connections * window) total_requests corpus_size
    zipf_s seed;
  let out_r, out_w = Unix.pipe ~cloexec:false () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli [| cli; "fleet"; spec_path |] devnull out_w
      Unix.stderr
  in
  Unix.close devnull;
  Unix.close out_w;
  let router_sock = Filename.concat dir "router.sock" in
  let c0 = connect_with_retry router_sock in
  let ic0 = Unix.in_channel_of_descr c0 in
  (* wait until predictions are served by shards, not the no-link
     fallback, before opening the floodgates *)
  let rec warmup k =
    if k > 300 then die "shards never became routable";
    let l = control c0 ic0 (Printf.sprintf "w%d predict %s" k corpus.(0)) in
    if not (String.length l > 3 && String.sub l 0 1 = "w"
            && (let parts = String.split_on_char ' ' l in
                match parts with _ :: "ok" :: _ -> true | _ -> false))
    then begin
      Unix.sleepf 0.05;
      warmup (k + 1)
    end
  in
  warmup 0;
  let conns =
    List.init connections (fun _ ->
        { fd = connect_with_retry router_sock; buf = Buffer.create 4096;
          outstanding = 0 })
  in
  let latencies, outcomes, duplicates, elapsed = run_storm conns in
  List.iter (fun c -> Unix.close c.fd) conns;
  (* per-shard cache locality, straight from each shard's own socket
     (the router's merged report only has the fleet-wide sums) *)
  let shard_cache =
    List.init shards (fun i ->
        let path = Filename.concat dir (Printf.sprintf "shard%d.sock" i) in
        let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
        match Unix.connect fd (Unix.ADDR_UNIX path) with
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            (i, None)
        | () ->
            let ic = Unix.in_channel_of_descr fd in
            let l = control fd ic "cs stats" in
            Unix.close fd;
            let pct =
              match (stat_int l "mca.cache_hits", stat_int l "mca.cache_misses")
              with
              | Some h, Some m when h + m > 0 ->
                  Some (float_of_int h /. float_of_int (h + m) *. 100.0)
              | _ -> None
            in
            (i, pct))
  in
  (* merged cluster stats: cache locality + router counters *)
  let stats = control c0 ic0 "s stats" in
  let bye = control c0 ic0 "z shutdown" in
  if bye <> "z ok shutdown" then die "bad shutdown reply %S" bye;
  Unix.close c0;
  let fleet_out = Unix.in_channel_of_descr out_r in
  let report = ref [] in
  (try
     while true do
       report := input_line fleet_out :: !report
     done
   with End_of_file -> ());
  close_in fleet_out;
  (match Unix.waitpid [] pid with
  | _, Unix.WEXITED 0 -> ()
  | _, st ->
      die "fleet exited abnormally (%s)"
        (match st with
        | Unix.WEXITED c -> Printf.sprintf "code %d" c
        | Unix.WSIGNALED s -> Printf.sprintf "signal %d" s
        | Unix.WSTOPPED s -> Printf.sprintf "stopped %d" s));
  let report_int key =
    List.find_map
      (fun l ->
        let l = String.trim l in
        let p = key ^ "=" in
        if String.length l > String.length p && String.sub l 0 (String.length p) = p
        then int_of_string_opt (String.sub l (String.length p) (String.length l - String.length p))
        else None)
      !report
  in
  let sorted = Array.copy latencies in
  Array.sort compare sorted;
  let ms x = x *. 1e3 in
  let p50 = ms (percentile sorted 50.0) in
  let p90 = ms (percentile sorted 90.0) in
  let p99 = ms (percentile sorted 99.0) in
  let pmax = ms sorted.(Array.length sorted - 1) in
  let n = float_of_int total_requests in
  let shed_rate = float_of_int outcomes.overloaded /. n *. 100.0 in
  let degraded_rate = float_of_int outcomes.degraded /. n *. 100.0 in
  let lost = total_requests - (outcomes.ok + outcomes.degraded + outcomes.overloaded + outcomes.error) in
  let failovers = Option.value ~default:(-1) (stat_int stats "router.failovers") in
  let late = Option.value ~default:(-1) (stat_int stats "router.late_discarded") in
  let hits = Option.value ~default:0 (stat_int stats "fleet.mca.cache_hits") in
  let misses = Option.value ~default:0 (stat_int stats "fleet.mca.cache_misses") in
  let cache_pct =
    if hits + misses = 0 then 0.0
    else float_of_int hits /. float_of_int (hits + misses) *. 100.0
  in
  let restarts = Option.value ~default:(-1) (report_int "fleet.restarts") in
  let rows =
    [
      ("loadtest.requests", float_of_int total_requests);
      ("loadtest.concurrent", float_of_int (connections * window));
      ("loadtest.corpus", float_of_int corpus_size);
      ("loadtest.throughput_rps", n /. elapsed);
      ("loadtest.p50_ms", p50);
      ("loadtest.p90_ms", p90);
      ("loadtest.p99_ms", p99);
      ("loadtest.max_ms", pmax);
      ("loadtest.shed_rate_pct", shed_rate);
      ("loadtest.degraded_pct", degraded_rate);
      ("loadtest.error", float_of_int outcomes.error);
      ("loadtest.lost", float_of_int lost);
      ("loadtest.duplicates", float_of_int duplicates);
      ("loadtest.failovers", float_of_int failovers);
      ("loadtest.late_discarded", float_of_int late);
      ("loadtest.cache_hit_pct", cache_pct);
      ("loadtest.restarts", float_of_int restarts);
    ]
    @ List.filter_map
        (fun (i, pct) ->
          Option.map
            (fun p -> (Printf.sprintf "loadtest.shard%d.cache_hit_pct" i, p))
            pct)
        shard_cache
  in
  let oc = open_out "BENCH_PR9.json" in
  Printf.fprintf oc "{\n  \"pr\": 9,\n  \"loadtest\": {\n%s\n  }\n}\n"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "    %S: %.2f" k v) rows));
  close_out oc;
  List.iter (fun (k, v) -> Printf.printf "%-28s %12.2f\n%!" k v) rows;
  print_endline "wrote BENCH_PR9.json";
  (* the harness itself enforces the hard invariants; bench-guard holds
     the committed snapshot *)
  if lost <> 0 then die "%d requests lost" lost;
  if duplicates <> 0 then die "%d duplicate responses" duplicates;
  if failovers < 1 then die "armed shard crash produced no failovers";
  if shed_rate > 1.0 then die "shed rate %.2f%% above 1%%" shed_rate;
  (try
     Array.iter (fun e -> try Sys.remove (Filename.concat dir e) with Sys_error _ -> ())
       (Sys.readdir dir);
     Sys.rmdir dir
   with Sys_error _ -> ());
  print_endline "loadtest: OK"
