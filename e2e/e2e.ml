(* End-to-end benchmark of the DiffTune reproduction: the learn loop
   ([Engine.learn]) and served predictions ([difftune_cli fleet]).

     e2e.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
             [--cli PATH] [--out DIR]

   Run it from the repository root: the metric names and units come from
   BENCHMARK.json there.  Without [--workload] every workload runs in
   turn.  Each run prints its metrics with units and sample counts,
   writes the full result (diagnostics included) to
   [<out>/<workload>-seed<N>[-trace].json], and ends its standard output
   with one JSON line holding [correct], [attempted], [failed] and
   [metrics].  [--trace 0] reports the end-to-end metrics; [--trace 1]
   is a separate run that reports the per-layer metrics and writes its
   spans to [<out>/<workload>-seed<N>.trace.jsonl].  The exit code is 1
   when an output is wrong.  README.md next to this file describes the
   workloads and metrics. *)

module Engine = Dt_difftune.Engine
module Spec = Dt_difftune.Spec
module Backend = Dt_serve.Backend
module Lifecycle = Dt_serve.Lifecycle
module Runtime = Dt_serve.Runtime
module Protocol = Dt_serve.Protocol
module Json = Dt_util.Json
module Ad = Dt_autodiff.Ad

let now = Harness.now
let uarch = Dt_refcpu.Uarch.Haswell

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("e2e: " ^ s); exit 1) fmt

(* Every DIFFTUNE_* variable changes what the libraries do (sampling,
   compiled plans, sanitizer checks, fault injection, shard delays), and
   some are read while a library initialises.  Unless the environment
   already holds exactly DIFFTUNE_DOMAINS=1 and no other DIFFTUNE_*
   variable, run this program again with that environment, so the
   benchmark and the fleets it spawns always run one configuration.

   One domain per process: the learn loop's result is the same for any
   count, and on a 2-vCPU machine whose vCPUs change speed independently
   a two-domain learn waits for the slower one (its time spread 11.5%
   against 6.3% with one domain). *)
let () =
  let pinned = "DIFFTUNE_DOMAINS=1" in
  let ours kv = String.starts_with ~prefix:"DIFFTUNE_" kv in
  let env = Array.to_list (Unix.environment ()) in
  if List.filter ours env <> [ pinned ] then
    Unix.execve Sys.executable_name Sys.argv
      (Array.of_list (pinned :: List.filter (fun kv -> not (ours kv)) env))

(* ---- command line ---- *)

let workloads = [ "learn-quick"; "serve-hot"; "serve-cold"; "serve-surrogate" ]
let workload = ref None
let seed = ref 42
let seconds = ref 24.0
let tracing = ref false
let cli = ref "_build/default/bin/difftune_cli.exe"
let out_dir = ref ".e2e"

let () =
  Arg.parse
    [
      ( "--workload",
        Arg.Symbol (workloads, fun w -> workload := Some w),
        " run one workload (default: all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S measured seconds per run (default 24)");
      ( "--trace",
        Arg.Int
          (function
          | 0 -> tracing := false
          | 1 -> tracing := true
          | _ -> raise (Arg.Bad "--trace takes 0 or 1")),
        "0|1 report per-layer metrics and write spans (default 0)" );
      ("--cli", Arg.Set_string cli, "PATH difftune_cli executable");
      ("--out", Arg.Set_string out_dir, "DIR result directory (default .e2e)");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "e2e.exe [options]";
  if !seconds < 4.0 then die "--seconds must be at least 4"

(* The declared metrics, name -> unit, in BENCHMARK.json order. *)
let declared =
  let j =
    try Json.parse_file "BENCHMARK.json"
    with Sys_error e | Json.Parse_error (e, _) -> die "BENCHMARK.json: %s" e
  in
  fun key ->
    match Option.bind (Json.member key j) Json.to_list with
    | None -> die "BENCHMARK.json has no %S list" key
    | Some l ->
        List.map
          (fun m ->
            let field f = Option.bind (Json.member f m) Json.to_str in
            match (field "name", field "unit") with
            | Some n, Some u -> (n, u)
            | _ -> die "BENCHMARK.json: malformed %s entry" key)
          l

let end_to_end = declared "end_to_end"
let per_layer = declared "per_layer"

(* ---- what one run reports ---- *)

type outcome = {
  attempted : int;
  failed : int;
  problems : string list;  (** why the run is wrong; empty when correct *)
  metrics : (string * float * int) list;  (** name, value, sample count *)
  diagnostics : (string * float) list;  (** printed and saved, not gated *)
}

let pct part whole = if whole > 0.0 then 100.0 *. part /. whole else 0.0
let ipct a b = pct (float_of_int a) (float_of_int b)
let same_float a b = Int64.equal (Int64.bits_of_float a) (Int64.bits_of_float b)

(* ---- spans (--trace 1), kept in memory and written at the end ---- *)

module Trace = struct
  type span = {
    id : int;
    name : string;
    parent : int;  (** 0 for a root span *)
    rid : string;  (** request id; "" when the span is not one request's *)
    start : float;
    stop : float;
  }

  let cap = 100_000
  let m = Mutex.create ()
  let next_id = Atomic.make 0
  let spans = ref []
  let kept = ref 0
  let dropped = ref 0
  let fresh () = 1 + Atomic.fetch_and_add next_id 1

  let record ?(id = fresh ()) ?(rid = "") ~parent name ~start ~stop =
    if !tracing then
      Mutex.protect m (fun () ->
          if !kept < cap then begin
            spans := { id; name; parent; rid; start; stop } :: !spans;
            incr kept
          end
          else incr dropped)

  let span ~parent name f =
    let id = fresh () and start = now () in
    Fun.protect
      ~finally:(fun () -> record ~id ~parent name ~start ~stop:(now ()))
      (fun () -> f id)

  (* One header line, then one span per line, times in microseconds
     since the first span started. *)
  let write path =
    let all = List.rev !spans in
    let origin = List.fold_left (fun a s -> Float.min a s.start) Float.infinity all in
    let us x = Json.Num (Float.round ((x -. origin) *. 1e6)) in
    let int i = Json.Num (float_of_int i) in
    let oc = open_out path in
    let line j = output_string oc (Json.to_string j ^ "\n") in
    line (Json.Obj [ ("spans", int !kept); ("dropped", int !dropped) ]);
    List.iter
      (fun s ->
        line
          (Json.Obj
             [
               ("id", int s.id);
               ("name", Json.Str s.name);
               ("parent", int s.parent);
               ("rid", Json.Str s.rid);
               ("start_us", us s.start);
               ("end_us", us s.stop);
             ]))
      all;
    close_out oc;
    spans := [];
    kept := 0;
    dropped := 0
end

(* Keep starting repetitions of [f] while the next one, at the median
   length so far, would end no later than half a repetition past
   [budget] seconds. *)
let repeat_for budget f =
  let start = now () in
  let rec go acc times =
    let t = now () in
    let r = f () in
    let times = (now () -. t) :: times in
    if now () -. start +. (Harness.median (Array.of_list times) /. 2.0) <= budget then
      go (r :: acc) times
    else List.rev (r :: acc)
  in
  go [] []

(* ==================================================================== *)
(* learn-quick                                                          *)
(* ==================================================================== *)

(* Scale.quick's engine settings on a slice of a seeded corpus.  The
   training blocks follow a fixed length profile (how many blocks of 1,
   2, ... 9 instructions), so the work of a learn depends little on the
   seed; 50 training and 32 validation blocks keep one learn near three
   seconds, so a run holds several and reports their median.  The full
   quick scale (1143 blocks) takes about 50 s. *)
let learn_cfg = { Dt_exp.Scale.quick.engine with log = ignore }
let learn_corpus = 600
let learn_profile = [| 0; 10; 10; 8; 6; 5; 4; 3; 2; 2 |]
let learn_train = Array.fold_left ( + ) 0 learn_profile
let learn_valid = 32

let pairs =
  Array.map (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))

let mape_tau timing set =
  let predicted = Array.map (fun (b, _) -> timing b) set in
  let actual = Array.map snd set in
  ( Dt_eval.Metrics.mape ~predicted ~actual,
    Dt_eval.Metrics.kendall_tau predicted actual )

(* The first blocks of the training split that fill [learn_profile].  A
   length with too few blocks in the split hands its shortfall to the
   next shorter length. *)
let profiled ~seed train =
  let want = Array.copy learn_profile in
  let have = Array.make (Array.length want) 0 in
  Array.iter
    (fun (b, _) ->
      let n = Dt_x86.Block.length b in
      if n < Array.length have then have.(n) <- have.(n) + 1)
    train;
  for n = Array.length want - 1 downto 1 do
    let short = want.(n) - have.(n) in
    if short > 0 then begin
      want.(n) <- have.(n);
      want.(n - 1) <- want.(n - 1) + short
    end
  done;
  let picked =
    List.filter
      (fun (b, _) ->
        let n = Dt_x86.Block.length b in
        n < Array.length want
        && want.(n) > 0
        && (want.(n) <- want.(n) - 1;
            true))
      (Array.to_list train)
  in
  if Array.exists (( < ) 0) want then
    die "seed %d: the training split cannot fill the length profile" seed;
  Array.of_list picked

(* Set-up: generate and label the corpus; returns the training,
   validation and test pairs and the time it took.  It starts from a
   compacted heap, so its time does not depend on what the previous
   learn left there. *)
let learn_setup ~seed =
  Gc.compact ();
  let t0 = now () in
  let corpus = Dt_bhive.Dataset.corpus ~seed ~size:learn_corpus in
  let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch ~noise:Dt_exp.Scale.quick.noise in
  let elapsed = now () -. t0 in
  if Array.length ds.valid < learn_valid then
    die "seed %d: only %d validation blocks" seed (Array.length ds.valid);
  ( (profiled ~seed (pairs ds.train), Array.sub (pairs ds.valid) 0 learn_valid, pairs ds.test),
    elapsed )

(* The learn is deterministic, so on fixed inputs the learned table's
   test-split MAPE and Kendall tau are fixed numbers.  golden.json next
   to this file commits them for the inputs of [golden_seed]; every
   learn-quick run learns once more on those inputs, outside the
   measured time, and fails unless both match to the last bit.  A
   change to the learn loop's numbers therefore shows, whichever seed
   the run measures.  After a deliberate change, the failing run prints
   the new values to commit. *)
let golden_file = "e2e/golden.json"
let golden_seed = 42

let golden_check spec =
  let want key =
    match Option.bind (Json.member key (Json.parse_file golden_file)) Json.to_num with
    | Some v -> v
    | None -> die "%s has no number %S" golden_file key
    | exception (Sys_error e | Json.Parse_error (e, _)) -> die "%s: %s" golden_file e
  in
  let (train, valid, test), _ = learn_setup ~seed:golden_seed in
  let r = Engine.learn ~valid learn_cfg spec ~train in
  let mape, tau = mape_tau (spec.Spec.timing r.table) test in
  let want_mape = want "test_mape" and want_tau = want "test_tau" in
  ( (if same_float mape want_mape && same_float tau want_tau then []
     else
       [
         Printf.sprintf
           "seed %d learn: test_mape %.17g and test_tau %.17g, but %s commits %.17g and %.17g"
           golden_seed mape tau golden_file want_mape want_tau;
       ]),
    [ ("golden.test_mape", mape); ("golden.test_tau", tau) ] )

(* At this scale the learned table is also checked the way the
   integration test checks small runs: on its training blocks it must
   beat tables drawn from the spec's own sampling distribution, here the
   median of twelve.  (The mean of three failed on 1 seed in 40, where
   one lucky draw was as good as the learned table; the median of twelve
   sat 15% or more above it on all 40.)  It does not beat the expert
   defaults on the test split; that takes the full quick scale. *)
let learn_quality spec ~train ~test table =
  let rng = Dt_util.Rng.create !seed in
  let random =
    Harness.median
      (Array.init 12 (fun _ -> fst (mape_tau (spec.Spec.timing (spec.sample rng)) train)))
  in
  let learned, _ = mape_tau (spec.timing table) train in
  let test_mape, test_tau = mape_tau (spec.timing table) test in
  let default_mape, default_tau =
    mape_tau (Dt_mca.Pipeline.timing (Dt_mca.Params.default uarch)) test
  in
  ( (if learned < random then []
     else
       [
         Printf.sprintf
           "learned training MAPE %.4f is not below the random tables' %.4f"
           learned random;
       ]),
    [
      ("learn.train_mape", learned);
      ("learn.random_train_mape", random);
      ("learn.test_mape", test_mape);
      ("learn.test_tau", test_tau);
      ("learn.default_test_mape", default_mape);
      ("learn.default_test_tau", default_tau);
    ] )

let differs (t0, l0) (t, l) = not (Harness.same_table t t0 && same_float l l0)

(* [Harness.reference_kernel]'s time on a 2-vCPU Xeon VM while its host
   ran at full speed.  learn-quick reports its times as multiples of
   the kernel's time measured around them, scaled by this constant:
   the seconds the work would take on that host at full speed. *)
let kernel_nominal_s = 0.3

let measure_learn spec =
  let (train, valid, test), _ = learn_setup ~seed:!seed in
  let untraced () =
    let t = now () in
    let r = Engine.learn ~valid learn_cfg spec ~train in
    (now () -. t, (r.table, r.surrogate_loss))
  in
  if not !tracing then begin
    (* Set up again before every learn, so the set-up times sample the
       whole run, and run the reference kernel between repetitions. *)
    let first_kernel = Harness.reference_kernel () in
    let reps =
      repeat_for !seconds (fun () ->
          let _, setup_s = learn_setup ~seed:!seed in
          let learn = untraced () in
          (setup_s, learn, Harness.reference_kernel ()))
    in
    let kernel = Array.of_list (first_kernel :: List.map (fun (_, _, k) -> k) reps) in
    let at_nominal xs = Harness.median (Harness.per_kernel ~kernel xs) *. kernel_nominal_s in
    let setup = Array.of_list (List.map (fun (s, _, _) -> s) reps) in
    let reps = List.map (fun (_, l, _) -> l) reps in
    let times = Array.of_list (List.map fst reps) in
    let first = snd (List.hd reps) in
    (* the same inputs must give the same table every time *)
    let nondet = List.length (List.filter (fun (_, r) -> differs first r) reps) in
    let wrong, quality = learn_quality spec ~train ~test (fst first) in
    let learn_s = at_nominal times and n = Array.length times in
    let lo, hi = Dt_util.Stats.min_max times in
    {
      attempted = n;
      failed = (if wrong = [] then nondet else n);
      problems =
        (if nondet = 0 then []
         else [ Printf.sprintf "%d of %d learns differ from the first" nondet n ])
        @ wrong;
      metrics = [ ("setup_s", at_nominal setup, n); ("p50_ms", learn_s *. 1000.0, n) ];
      diagnostics =
        ("learn.wall_p50_s", Harness.median times)
        :: ("learn.wall_min_s", lo) :: ("learn.wall_max_s", hi)
        :: ("setup.wall_p50_s", Harness.median setup)
        :: ("kernel.p50_s", Harness.median kernel)
        :: ("learn.blocks_per_s", float_of_int learn_train /. learn_s)
        :: quality;
    }
  end
  else begin
    (* Alternate an untraced [Engine.learn] with the phase-by-phase
       composition, traced: [spec.timing] counted and timed per phase,
       [Ad.plan_stats] read at every phase boundary. *)
    let calls = Array.init 3 (fun _ -> Atomic.make 0) in
    let busy_ns = Atomic.make 0 in
    let current = Atomic.make (0, 0) in
    let timing table block =
      let phase, parent = Atomic.get current in
      let start = now () in
      let v = spec.timing table block in
      let stop = now () in
      Atomic.incr calls.(phase);
      ignore (Atomic.fetch_and_add busy_ns (int_of_float ((stop -. start) *. 1e9)));
      Trace.record ~parent "mca.timing" ~start ~stop;
      v
    in
    let traced_spec = { spec with timing } in
    let index = function Harness.Collect -> 0 | Train -> 1 | Optimize -> 2 in
    (* one traced learn: per phase, wall time and plan-cache deltas *)
    let traced () =
      Array.iter (fun a -> Atomic.set a 0) calls;
      Atomic.set busy_ns 0;
      let phases = ref [] in
      let (table, loss, samples) =
        Trace.span ~parent:0 "learn" (fun root ->
            let opened = ref None in
            let boundary next =
              let t = now () and s = Ad.plan_stats () in
              (match !opened with
              | Some (p, id, t0, s0) ->
                  Trace.record ~id ~parent:root (Harness.phase_name p) ~start:t0 ~stop:t;
                  phases := (p, t -. t0, s0, s) :: !phases
              | None -> ());
              opened :=
                Option.map
                  (fun p ->
                    let id = Trace.fresh () in
                    Atomic.set current (index p, id);
                    (p, id, t, s))
                  next
            in
            Harness.learn_phased ~boundary ~valid learn_cfg traced_spec ~train)
      in
      ( (table, loss),
        List.rev !phases,
        samples,
        Array.map Atomic.get calls,
        float_of_int (Atomic.get busy_ns) /. 1e9 )
    in
    (* alternate which of the pair runs first *)
    let pair = ref 0 in
    let reps =
      repeat_for !seconds (fun () ->
          incr pair;
          if !pair mod 2 = 1 then
            let u = untraced () in
            (u, traced ())
          else
            let t = traced () in
            (untraced (), t))
    in
    let n = List.length reps in
    let mismatches =
      List.length (List.filter (fun ((_, u), (t, _, _, _, _)) -> differs u t) reps)
    in
    let phase_s p =
      Harness.median
        (Array.of_list
           (List.map
              (fun (_, (_, phases, _, _, _)) ->
                List.fold_left (fun a (q, dt, _, _) -> if q = p then a +. dt else a) 0.0 phases)
              reps))
    in
    let collect_s = phase_s Harness.Collect and train_s = phase_s Harness.Train
    and optimize_s = phase_s Harness.Optimize in
    let phase_sum = collect_s +. train_s +. optimize_s in
    let learn_s = Harness.median (Array.of_list (List.map (fun ((t, _), _) -> t) reps)) in
    (* counts repeat exactly, so they come from the first traced learn *)
    let (_, (table, _)), (_, phases, samples, calls, busy) = List.hd reps in
    let plan p =
      match List.find_opt (fun (q, _, _, _) -> q = p) phases with
      | Some (_, _, (s0 : Ad.plan_stats), (s1 : Ad.plan_stats)) ->
          let hits = s1.plan_hits - s0.plan_hits and misses = s1.plan_misses - s0.plan_misses in
          ( ipct hits (hits + misses),
            float_of_int (s1.plans_compiled - s0.plans_compiled),
            float_of_int (s1.plan_evictions - s0.plan_evictions) )
      | None -> (0.0, 0.0, 0.0)
    in
    let train_hit, train_compiled, train_evicted = plan Harness.Train in
    let opt_hit, opt_compiled, opt_evicted = plan Harness.Optimize in
    let mca_calls = Array.fold_left ( + ) 0 calls in
    let first_sum = List.fold_left (fun a (_, dt, _, _) -> a +. dt) 0.0 phases in
    let wrong, quality = learn_quality spec ~train ~test table in
    {
      attempted = 2 * n;
      failed = mismatches;
      problems =
        (if mismatches = 0 then []
         else [ Printf.sprintf "%d traced learns differ from Engine.learn" mismatches ])
        @ wrong;
      metrics =
        [
          ("engine.collect_pct", pct collect_s phase_sum, n);
          ("engine.train_pct", pct train_s phase_sum, n);
          ("engine.optimize_pct", pct optimize_s phase_sum, n);
          ("engine.phase_sum_pct", pct phase_sum learn_s, n);
          ("mca.collect_calls", float_of_int calls.(0), 1);
          ("mca.optimize_calls", float_of_int calls.(2), 1);
          ("mca.us_per_call", 1e6 *. busy /. float_of_int (max 1 mca_calls), mca_calls);
          ("mca.busy_pct", pct busy first_sum, 1);
          ("simcache.collect_hit_pct", ipct (samples - calls.(0)) samples, samples);
          ("ad.train.plan_hit_pct", train_hit, 1);
          ("ad.train.plans_compiled", train_compiled, 1);
          ("ad.train.plan_evictions", train_evicted, 1);
          ("ad.optimize.plan_hit_pct", opt_hit, 1);
          ("ad.optimize.plans_compiled", opt_compiled, 1);
          ("ad.optimize.plan_evictions", opt_evicted, 1);
          ( "surrogate.train_samples_per_s",
            float_of_int samples *. learn_cfg.surrogate_passes /. train_s, n );
          ( "engine.optimize_blocks_per_s",
            float_of_int learn_train *. learn_cfg.table_passes /. optimize_s, n );
          ("learn.test_mape", List.assoc "learn.test_mape" quality, Array.length test);
          ("learn.test_tau", List.assoc "learn.test_tau" quality, Array.length test);
        ];
      diagnostics =
        [
          ("engine.collect_s", collect_s);
          ("engine.train_s", train_s);
          ("engine.optimize_s", optimize_s);
          ("learn.untraced_s", learn_s);
          ("learn.samples", float_of_int samples);
        ]
        @ quality;
    }
  end

let run_learn () =
  let spec = Spec.mca_full uarch in
  let o = measure_learn spec in
  let wrong, golden = golden_check spec in
  {
    o with
    attempted = o.attempted + 1;
    failed = (o.failed + if wrong = [] then 0 else 1);
    problems = o.problems @ wrong;
    diagnostics = o.diagnostics @ golden;
  }

(* ==================================================================== *)
(* serve-*                                                              *)
(* ==================================================================== *)

type serve = {
  distinct : bool;  (** every request a block no other request uses *)
  surrogate : bool;  (** surrogate -> mca -> bound under the lifecycle *)
  rate : float;  (** open-loop requests per second *)
}

let serve_of = function
  | "serve-hot" -> { distinct = false; surrogate = false; rate = 10_000.0 }
  | "serve-cold" -> { distinct = true; surrogate = false; rate = 1_200.0 }
  | _ -> { distinct = true; surrogate = true; rate = 1_200.0 }

let shards = 2
let max_inflight = 1024  (* the router's window of requests per shard *)
let depth = 32  (* outstanding requests per client connection *)
let hot_blocks = 512
let check_every = 64  (* distinct blocks whose exact answer is checked *)

(* A surrogate-chain shard trains its startup surrogate before it
   listens, and the router dials a shard that is not listening every
   0.2 s, so a fleet's set-up time moves in 0.2 s steps.  A 34-block
   corpus keeps the training short and inside one step: 0.24-0.34 s on
   a 2-vCPU Xeon VM (set-up 0.41 s), 0.45-0.6 s while the same VM ran
   slower (0.62 s).  On 100 blocks it took 2.4-2.8 s, and set-up moved
   across three steps within ten runs. *)
let surrogate_corpus = 34

let asm_of block =
  String.concat "; " (String.split_on_char '\n' (Dt_x86.Block.to_string block))

(* Zipf(1.1) ranks over [n] items, rank 0 the most popular. *)
let zipf n rng =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** 1.1)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  let cdf = Array.map (fun x -> acc := !acc +. (x /. total); !acc) w in
  fun () ->
    let u = Dt_util.Rng.float rng 1.0 in
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if cdf.(mid) < u then lo := mid + 1 else hi := mid
    done;
    !lo

(* A workload's requests: indices into [asm], one list per phase.  The
   exact answer is known for the blocks whose [expect] is set. *)
type requests = {
  asm : string array;
  expect : float option array;
  closed : int array;  (** cycled when the workload repeats blocks *)
  open_ : int array;
}

let serve_inputs w ~closed_s ~open_n ~reference =
  let corpus n =
    Array.map (fun (e : Dt_bhive.Dataset.entry) -> e.block)
      (Dt_bhive.Dataset.corpus ~seed:!seed ~size:n).entries
  in
  if w.distinct then begin
    (* enough fresh blocks for a closed loop at 6,000 req/s *)
    let closed_n = int_of_float (6000.0 *. closed_s) in
    let blocks = corpus (closed_n + open_n) in
    {
      asm = Array.map asm_of blocks;
      expect =
        Array.mapi (fun i b -> if i mod check_every = 0 then Some (reference b) else None) blocks;
      closed = Array.init closed_n Fun.id;
      open_ = Array.init open_n (fun i -> closed_n + i);
    }
  end
  else begin
    let blocks = corpus hot_blocks in
    let draw = zipf hot_blocks (Dt_util.Rng.create !seed) in
    {
      asm = Array.map asm_of blocks;
      expect = Array.map (fun b -> Some (reference b)) blocks;
      closed = Array.init 200_000 (fun _ -> draw ());
      open_ = Array.init open_n (fun _ -> draw ());
    }
  end

(* The startup surrogate exactly as [difftune_cli serve --train-surrogate
   --corpus 34] trains it (CLI seed 42), so answers can be checked. *)
let startup_surrogate () =
  let corpus = Dt_bhive.Dataset.corpus ~seed:42 ~size:surrogate_corpus in
  let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch ~noise:0.0 in
  Engine.train_ithemal
    { Dt_exp.Scale.quick.engine with log = ignore }
    ~features:None ~train:(Array.to_list (pairs ds.train))

(* ---- answer checking ---- *)

(* Responses are tallied per phase; ids are "<prefix><index>". *)
type tally = {
  prefix : string;
  mutable seen : Bytes.t;  (** 1 at every index answered *)
  mutable good : int;
  mutable bad : int;
  mutable notes : string list;
}

let tally prefix = { prefix; seen = Bytes.make 4096 '\000'; good = 0; bad = 0; notes = [] }

let note t fmt =
  Printf.ksprintf
    (fun s ->
      t.bad <- t.bad + 1;
      if List.length t.notes < 5 then t.notes <- s :: t.notes)
    fmt

(* The request index a response answers, unless its id is unknown or
   already answered. *)
let claim t line =
  let id = Protocol.response_id line in
  let p = String.length t.prefix in
  match
    if String.length id > p && String.sub id 0 p = t.prefix then
      int_of_string_opt (String.sub id p (String.length id - p))
    else None
  with
  | None ->
      note t "unexpected response %S" line;
      None
  | Some i when i < Bytes.length t.seen && Bytes.get t.seen i <> '\000' ->
      note t "second answer for %s" id;
      None
  | Some i ->
      if i >= Bytes.length t.seen then begin
        let b = Bytes.make (2 * (i + 1)) '\000' in
        Bytes.blit t.seen 0 b 0 (Bytes.length t.seen);
        t.seen <- b
      end;
      Bytes.set t.seen i '\001';
      Some i

(* An answer is right when the primary backend served it with a finite
   positive cycle count equal to the exact one, where that is known. *)
let judge t ~backend ~expect line =
  let fs = Protocol.fields line in
  let status = match String.split_on_char ' ' line with _ :: s :: _ -> s | _ -> "" in
  let cycles = List.assoc_opt "cycles" fs in
  if
    status = "ok"
    && List.assoc_opt "backend" fs = Some backend
    && (match Option.bind cycles float_of_string_opt with
       | Some c -> Float.is_finite c && c > 0.0
       | None -> false)
    && match expect with None -> true | Some v -> cycles = Some (Printf.sprintf "%.4f" v)
  then t.good <- t.good + 1
  else note t "wrong answer %S" line

let problems t ~sent =
  let missing = ref 0 in
  for i = 0 to sent - 1 do
    if i >= Bytes.length t.seen || Bytes.get t.seen i = '\000' then incr missing
  done;
  List.rev t.notes
  @ if !missing > 0 then [ Printf.sprintf "%d %s-requests never answered" !missing t.prefix ] else []

(* ---- client connections ---- *)

type conn = { fd : Unix.file_descr; buf : Buffer.t; mutable outstanding : int }

let connect path ~deadline =
  let rec go () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> { fd; buf = Buffer.create 65536; outstanding = 0 }
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _) ->
        Unix.close fd;
        if now () > deadline then die "router socket %s never accepted" path;
        Unix.sleepf 0.005;
        go ()
  in
  go ()

let write_all c s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    off := !off + Unix.write_substring c.fd s !off (n - !off)
  done

let send c line = write_all c (line ^ "\n")

let chunk = Bytes.create 65536

(* Read what is available and call [f] on every complete line. *)
let pump c f =
  match Unix.read c.fd chunk 0 (Bytes.length chunk) with
  | 0 -> die "the router closed a client connection"
  | n ->
      Buffer.add_subbytes c.buf chunk 0 n;
      let s = Buffer.contents c.buf in
      let rec split from =
        match String.index_from_opt s from '\n' with
        | Some nl ->
            f (String.sub s from (nl - from));
            split (nl + 1)
        | None ->
            Buffer.clear c.buf;
            Buffer.add_substring c.buf s from (String.length s - from)
      in
      split 0

let readable conns timeout =
  match Unix.select (List.map (fun c -> c.fd) conns) [] [] timeout with
  | r, _, _ -> List.filter (fun c -> List.memq c.fd r) conns
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> []

(* One control request on a connection with nothing else in flight. *)
let control c line =
  let id = Protocol.response_id line in
  send c line;
  let deadline = now () +. 30.0 in
  let reply = ref None in
  while !reply = None do
    if now () > deadline then die "no reply to %S" line;
    List.iter
      (fun c -> pump c (fun l -> if Protocol.response_id l = id then reply := Some l))
      (readable [ c ] 0.5)
  done;
  Option.get !reply

(* The router's merged cluster report, numeric fields only. *)
let stats c tag =
  List.filter_map
    (fun (k, v) -> Option.map (fun f -> (k, f)) (float_of_string_opt v))
    (Protocol.fields (control c (tag ^ " stats")))

let stat s k = Option.value ~default:0.0 (List.assoc_opt k s)

(* ---- the fleet under test ---- *)

let run_dir = Filename.concat !out_dir (Printf.sprintf "run-%d" (Unix.getpid ()))
let live = ref []  (* fleet supervisor pids not yet reaped *)

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let rec rm_rf p =
  match Sys.is_directory p with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat p e)) (Sys.readdir p);
      Sys.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

(* Wait up to [grace] seconds, then SIGKILL; true on a clean exit. *)
let reap pid ~grace =
  let deadline = now () +. grace in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when now () < deadline ->
        Unix.sleepf 0.01;
        wait ()
    | 0, _ ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        false
    | _, status -> status = Unix.WEXITED 0
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> false
  in
  let clean = wait () in
  live := List.filter (( <> ) pid) !live;
  clean

let () =
  (* SIGTERM makes a supervisor drain, stop its shards and exit *)
  at_exit (fun () ->
      List.iter
        (fun pid ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (reap pid ~grace:10.0))
        !live;
      rm_rf run_dir);
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> die "watchdog: a workload ran past 170 s"));
  (* exit through [at_exit], which stops the fleets *)
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle (fun _ -> die "interrupted")))
    [ Sys.sigterm; Sys.sigint ]

let fleet_spec ~dir w =
  let num x = Json.Num x in
  Json.Obj
    [
      ("shards", num (float_of_int shards));
      ("socket_dir", Json.Str dir);
      ("replicas", num 2.0);
      ("reply_budget_s", num 2.0);
      ("probe_interval_s", num 0.5);
      ("probe_budget_s", num 2.0);
      ("max_inflight", num (float_of_int max_inflight));
      ("max_pending", num 8192.0);
      (* probes fail while shards train at startup; that must not eject
         them *)
      ("health", Json.Obj [ ("eject_after", num 20.0) ]);
      ( "serve",
        Json.Obj
          ([ ("queue", num 2048.0); ("batch", num 16.0); ("domains", num 1.0) ]
          @
          if w.surrogate then
            [
              ("train-surrogate", Json.Bool true);
              ("corpus", num (float_of_int surrogate_corpus));
              (* The startup surrogate is out of band on every drift
                 window, so default bands start retrains at
                 wall-clock-dependent moments mid-run. *)
              ("drift-band", num 1e9);
              ("quantile-band", num 1e9);
            ]
          else []) );
    ]

type fleet = { pid : int; dir : string; conn : conn; setup_s : float }

(* Spawn a fleet and poll the router's [stats] every 5 ms until every
   shard answers and is in the ring; that wait is the set-up time. *)
let spawn_fleet w k =
  let dir = Filename.concat run_dir (Printf.sprintf "f%d" k) in
  mkdir_p dir;
  let spec = Filename.concat dir "fleet.json" in
  let oc = open_out spec in
  output_string oc (Json.to_string (fleet_spec ~dir w));
  close_out oc;
  let null_in = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let null_out = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let t0 = now () in
  let pid = Unix.create_process !cli [| !cli; "fleet"; spec |] null_in null_out Unix.stderr in
  live := pid :: !live;
  Unix.close null_in;
  Unix.close null_out;
  let deadline = t0 +. 60.0 in
  let conn = connect (Filename.concat dir "router.sock") ~deadline in
  (* every shard answers and sits in the ring *)
  let ready fields =
    let n = Some (string_of_int shards) in
    List.assoc_opt "shards_reporting" fields = n && List.assoc_opt "router.ring_size" fields = n
  in
  let rec poll k =
    if now () > deadline then die "fleet never became ready";
    if not (ready (Protocol.fields (control conn (Printf.sprintf "ready%d stats" k)))) then begin
      Unix.sleepf 0.005;
      poll (k + 1)
    end
  in
  poll 0;
  { pid; dir; conn; setup_s = now () -. t0 }

let shutdown_fleet f =
  let reply = control f.conn "bye shutdown" in
  Unix.close f.conn.fd;
  if reply <> "bye ok shutdown" then die "bad shutdown reply %S" reply;
  if not (reap f.pid ~grace:20.0) then die "fleet did not exit cleanly"

(* ---- load phases ---- *)

(* A run alternates [rounds] closed-loop and open-loop phases, so both
   metrics sample the whole run and a slowdown of the machine that lasts
   a few seconds lands in a minority of either metric's windows. *)
let rounds = 4

(* Closed loop for [duration] seconds: every connection keeps [depth]
   requests outstanding, ids numbered on from [first].  Returns the next
   unused index and the completions per second of each whole
   [width]-second window. *)
let closed_round conns reqs ~cycle ~first ~duration ~width ~on_line =
  let len = Array.length reqs.closed in
  let limit = if cycle then max_int else len in
  let sent = ref first and completions = ref [] in
  let t0 = now () in
  let stop = t0 +. duration in
  let last_send = ref stop in
  let batch = Buffer.create 65536 in
  (* top a connection up with one write *)
  let fill c =
    Buffer.clear batch;
    while c.outstanding < depth && !sent < limit && now () < stop do
      let i = !sent in
      Printf.bprintf batch "c%d predict %s\n" i reqs.asm.(reqs.closed.(i mod len));
      c.outstanding <- c.outstanding + 1;
      incr sent;
      if !sent = limit then last_send := now ()
    done;
    if Buffer.length batch > 0 then write_all c (Buffer.contents batch)
  in
  List.iter fill conns;
  while List.exists (fun c -> c.outstanding > 0) conns do
    if now () > stop +. 60.0 then die "closed loop stalled";
    List.iter
      (fun c ->
        let t = now () in
        pump c (fun line ->
            c.outstanding <- c.outstanding - 1;
            completions := (t, 0.0) :: !completions;
            on_line line);
        fill c)
      (readable conns 0.05)
  done;
  let t1 = Float.min stop !last_send in
  ( !sent,
    if t1 -. t0 < width then [||]
    else
      Array.map
        (fun w -> float_of_int (Array.length w) /. width)
        (Harness.windows ~width ~t0 ~t1 !completions) )

(* Open loop: request [first + j] is due [j / rate] seconds after the
   start and goes out on connection [j mod 2] as soon as it is due; its
   latency runs from the due time.  Returns due times, send times and
   latencies, indexed by [j].

   When the generator falls behind (the machine stalled), it catches up
   with two limits.  At most [burst] requests go out between two reads
   of the replies: writes block, and a long backlog sent without reading
   would fill the reply buffers until the router's writes and then ours
   wait on each other.  At most [max_inflight] requests are unanswered,
   the router's per-shard window, so the backlog waits here, where its
   lateness still counts in its latency, instead of the router answering
   it from the bound fallback. *)
let burst = 64

let open_round conns reqs ~rate ~first ~count ~on_line =
  let conns_a = Array.of_list conns in
  let t0 = now () +. 0.01 in
  let due = Array.init count (fun j -> t0 +. (float_of_int j /. rate)) in
  let sent_at = Array.make count 0.0 and latency = Array.make count Float.nan in
  let next = ref 0 and replies = ref 0 in
  let finish = due.(count - 1) +. 60.0 in
  while !replies < count do
    if now () > finish then die "open loop stalled: %d/%d answered" !replies count;
    let t = now () in
    let last = Int.min count (Int.min (!next + burst) (!replies + max_inflight)) in
    while !next < last && due.(!next) <= t do
      let j = !next in
      send conns_a.(j mod Array.length conns_a)
        (Printf.sprintf "o%d predict %s" (first + j) reqs.asm.(reqs.open_.(first + j)));
      sent_at.(j) <- now ();
      incr next
    done;
    let timeout =
      if !next < count && !next < !replies + max_inflight then
        Float.max 0.0 (due.(!next) -. now ())
      else 0.05
    in
    List.iter
      (fun c ->
        let t = now () in
        pump c (fun line ->
            incr replies;
            Option.iter (fun i -> latency.(i - first) <- t -. due.(i - first)) (on_line line)))
      (readable conns timeout)
  done;
  (due, sent_at, latency)

(* ---- in-process replay (--trace 1) ---- *)

(* Time spent in one layer; every call runs on the draining thread
   (the runtime's pool has one domain). *)
type meter = { mutable calls : int; mutable busy : float }

let meter () = { calls = 0; busy = 0.0 }

(* Replays the closed-loop request list through [Runtime.submit]/[drain]
   in this process, with the CLI's backend chain, every backend and the
   lifecycle's shadow reference timed. *)
let replay_inprocess reqs ~surrogate ~budget =
  let drain_span = ref 0 in
  let timed m name f =
    let start = now () in
    let v = f () in
    let stop = now () in
    m.calls <- m.calls + 1;
    m.busy <- m.busy +. (stop -. start);
    Trace.record ~parent:!drain_span name ~start ~stop;
    v
  in
  let wrap m (b : Backend.t) =
    let name = "backend." ^ b.name in
    Backend.custom ?xstats:b.xstats
      ?batch:
        (Option.map
           (fun pb ~cycle_budget blocks -> timed m name (fun () -> pb ~cycle_budget blocks))
           b.predict_batch)
      b.name
      (fun ~cycle_budget block -> timed m name (fun () -> b.predict ~cycle_budget block))
  in
  let mca_m = meter () and sur_m = meter () and shadow_m = meter () in
  let mca = wrap mca_m (Backend.mca uarch) in
  let chain, lifecycle =
    match surrogate with
    | None -> ([ mca ], None)
    | Some model ->
        let lc =
          Lifecycle.create
            { Lifecycle.default_config with drift_band = 1e9; quantile_band = 1e9; seed = 42 }
            ~reference:(fun block ->
              timed shadow_m "lifecycle.shadow" (fun () ->
                  mca.predict ~cycle_budget:Runtime.default_config.cycle_budget block))
            (* the pinned bands never declare drift *)
            ~retrain:(fun ~init:_ _ -> failwith "e2e: unexpected surrogate retrain")
            ~features:None model
        in
        ([ wrap sur_m (Lifecycle.backend lc); mca ], Some lc)
  in
  let pool = Dt_util.Pool.create ~domains:1 () in
  let rt =
    Runtime.create ~pool ?lifecycle
      { Runtime.default_config with queue_capacity = 2048; batch = 16; seed = 42 }
      (chain @ [ Backend.bound uarch ])
  in
  let t = tally "p" in
  let len = Array.length reqs.closed in
  let lines =
    Array.init len (fun i -> Printf.sprintf "p%d predict %s" i reqs.asm.(reqs.closed.(i)))
  in
  let backend = if Option.is_some surrogate then "surrogate" else "mca" in
  let st =
    Fun.protect
      ~finally:(fun () ->
        Runtime.shutdown rt;
        Dt_util.Pool.shutdown pool)
      (fun () ->
        Trace.span ~parent:0 "replay" (fun root ->
            Harness.replay ~until:(now () +. budget) rt lines
              ~around_drain:(fun drain ->
                Trace.span ~parent:root "drain" (fun id ->
                    drain_span := id;
                    drain ()))
              ~respond:(fun i ~since line ->
                Trace.record ~parent:root ~rid:(Printf.sprintf "p%d" i) "request"
                  ~start:since ~stop:(now ());
                match claim t line with
                | Some j ->
                    judge t ~backend ~expect:reqs.expect.(reqs.closed.(j)) line
                | None -> ())))
  in
  (st, t, mca_m, sur_m, shadow_m)

let run_serve name =
  let w = serve_of name in
  (* a traced run gives half its time to the in-process replay *)
  let fleet_s = if !tracing then !seconds /. 2.0 else !seconds in
  let phase_s = fleet_s /. float_of_int (2 * rounds) in
  let per_round = int_of_float (w.rate *. phase_s) in
  let width = Float.min 1.0 phase_s in
  let open_n = rounds * per_round in
  let t0 = now () in
  let surrogate = if w.surrogate then Some (startup_surrogate ()) else None in
  let reference =
    match surrogate with
    | Some model -> Engine.ithemal_predict ~features:None model
    | None ->
        let params = Dt_mca.Params.default uarch in
        fun block -> Dt_mca.Pipeline.timing params block
  in
  let reqs = serve_inputs w ~closed_s:(phase_s *. float_of_int rounds) ~open_n ~reference in
  let inputs_s = now () -. t0 in
  let backend = if w.surrogate then "surrogate" else "mca" in
  (* set-up five times; the last fleet takes the load *)
  let setups = if !tracing then 1 else 5 in
  let rec spawn k acc =
    let f = spawn_fleet w k in
    if k = setups then (f, Array.of_list (f.setup_s :: acc))
    else begin
      shutdown_fleet f;
      spawn (k + 1) (f.setup_s :: acc)
    end
  in
  let fleet, setup = spawn 1 [] in
  let c0 = fleet.conn in
  let c1 = connect (Filename.concat fleet.dir "router.sock") ~deadline:(now () +. 10.0) in
  let conns = [ c0; c1 ] in
  let tc = tally "c" and to_ = tally "o" in
  let on_closed line =
    Option.iter
      (fun i -> judge tc ~backend ~expect:reqs.expect.(reqs.closed.(i mod Array.length reqs.closed)) line)
      (claim tc line)
  in
  let on_open line =
    let i = claim to_ line in
    Option.iter (fun i -> judge to_ ~backend ~expect:reqs.expect.(reqs.open_.(i)) line) i;
    i
  in
  let s0 = stats c0 "s0" in
  let sent_closed = ref 0 and rates = ref [] and opened = ref [] in
  for r = 0 to rounds - 1 do
    let next, window_rates =
      Trace.span ~parent:0 "fleet.closed" (fun _ ->
          closed_round conns reqs ~cycle:(not w.distinct) ~first:!sent_closed ~duration:phase_s
            ~width ~on_line:on_closed)
    in
    sent_closed := next;
    rates := window_rates :: !rates;
    let first = r * per_round in
    Trace.span ~parent:0 "fleet.open" (fun root ->
        let (due, _, latency) as o =
          open_round conns reqs ~rate:w.rate ~first ~count:per_round ~on_line:on_open
        in
        Array.iteri
          (fun j d ->
            Trace.record ~parent:root ~rid:(Printf.sprintf "o%d" (first + j)) "fleet.request"
              ~start:d ~stop:(d +. latency.(j)))
          due;
        opened := o :: !opened)
  done;
  let s2 = stats c0 "s2" in
  Unix.close c1.fd;
  shutdown_fleet fleet;
  let rates = Array.concat !rates in
  if Array.length rates = 0 then die "the closed loop ran out of requests";
  let sent_closed = !sent_closed in
  (* open-loop median: the median over windows (by due time) of each
     window's median latency *)
  let window_p50 =
    Array.concat
      (List.map
         (fun (due, _, latency) ->
           let t0 = due.(0) in
           Array.map Harness.median
             (Harness.windows ~width ~t0 ~t1:(t0 +. phase_s)
                (List.filter
                   (fun (_, l) -> Float.is_finite l)
                   (Array.to_list (Array.mapi (fun j d -> (d, latency.(j))) due)))))
         !opened)
  in
  let due = Array.concat (List.map (fun (d, _, _) -> d) !opened) in
  let sent_at = Array.concat (List.map (fun (_, s, _) -> s) !opened) in
  let latency = Array.concat (List.map (fun (_, _, l) -> l) !opened) in
  let late_max, late_n = Harness.lateness ~threshold:0.001 ~due ~sent:sent_at in
  let lat = Array.of_list (List.filter Float.is_finite (Array.to_list latency)) in
  Array.sort compare lat;
  let n_lat = Array.length lat in
  let ms x = 1000.0 *. x in
  let d k = stat s2 k -. stat s0 k in
  let retrains = stat s2 "fleet.lifecycle.retrains_started" in
  let fleet_problems =
    problems tc ~sent:sent_closed @ problems to_ ~sent:open_n
    @ if retrains > 0.0 then [ Printf.sprintf "%.0f surrogate retrains started" retrains ] else []
  in
  let attempted = sent_closed + open_n in
  let good = tc.good + to_.good in
  let hits = d "fleet.mca.cache_hits" and misses = d "fleet.mca.cache_misses" in
  let diagnostics =
    [
      ("inputs_s", inputs_s);
      ("closed.requests", float_of_int sent_closed);
      ("closed.rps", Harness.median rates);
      ("open.requests", float_of_int open_n);
      ("open.p50_all_ms", ms (Harness.median lat));
      ("open.rate_per_s", w.rate);
      ("open.p90_ms", ms (Harness.percentile lat 90.0));
      ("open.max_ms", ms lat.(n_lat - 1));
      ("open.late_ms_max", ms late_max);
      ("fleet.mca.cache_hit_pct", pct hits (hits +. misses));
      ("router.failovers", d "router.failovers");
      ("router.fallback_local", d "router.fallback_local");
      ("router.shed", d "router.shed");
    ]
    @
    match Harness.tail_percentile n_lat with
    | Some p -> [ (Printf.sprintf "open.p%g_ms" p, ms (Harness.percentile lat p)) ]
    | None -> []
  in
  if not !tracing then
    {
      attempted;
      failed = attempted - good;
      problems = fleet_problems;
      metrics =
        [
          ("setup_s", Harness.median setup, Array.length setup);
          ("p50_ms", ms (Harness.median window_p50), n_lat);
        ];
      diagnostics;
    }
  else begin
    let st, tr, mca_m, sur_m, shadow_m =
      replay_inprocess reqs ~surrogate ~budget:(!seconds /. 2.0)
    in
    let el = st.elapsed_s in
    let answered = tr.good + tr.bad in
    {
      attempted = attempted + st.submitted;
      failed = attempted - good + (st.submitted - tr.good);
      problems = fleet_problems @ problems tr ~sent:st.submitted;
      metrics =
        [
          ("serve.closed_rps", Harness.median rates, Array.length rates);
          ("serve.submit_pct", pct st.submit_s el, st.submitted);
          ("serve.drain_pct", pct st.drain_s el, st.drains);
          ("serve.batch_size_mean", float_of_int answered /. float_of_int (max 1 st.drains), st.drains);
          ("serve.inproc_rps", float_of_int answered /. el, answered);
          ("backend.surrogate_pct", pct sur_m.busy el, sur_m.calls);
          ("lifecycle.shadow_pct", pct shadow_m.busy el, shadow_m.calls);
          ("mca.us_per_call", 1e6 *. mca_m.busy /. float_of_int (max 1 mca_m.calls), mca_m.calls);
          ("mca.busy_pct", pct mca_m.busy el, mca_m.calls);
          ("simcache.serve_hit_pct", pct hits (hits +. misses), int_of_float (hits +. misses));
          ("fleet.queue_hwm", stat s2 "fleet.queue_hwm", shards);
          ("router.failovers", d "router.failovers", 1);
          ("router.fallback_local", d "router.fallback_local", 1);
          ("router.shed", d "router.shed", 1);
          ("lifecycle.shadow_scored", d "fleet.lifecycle.shadow_scored", 1);
          ("lifecycle.retrains_started", retrains, 1);
          ("client.late_pct", ipct late_n open_n, open_n);
        ];
      diagnostics;
    }
  end

(* ==================================================================== *)
(* reporting                                                            *)
(* ==================================================================== *)

let report name o =
  let declared_now = if !tracing then per_layer else end_to_end in
  List.iter
    (fun (m, _, _) ->
      if not (List.mem_assoc m declared_now) then
        die "metric %s is not declared in BENCHMARK.json" m)
    o.metrics;
  (* A per-layer metric of a layer this workload does not run reads 0;
     every end-to-end metric is measured on every workload. *)
  let metrics =
    List.map
      (fun (m, unit_) ->
        match List.find_opt (fun (n, _, _) -> n = m) o.metrics with
        | Some (_, v, k) -> (m, unit_, v, k)
        | None when !tracing -> (m, unit_, 0.0, 0)
        | None -> die "end-to-end metric %s was not measured" m)
      declared_now
  in
  let problems =
    o.problems
    @ List.filter_map
        (fun (m, _, v, _) ->
          if Float.is_finite v then None else Some (Printf.sprintf "%s is not finite" m))
        metrics
  in
  let correct = problems = [] in
  Printf.printf "== %s, seed %d, %g s%s\n" name !seed !seconds
    (if !tracing then ", traced" else "");
  List.iter (fun (m, u, v, k) -> Printf.printf "  %-30s %14.4f %-6s n=%d\n" m v u k) metrics;
  List.iter (fun (k, v) -> Printf.printf "  %-30s %14.4f (diagnostic)\n" k v) o.diagnostics;
  List.iter (fun p -> Printf.printf "  WRONG: %s\n" p) problems;
  let num x = Json.Num (if Float.is_finite x then x else 0.0) in
  let int i = Json.Num (float_of_int i) in
  let head =
    [
      ("correct", Json.Bool correct);
      ("attempted", int o.attempted);
      ("failed", int (max o.failed (if correct then 0 else 1)));
      ( "metrics",
        Json.Obj
          (List.map (fun (m, u, v, _) -> (m, Json.Obj [ ("value", num v); ("unit", Json.Str u) ])) metrics)
      );
    ]
  in
  let base =
    Filename.concat !out_dir
      (Printf.sprintf "%s-seed%d%s" name !seed (if !tracing then "-trace" else ""))
  in
  let oc = open_out (base ^ ".json") in
  output_string oc
    (Json.to_string
       (Json.Obj
          (head
          @ [
              ("workload", Json.Str name);
              ("seed", int !seed);
              ("seconds", num !seconds);
              ("samples", Json.Obj (List.map (fun (m, _, _, k) -> (m, int k)) metrics));
              ("diagnostics", Json.Obj (List.map (fun (k, v) -> (k, num v)) o.diagnostics));
              ("problems", Json.List (List.map (fun p -> Json.Str p) problems));
            ]))
    ^ "\n");
  close_out oc;
  if !tracing then Trace.write (Filename.concat !out_dir (Printf.sprintf "%s-seed%d.trace.jsonl" name !seed));
  print_endline (Json.to_string (Json.Obj head));
  correct

let () =
  mkdir_p !out_dir;
  let names = match !workload with Some w -> [ w ] | None -> workloads in
  let all_correct =
    List.fold_left
      (fun ok name ->
        ignore (Unix.alarm 170);
        let o = if name = "learn-quick" then run_learn () else run_serve name in
        report name o && ok)
      true names
  in
  exit (if all_correct then 0 else 1)
