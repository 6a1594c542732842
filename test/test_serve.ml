(* Tests for Dt_serve: protocol codec, circuit breaker (driven by an
   injected manual clock), cycle-budget deadlines through the real mca
   watchdog, the runtime's retry/degradation/shedding behaviour, and a
   mini fuzz pass over the two total decoders ([Parser.block_result] and
   [Protocol.decode]). *)

module Clock = Dt_serve.Clock
module Breaker = Dt_serve.Breaker
module Protocol = Dt_serve.Protocol
module Backend = Dt_serve.Backend
module Runtime = Dt_serve.Runtime
module Fault = Dt_difftune.Fault
module Faultsim = Dt_util.Faultsim
module Rng = Dt_util.Rng
module Uarch = Dt_refcpu.Uarch

let check = Alcotest.check

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let check_contains what ~affix s =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %S in %S" what affix s)
    true (contains ~affix s)

let asm = "addq %rax, %rbx"

(* ---- protocol ---- *)

let test_decode_valid () =
  (match Protocol.decode "7 predict addq %rax, %rbx" with
  | Ok ("7", Protocol.Predict a) -> check Alcotest.string "asm" asm a
  | _ -> Alcotest.fail "predict did not decode");
  (match Protocol.decode "  x   ping  " with
  | Ok ("x", Protocol.Ping) -> ()
  | _ -> Alcotest.fail "ping did not decode");
  (match Protocol.decode "a stats" with
  | Ok ("a", Protocol.Stats) -> ()
  | _ -> Alcotest.fail "stats did not decode");
  (match Protocol.decode "b flush" with
  | Ok ("b", Protocol.Flush) -> ()
  | _ -> Alcotest.fail "flush did not decode");
  match Protocol.decode "c shutdown" with
  | Ok ("c", Protocol.Shutdown) -> ()
  | _ -> Alcotest.fail "shutdown did not decode"

let test_decode_malformed () =
  let expect_error line want_id =
    match Protocol.decode line with
    | Error (id, Fault.Request_malformed _) ->
        check Alcotest.string ("id of " ^ line) want_id id
    | Error _ -> Alcotest.failf "%S: wrong fault" line
    | Ok _ -> Alcotest.failf "%S decoded" line
  in
  expect_error "" "-";
  expect_error "   " "-";
  expect_error "lonely" "lonely";
  expect_error "1 predict" "1";
  expect_error "1 ping extra" "1";
  expect_error "1 frobnicate %rax" "1"

let test_encode () =
  check Alcotest.string "ok"
    "7 ok cycles=1.5000 backend=mca"
    (Protocol.encode_response ~id:"7"
       (Protocol.Answer
          { cycles = 1.5; backend = "mca"; via = []; model = None }));
  check Alcotest.string "ok with model label"
    "7 ok cycles=1.5000 backend=surrogate model=v3"
    (Protocol.encode_response ~id:"7"
       (Protocol.Answer
          { cycles = 1.5; backend = "surrogate"; via = []; model = Some "v3" }));
  check Alcotest.string "degraded"
    "7 degraded cycles=2.0000 backend=bound via=surrogate:worker_fault,mca:deadline"
    (Protocol.encode_response ~id:"7"
       (Protocol.Answer
          {
            cycles = 2.0;
            backend = "bound";
            via = [ ("surrogate", "worker_fault"); ("mca", "deadline") ];
            model = None;
          }));
  check Alcotest.string "overloaded" "9 overloaded capacity=4"
    (Protocol.encode_response ~id:"9" (Protocol.Overloaded { capacity = 4 }));
  let err =
    Protocol.encode_response ~id:"e"
      (Protocol.Failed
         (Fault.Block_unparsable { line = 1; col = 3; detail = "junk" }))
  in
  check_contains "error kind" ~affix:"e error kind=parse msg=" err;
  (* ids are slugged so the response stays one tokenizable line *)
  let pong =
    {
      Protocol.version = Protocol.proto_version;
      uptime = 12.5;
      model = None;
      queue_depth = 3;
    }
  in
  let line = Protocol.encode_response ~id:"a b" (Protocol.Pong pong) in
  check_contains "slugged id" ~affix:"a_b pong" line;
  check_contains "pong payload" ~affix:"uptime=12.500" line;
  check_contains "pong modelless" ~affix:"model=-" line;
  check_contains "pong queue" ~affix:"queue_depth=3" line;
  (* the probe side parses the same line back *)
  (match Protocol.pong_of_line line with
  | Some p ->
      check Alcotest.int "pong version" Protocol.proto_version p.Protocol.version;
      check Alcotest.int "pong queue_depth" 3 p.Protocol.queue_depth;
      check Alcotest.bool "pong model" true (p.Protocol.model = None)
  | None -> Alcotest.fail "pong_of_line failed on an encoded pong");
  match
    Protocol.pong_of_line
      (Protocol.encode_response ~id:"q"
         (Protocol.Pong { pong with Protocol.model = Some "v4" }))
  with
  | Some p ->
      check Alcotest.(option string) "pong model version" (Some "v4")
        p.Protocol.model
  | None -> Alcotest.fail "pong_of_line failed on a model-labeled pong"

(* ---- breaker ---- *)

let test_breaker_cycle () =
  let clock, advance = Clock.manual () in
  let b = Breaker.create ~clock ~threshold:2 ~cooldown:5.0 "x" in
  check Alcotest.string "starts closed" "closed"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "closed admits" true (Breaker.acquire b);
  Breaker.failure b;
  Alcotest.(check bool) "still closed" true (Breaker.acquire b);
  Breaker.failure b;
  check Alcotest.string "opens at threshold" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "open rejects" false (Breaker.acquire b);
  advance 4.9;
  Alcotest.(check bool) "rejects before cooldown" false (Breaker.acquire b);
  advance 0.2;
  Alcotest.(check bool) "half-open admits probe" true (Breaker.acquire b);
  check Alcotest.string "half-open" "half_open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "probe slot taken" false (Breaker.acquire b);
  Breaker.success b;
  check Alcotest.string "probe success closes" "closed"
    (Breaker.state_name (Breaker.state b));
  let opened, half_opened, closed, rejected = Breaker.counters b in
  check Alcotest.int "opened" 1 opened;
  check Alcotest.int "half_opened" 1 half_opened;
  check Alcotest.int "closed" 1 closed;
  check Alcotest.int "rejected" 3 rejected

let test_breaker_reopen () =
  let clock, advance = Clock.manual () in
  let b = Breaker.create ~clock ~threshold:1 ~cooldown:2.0 "y" in
  Alcotest.(check bool) "admit" true (Breaker.acquire b);
  Breaker.failure b;
  check Alcotest.string "open" "open" (Breaker.state_name (Breaker.state b));
  advance 2.1;
  Alcotest.(check bool) "probe" true (Breaker.acquire b);
  Breaker.failure b;
  check Alcotest.string "failed probe reopens" "open"
    (Breaker.state_name (Breaker.state b));
  Alcotest.(check bool) "rejects again" false (Breaker.acquire b);
  advance 2.1;
  Alcotest.(check bool) "second probe" true (Breaker.acquire b);
  Breaker.success b;
  check Alcotest.string "recovers" "closed"
    (Breaker.state_name (Breaker.state b));
  let opened, half_opened, closed, _ = Breaker.counters b in
  check Alcotest.int "opened twice" 2 opened;
  check Alcotest.int "half_opened twice" 2 half_opened;
  check Alcotest.int "closed once" 1 closed

let test_breaker_validate () =
  let clock, _ = Clock.manual () in
  Alcotest.check_raises "threshold < 1"
    (Invalid_argument "Breaker.create: threshold must be >= 1") (fun () ->
      ignore (Breaker.create ~clock ~threshold:0 ~cooldown:1.0 "z"));
  Alcotest.check_raises "cooldown < 0"
    (Invalid_argument "Breaker.create: negative cooldown") (fun () ->
      ignore (Breaker.create ~clock ~threshold:1 ~cooldown:(-1.0) "z"))

(* ---- cycle-budget deadline through the real watchdog ---- *)

let block = Dt_x86.Block.parse asm

let pathological p =
  {
    p with
    Dt_mca.Params.write_latency =
      Array.map (fun _ -> 1_000_000) p.Dt_mca.Params.write_latency;
    port_map =
      Array.map
        (Array.map (fun c -> if c > 0 then 1_000_000 else 0))
        p.Dt_mca.Params.port_map;
  }

let test_budget_exceeded () =
  let p = pathological (Dt_mca.Params.default Uarch.Haswell) in
  match Dt_mca.Pipeline.timing p ~cycle_budget:50_000 block with
  | exception Dt_mca.Pipeline.Budget_exceeded { budget; retired; total } ->
      check Alcotest.int "budget" 50_000 budget;
      Alcotest.(check bool) "unretired work remains" true (retired < total)
  | v -> Alcotest.failf "pathological table finished: %f" v

let test_budget_no_effect_when_fast () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  let free = Dt_mca.Pipeline.timing p block in
  let bounded = Dt_mca.Pipeline.timing p ~cycle_budget:10_000_000 block in
  check (Alcotest.float 1e-9) "same timing" free bounded

let test_budget_validated () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  Alcotest.check_raises "cycle_budget must be positive"
    (Invalid_argument "Mca.Pipeline.timing: cycle_budget must be positive")
    (fun () ->
      ignore (Dt_mca.Pipeline.timing p ~cycle_budget:0 block))

let test_slow_block_site () =
  Faultsim.configure "serve.slow_block@1";
  Fun.protect ~finally:Faultsim.clear (fun () ->
      let b = Backend.mca Uarch.Haswell in
      (match b.Backend.predict ~cycle_budget:50_000 block with
      | exception Dt_mca.Pipeline.Budget_exceeded { budget; _ } ->
          check Alcotest.int "budget carried" 50_000 budget
      | v -> Alcotest.failf "armed slow block finished: %f" v);
      (* the next call uses the real table again *)
      Alcotest.(check bool) "recovers after the armed hit" true
        (b.Backend.predict ~cycle_budget:50_000 block > 0.0))

(* ---- runtime ---- *)

let mk_runtime ?(cfg = Runtime.default_config) backends =
  let clock, advance = Clock.manual () in
  let pool = Dt_util.Pool.create ~domains:1 () in
  let rt = Runtime.create ~pool ~clock cfg backends in
  (rt, advance, fun () -> Dt_util.Pool.shutdown pool)

let collector () =
  let acc = ref [] in
  ((fun line -> acc := line :: !acc), fun () -> List.rev !acc)

let stat rt key =
  match List.assoc_opt key (Runtime.stats_pairs rt) with
  | Some v -> v
  | None -> Alcotest.failf "stat %s missing" key

let submit_ok rt ~respond line =
  match Runtime.submit rt ~line ~respond with
  | `Ok -> ()
  | `Shutdown -> Alcotest.fail "unexpected shutdown"

let test_runtime_ok () =
  let rt, _, stop =
    mk_runtime [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 42.0) ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      submit_ok rt ~respond ("1 predict " ^ asm);
      check Alcotest.int "queued, not answered" 0 (List.length (got ()));
      check Alcotest.int "drained one" 1 (Runtime.drain_all rt);
      check
        Alcotest.(list string)
        "response" [ "1 ok cycles=42.0000 backend=fast" ] (got ());
      check Alcotest.string "ok counted" "1" (stat rt "ok"))

let test_runtime_degrades_after_retries () =
  let cfg = { Runtime.default_config with max_retries = 1; seed = 5 } in
  let rt, _, stop =
    mk_runtime ~cfg
      [
        Backend.custom "a" (fun ~cycle_budget:_ _ -> failwith "boom");
        Backend.custom "b" (fun ~cycle_budget:_ _ -> 7.0);
      ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      submit_ok rt ~respond ("1 predict " ^ asm);
      ignore (Runtime.drain_all rt);
      check
        Alcotest.(list string)
        "labeled fallback"
        [ "1 degraded cycles=7.0000 backend=b via=a:worker_fault" ]
        (got ());
      check Alcotest.string "a retried once" "1" (stat rt "a.retries");
      check Alcotest.string "a two faults" "2" (stat rt "a.faults");
      check Alcotest.string "a exhausted" "1" (stat rt "a.exhausted");
      check Alcotest.string "b served fallback" "1" (stat rt "b.fallbacks");
      check Alcotest.string "degraded counted" "1" (stat rt "degraded"))

let test_runtime_deadline_terminal () =
  (* Deadline overruns are terminal per backend: no retry burns another
     budget, and a single-backend chain maps to Deadline_exceeded. *)
  let cfg = { Runtime.default_config with max_retries = 3 } in
  let slow ~cycle_budget _ =
    raise
      (Dt_mca.Pipeline.Budget_exceeded
         { budget = cycle_budget; retired = 0; total = 1 })
  in
  let rt, _, stop = mk_runtime ~cfg [ Backend.custom "slow" slow ] in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      submit_ok rt ~respond ("1 predict " ^ asm);
      ignore (Runtime.drain_all rt);
      (match got () with
      | [ line ] -> check_contains "deadline error" ~affix:"1 error kind=deadline" line
      | other -> Alcotest.failf "%d responses" (List.length other));
      check Alcotest.string "timeout counted" "1" (stat rt "slow.timeouts");
      check Alcotest.string "deadline not retried" "0" (stat rt "slow.retries"))

let test_runtime_non_finite_is_transient () =
  let cfg = { Runtime.default_config with max_retries = 0 } in
  let rt, _, stop =
    mk_runtime ~cfg
      [
        Backend.custom "nanny" (fun ~cycle_budget:_ _ -> Float.nan);
        Backend.custom "b" (fun ~cycle_budget:_ _ -> 3.0);
      ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      submit_ok rt ~respond ("1 predict " ^ asm);
      ignore (Runtime.drain_all rt);
      check
        Alcotest.(list string)
        "nan treated as fault"
        [ "1 degraded cycles=3.0000 backend=b via=nanny:non_finite" ]
        (got ()))

let test_runtime_breaker_trip_and_recover () =
  let failing = ref true in
  let flaky ~cycle_budget:_ _ =
    if !failing then failwith "down" else 5.0
  in
  let cfg =
    {
      Runtime.default_config with
      max_retries = 0;
      breaker_threshold = 2;
      breaker_cooldown = 10.0;
    }
  in
  let rt, advance, stop =
    mk_runtime ~cfg
      [
        Backend.custom "flaky" flaky;
        Backend.custom "backup" (fun ~cycle_budget:_ _ -> 1.0);
      ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      let ask id =
        submit_ok rt ~respond (Printf.sprintf "%d predict %s" id asm);
        ignore (Runtime.drain_all rt)
      in
      ask 1;
      ask 2;
      (* two consecutive failures opened the breaker; request 3 is
         skipped without touching the flaky backend *)
      check Alcotest.string "breaker open" "open" (stat rt "flaky.breaker_state");
      ask 3;
      advance 11.0;
      failing := false;
      ask 4 (* half-open probe succeeds and closes the breaker *);
      check
        Alcotest.(list string)
        "breaker chain labels"
        [
          "1 degraded cycles=1.0000 backend=backup via=flaky:worker_fault";
          "2 degraded cycles=1.0000 backend=backup via=flaky:worker_fault";
          "3 degraded cycles=1.0000 backend=backup via=flaky:breaker_open";
          "4 ok cycles=5.0000 backend=flaky";
        ]
        (got ());
      check Alcotest.string "skip counted" "1" (stat rt "flaky.breaker_skips");
      check Alcotest.string "opened" "1" (stat rt "flaky.breaker_opened");
      check Alcotest.string "half-opened" "1"
        (stat rt "flaky.breaker_half_opened");
      check Alcotest.string "closed again" "closed"
        (stat rt "flaky.breaker_state"))

let test_runtime_overload_sheds () =
  let cfg = { Runtime.default_config with queue_capacity = 2 } in
  let rt, _, stop =
    mk_runtime ~cfg [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 1.0) ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      for i = 1 to 4 do
        submit_ok rt ~respond (Printf.sprintf "%d predict %s" i asm)
      done;
      (* sheds answered immediately, in submit order, before any drain *)
      check
        Alcotest.(list string)
        "sheds are explicit"
        [ "3 overloaded capacity=2"; "4 overloaded capacity=2" ]
        (got ());
      check Alcotest.int "admitted two" 2 (Runtime.drain_all rt);
      check Alcotest.int "every request answered" 4 (List.length (got ()));
      check Alcotest.string "overloaded counted" "2" (stat rt "overloaded");
      check Alcotest.string "hwm" "2" (stat rt "queue_hwm"))

let test_runtime_control_verbs () =
  let rt, _, stop =
    mk_runtime [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 1.0) ]
  in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      submit_ok rt ~respond "p ping";
      submit_ok rt ~respond ("1 predict " ^ asm);
      submit_ok rt ~respond "f flush";
      (match Runtime.submit rt ~line:"z shutdown" ~respond with
      | `Shutdown -> ()
      | `Ok -> Alcotest.fail "shutdown not signalled");
      (match got () with
      | [ pong; answer; flushed; bye ] ->
          check_contains "pong" ~affix:"p pong version=" pong;
          check_contains "queued answer drained by flush" ~affix:"1 ok" answer;
          check Alcotest.string "flush reports count" "f ok flushed=1" flushed;
          check Alcotest.string "bye" "z ok shutdown" bye
      | other -> Alcotest.failf "%d responses" (List.length other));
      let respond2, got2 = collector () in
      submit_ok rt ~respond:respond2 "s stats";
      match got2 () with
      | [ line ] -> check_contains "stats line" ~affix:"s stats received=" line
      | _ -> Alcotest.fail "stats not answered")

let test_runtime_malformed_input_site () =
  Faultsim.configure "serve.malformed_input@1";
  Fun.protect ~finally:Faultsim.clear (fun () ->
      let rt, _, stop =
        mk_runtime [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 1.0) ]
      in
      Fun.protect ~finally:stop (fun () ->
          let respond, got = collector () in
          submit_ok rt ~respond ("1 predict " ^ asm);
          submit_ok rt ~respond ("2 predict " ^ asm);
          ignore (Runtime.drain_all rt);
          match got () with
          | [ first; second ] ->
              (* the corrupted tail still reaches the right caller as a
                 structured parse error; request 2 is untouched *)
              check_contains "corrupted request" ~affix:"1 error kind=parse"
                first;
              check_contains "later request unaffected" ~affix:"2 ok" second
          | other -> Alcotest.failf "%d responses" (List.length other)))

let test_runtime_worker_crash_site () =
  Faultsim.configure "serve.worker_crash@1";
  Fun.protect ~finally:Faultsim.clear (fun () ->
      let cfg = { Runtime.default_config with max_retries = 1 } in
      let rt, _, stop =
        mk_runtime ~cfg [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 2.0) ]
      in
      Fun.protect ~finally:stop (fun () ->
          let respond, got = collector () in
          submit_ok rt ~respond ("1 predict " ^ asm);
          ignore (Runtime.drain_all rt);
          check
            Alcotest.(list string)
            "retry recovers from injected crash"
            [ "1 ok cycles=2.0000 backend=fast" ]
            (got ());
          check Alcotest.string "retried" "1" (stat rt "fast.retries")))

(* ---- parser error context / lenient CSV ---- *)

let test_parser_error_context () =
  (match Dt_x86.Parser.block_result asm with
  | Ok [ _ ] -> ()
  | Ok l -> Alcotest.failf "%d instructions" (List.length l)
  | Error e -> Alcotest.failf "valid block rejected: %s" e.msg);
  (match Dt_x86.Parser.block_result "nop\n@junk %zz" with
  | Error e ->
      check Alcotest.int "second line" 2 e.line;
      check Alcotest.int "column" 0 e.col;
      Alcotest.(check bool) "message" true (String.length e.msg > 0)
  | Ok _ -> Alcotest.fail "junk accepted");
  match Dt_x86.Parser.block_result (asm ^ " ; !bad") with
  | Error e ->
      check Alcotest.int "same line" 1 e.line;
      Alcotest.(check bool) "column points into the bad segment" true
        (e.col > String.length asm)
  | Ok _ -> Alcotest.fail "bad segment accepted"

let test_export_lenient () =
  let good = Printf.sprintf "\"%s\",1.250000,toy,app" asm in
  let text =
    String.concat "\n"
      [ good; "unquoted,1.0,x,y"; ""; Printf.sprintf "\"%s\",notanum,x,y" asm ]
  in
  let rows, bad = Dt_bhive.Export.parse_csv_lenient text in
  check Alcotest.int "good rows" 1 (Array.length rows);
  check
    Alcotest.(list int)
    "quarantined lines" [ 2; 4 ]
    (List.map (fun (b : Dt_bhive.Export.bad_row) -> b.line) bad)

(* ---- fuzz: the two total decoders must never raise ---- *)

let never_raises what f input =
  match f input with
  | _ -> ()
  | exception e ->
      Alcotest.failf "%s raised %s on %S" what (Printexc.to_string e) input

let random_string rng max_len =
  let len = Rng.int rng (max_len + 1) in
  String.init len (fun _ -> Char.chr (Rng.int rng 256))

let mutate rng s =
  if s = "" then s
  else
    match Rng.int rng 3 with
    | 0 -> String.sub s 0 (Rng.int rng (String.length s)) (* truncate *)
    | 1 ->
        let b = Bytes.of_string s in
        Bytes.set b (Rng.int rng (Bytes.length b)) (Char.chr (Rng.int rng 256));
        Bytes.to_string b
    | _ -> s ^ random_string rng 8

let test_fuzz_decoders () =
  let rng = Rng.create 2024 in
  let seeds =
    [
      asm;
      "addq %rax, %rbx ; movq 8(%rsp), %rcx ; imulq %rdx, %rax";
      "1 predict " ^ asm;
      "id stats";
      "x shutdown";
    ]
  in
  for _ = 1 to 400 do
    let raw = random_string rng 80 in
    never_raises "Parser.block_result"
      (fun s -> ignore (Dt_x86.Parser.block_result s))
      raw;
    never_raises "Protocol.decode" (fun s -> ignore (Protocol.decode s)) raw;
    List.iter
      (fun seed ->
        let bent = mutate rng (mutate rng seed) in
        never_raises "Parser.block_result (mutated)"
          (fun s -> ignore (Dt_x86.Parser.block_result s))
          bent;
        never_raises "Protocol.decode (mutated)"
          (fun s -> ignore (Protocol.decode s))
          bent)
      seeds
  done

(* ---- batched lane-0 prefetch and the mca memo cache ---- *)

let test_batched_prefetch () =
  (* A lane-0 backend with a batched entry point serves the whole drained
     batch from one call; its scalar path must stay cold. *)
  let batch_calls = ref 0 and scalar_calls = ref 0 in
  let backend =
    Backend.custom "batched"
      ~batch:(fun ~cycle_budget:_ blocks ->
        incr batch_calls;
        Array.map (fun _ -> 9.0) blocks)
      (fun ~cycle_budget:_ _ ->
        incr scalar_calls;
        9.0)
  in
  let rt, _, stop = mk_runtime [ backend ] in
  Fun.protect ~finally:stop (fun () ->
      let respond, got = collector () in
      for i = 1 to 3 do
        submit_ok rt ~respond (Printf.sprintf "%d predict %s" i asm)
      done;
      check Alcotest.int "drained three" 3 (Runtime.drain_all rt);
      List.iter
        (fun line ->
          Alcotest.(check bool)
            (Printf.sprintf "ok answer (%s)" line)
            true
            (String.length line > 2
            && String.sub line 2 (min 2 (String.length line - 2)) = "ok"))
        (got ());
      check Alcotest.int "one batched call" 1 !batch_calls;
      check Alcotest.int "scalar path cold" 0 !scalar_calls;
      check Alcotest.string "all counted ok" "3" (stat rt "ok"))

let test_batched_prefetch_degrades () =
  (* A failing batched entry point must not cost any request: every entry
     falls back to the scalar path transparently. *)
  let backend =
    Backend.custom "flaky_batch"
      ~batch:(fun ~cycle_budget:_ _ -> failwith "batch down")
      (fun ~cycle_budget:_ _ -> 4.0)
  in
  let rt, _, stop = mk_runtime [ backend ] in
  Fun.protect ~finally:stop (fun () ->
      let respond, _ = collector () in
      submit_ok rt ~respond ("1 predict " ^ asm);
      submit_ok rt ~respond ("2 predict " ^ asm);
      check Alcotest.int "drained both" 2 (Runtime.drain_all rt);
      check Alcotest.string "both ok" "2" (stat rt "ok");
      (* the batch failure is invisible to breaker accounting *)
      check Alcotest.string "no faults" "0" (stat rt "flaky_batch.faults"))

let test_mca_cache () =
  let b = Backend.mca Uarch.Haswell in
  let v1 = b.Backend.predict ~cycle_budget:200_000 block in
  let v2 = b.Backend.predict ~cycle_budget:200_000 block in
  check (Alcotest.float 0.0) "memoized value identical" v1 v2;
  (match b.Backend.xstats with
  | None -> Alcotest.fail "mca backend should expose cache stats"
  | Some f ->
      let pairs = f () in
      check Alcotest.(option string) "one hit" (Some "1")
        (List.assoc_opt "cache_hits" pairs);
      check Alcotest.(option string) "one miss" (Some "1")
        (List.assoc_opt "cache_misses" pairs));
  (* the cache counters surface through the runtime stats verb *)
  let rt, _, stop = mk_runtime [ b ] in
  Fun.protect ~finally:stop (fun () ->
      check Alcotest.string "hits in stats" "1" (stat rt "mca.cache_hits"))

let test_fuzz_agrees_with_block () =
  (* block_result Ok iff block does not raise, and the values agree *)
  let rng = Rng.create 7 in
  for _ = 1 to 200 do
    let s = mutate rng (asm ^ " ; subq %rcx, %rdx") in
    let total = Dt_x86.Parser.block_result s in
    match Dt_x86.Parser.block s with
    | b -> (
        match total with
        | Ok a when a = b -> ()
        | Ok _ -> Alcotest.failf "disagree on %S" s
        | Error _ ->
            Alcotest.failf "block accepted what block_result rejected: %S" s)
    | exception Dt_x86.Parser.Parse_error _ -> (
        match total with
        | Error _ -> ()
        | Ok _ ->
            Alcotest.failf "block_result accepted what block rejected: %S" s)
  done

(* ---- Conn: the non-blocking line connection ---- *)

module Conn = Dt_serve.Conn

let with_pair f =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let prev = Sys.signal Sys.sigpipe Sys.Signal_ignore in
  Fun.protect
    ~finally:(fun () ->
      Sys.set_signal Sys.sigpipe prev;
      List.iter
        (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        [ a; b ])
    (fun () -> f a b)

(* Everything readable on non-blocking [fd] right now. *)
let read_available fd =
  let buf = Buffer.create 4096 and chunk = Bytes.create 65536 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  in
  go ();
  Buffer.contents buf

let test_conn_eagain_in_order () =
  with_pair @@ fun a b ->
  let c = Conn.create a in
  Unix.set_nonblock b;
  (* send until the socket is full and then past the read-stop bound *)
  let sent = ref 0 in
  while Conn.reading c do
    check Alcotest.bool "queued, not dropped" true
      (Conn.send c (Printf.sprintf "line %d" !sent));
    incr sent
  done;
  check Alcotest.bool "output queued under EAGAIN" true (Conn.has_output c);
  let got = Buffer.create (16 * !sent) in
  let rounds = ref 0 in
  while (Conn.has_output c || Buffer.length got = 0) && !rounds < 10_000 do
    Buffer.add_string got (read_available b);
    Conn.flush c;
    incr rounds
  done;
  Buffer.add_string got (read_available b);
  check Alcotest.bool "queue drained" false (Conn.has_output c);
  check Alcotest.bool "reading again" true (Conn.reading c);
  let lines = String.split_on_char '\n' (Buffer.contents got) in
  check Alcotest.int "every line once, then the final newline" (!sent + 1)
    (List.length lines);
  List.iteri
    (fun i l ->
      if i < !sent then
        check Alcotest.string "in order" (Printf.sprintf "line %d" i) l)
    lines

let test_conn_split_line () =
  with_pair @@ fun a b ->
  let c = Conn.create b in
  let put s = ignore (Unix.write_substring a s 0 (String.length s)) in
  check Alcotest.(list string) "no newline yet" [] (Conn.read c);
  put "1 pi";
  check Alcotest.(list string) "partial line held" [] (Conn.read c);
  put "ng\n2 st";
  check Alcotest.(list string) "reassembled" [ "1 ping" ] (Conn.read c);
  put "ats\n3 ping\n";
  check Alcotest.(list string) "two lines" [ "2 stats"; "3 ping" ]
    (Conn.read c);
  Unix.close a;
  check Alcotest.(list string) "eof" [] (Conn.read c);
  check Alcotest.bool "eof marks dead" false (Conn.alive c)

let test_conn_peer_closed () =
  with_pair @@ fun a b ->
  let c = Conn.create a in
  Unix.close b;
  (* EPIPE on a write: marked dead, no exception *)
  check Alcotest.bool "send reports the dead peer" false (Conn.send c "1 ok");
  check Alcotest.bool "dead" false (Conn.alive c);
  check Alcotest.bool "nothing queued for a dead peer" false
    (Conn.has_output c);
  check Alcotest.bool "later sends dropped" false (Conn.send c "2 ok")

let test_conn_send_after_close () =
  with_pair @@ fun a b ->
  let c = Conn.create a in
  Conn.close c;
  Conn.close c;
  (* the closed descriptor's number is free for reuse: a send must not
     reach whatever socket now holds it *)
  let x, y = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close x; Unix.close y)
    (fun () ->
      check Alcotest.bool "send after close dropped" false (Conn.send c "1 ok");
      Conn.flush c;
      Unix.set_nonblock x;
      Unix.set_nonblock y;
      check Alcotest.string "nothing written to a reused fd" ""
        (read_available x ^ read_available y);
      Unix.set_nonblock b;
      check Alcotest.string "peer sees only end of stream" ""
        (read_available b))

let () =
  Alcotest.run "dt_serve"
    [
      ( "protocol",
        [
          Alcotest.test_case "decode valid" `Quick test_decode_valid;
          Alcotest.test_case "decode malformed" `Quick test_decode_malformed;
          Alcotest.test_case "encode" `Quick test_encode;
        ] );
      ( "breaker",
        [
          Alcotest.test_case "full cycle" `Quick test_breaker_cycle;
          Alcotest.test_case "failed probe reopens" `Quick test_breaker_reopen;
          Alcotest.test_case "validation" `Quick test_breaker_validate;
        ] );
      ( "deadline",
        [
          Alcotest.test_case "budget exceeded" `Quick test_budget_exceeded;
          Alcotest.test_case "budget no effect when fast" `Quick
            test_budget_no_effect_when_fast;
          Alcotest.test_case "budget validated" `Quick test_budget_validated;
          Alcotest.test_case "slow_block site" `Quick test_slow_block_site;
        ] );
      ( "runtime",
        [
          Alcotest.test_case "ok path" `Quick test_runtime_ok;
          Alcotest.test_case "degrades after retries" `Quick
            test_runtime_degrades_after_retries;
          Alcotest.test_case "deadline terminal" `Quick
            test_runtime_deadline_terminal;
          Alcotest.test_case "non-finite transient" `Quick
            test_runtime_non_finite_is_transient;
          Alcotest.test_case "breaker trip and recover" `Quick
            test_runtime_breaker_trip_and_recover;
          Alcotest.test_case "overload sheds" `Quick test_runtime_overload_sheds;
          Alcotest.test_case "control verbs" `Quick test_runtime_control_verbs;
          Alcotest.test_case "malformed_input site" `Quick
            test_runtime_malformed_input_site;
          Alcotest.test_case "batched prefetch" `Quick test_batched_prefetch;
          Alcotest.test_case "batched prefetch degrades" `Quick
            test_batched_prefetch_degrades;
          Alcotest.test_case "mca memo cache" `Quick test_mca_cache;
          Alcotest.test_case "worker_crash site" `Quick
            test_runtime_worker_crash_site;
        ] );
      ( "inputs",
        [
          Alcotest.test_case "parser error context" `Quick
            test_parser_error_context;
          Alcotest.test_case "lenient csv" `Quick test_export_lenient;
        ] );
      ( "conn",
        [
          Alcotest.test_case "EAGAIN output arrives in order once" `Quick
            test_conn_eagain_in_order;
          Alcotest.test_case "split line reassembled" `Quick
            test_conn_split_line;
          Alcotest.test_case "send after peer closed" `Quick
            test_conn_peer_closed;
          Alcotest.test_case "send after close dropped" `Quick
            test_conn_send_after_close;
        ] );
      ( "fuzz",
        [
          Alcotest.test_case "decoders never raise" `Quick test_fuzz_decoders;
          Alcotest.test_case "block_result agrees with block" `Quick
            test_fuzz_agrees_with_block;
        ] );
    ]
