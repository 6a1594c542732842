(* Tests for the dt_race suite: the Dt_util.Sync dynamic lock-order /
   race sanitizer (cycle detection on a manual 3-lock scenario, stamped
   guard races under Domain.spawn, owner confinement, unlock-on-
   exception) and the two seeded concurrency fault sites
   (race.unlocked_write through Simcache, race.lock_cycle through the
   serve runtime), each proven caught with DIFFTUNE_RACECHECK=1 and
   silent with it off.  Lint golden tests for the five lock-discipline
   rules live at the bottom, on fixtures under test/fixtures/. *)

module Sync = Dt_util.Sync
module Faultsim = Dt_util.Faultsim
module Simcache = Dt_difftune.Simcache
module Fault = Dt_difftune.Fault
module Backend = Dt_serve.Backend
module Runtime = Dt_serve.Runtime
module Clock = Dt_serve.Clock
module Protocol = Dt_serve.Protocol
module Lint = Dt_analysis.Lint

let check = Alcotest.check

(* Every scenario runs against a clean graph and restores the env-driven
   default afterwards, so tests cannot see each other's edges. *)
let with_racecheck on f =
  Sync.reset_graph ();
  Sync.set_racecheck on;
  Fun.protect
    ~finally:(fun () ->
      Sync.set_racecheck
        (match Sys.getenv_opt "DIFFTUNE_RACECHECK" with
        | Some s -> (
            match String.trim s with "" | "0" | "false" -> false | _ -> true)
        | None -> false);
      Sync.reset_graph ();
      Faultsim.clear ())
    f

let expect_cycle name ~chain_has f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Lock_cycle, got a value" name
  | exception Sync.Lock_cycle chain ->
      List.iter
        (fun l ->
          if not (List.mem l chain) then
            Alcotest.failf "%s: chain %s does not mention %s" name
              (String.concat "->" chain) l)
        chain_has
  | exception e ->
      Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

let expect_race name ~first ~second f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Race, got a value" name
  | exception Sync.Race r ->
      check Alcotest.string (name ^ ": first site") first r.first;
      check Alcotest.string (name ^ ": second site") second r.second
  | exception e ->
      Alcotest.failf "%s: unexpected exception %s" name (Printexc.to_string e)

(* ---- lock-order cycle detection ---- *)

(* a->b, b->c recorded; then c->a must close the 3-cycle before
   blocking. *)
let test_three_lock_cycle () =
  with_racecheck true (fun () ->
      let a = Sync.mutex "order.a"
      and b = Sync.mutex "order.b"
      and c = Sync.mutex "order.c" in
      Sync.with_lock a (fun () -> Sync.with_lock b (fun () -> ()));
      Sync.with_lock b (fun () -> Sync.with_lock c (fun () -> ()));
      expect_cycle "3-lock inversion"
        ~chain_has:[ "order.a"; "order.b"; "order.c" ] (fun () ->
          Sync.with_lock c (fun () -> Sync.with_lock a (fun () -> ())));
      let stats = Sync.stats () in
      check Alcotest.string "cycle counted" "1"
        (List.assoc "lock_cycles" stats))

let test_self_relock () =
  with_racecheck true (fun () ->
      let a = Sync.mutex "order.self" in
      expect_cycle "self relock" ~chain_has:[ "order.self" ] (fun () ->
          Sync.with_lock a (fun () -> Sync.with_lock a (fun () -> ()))))

(* Two instances sharing a name are one graph node: an inversion
   observed between different instances is still an inversion. *)
let test_cycle_across_instances () =
  with_racecheck true (fun () ->
      let a1 = Sync.mutex "order.inst_a" and b = Sync.mutex "order.inst_b" in
      let a2 = Sync.mutex "order.inst_a" in
      Sync.with_lock a1 (fun () -> Sync.with_lock b (fun () -> ()));
      expect_cycle "cross-instance inversion"
        ~chain_has:[ "order.inst_a"; "order.inst_b" ] (fun () ->
          Sync.with_lock b (fun () -> Sync.with_lock a2 (fun () -> ()))))

let test_consistent_order_quiet () =
  with_racecheck true (fun () ->
      let a = Sync.mutex "order.qa" and b = Sync.mutex "order.qb" in
      for _ = 1 to 100 do
        Sync.with_lock a (fun () -> Sync.with_lock b (fun () -> ()))
      done;
      check Alcotest.string "no cycles" "0"
        (List.assoc "lock_cycles" (Sync.stats ())))

(* The probe helper used by the race.lock_cycle fault site: raises under
   racecheck, runs to completion (no deadlock) without it. *)
let test_cycle_probe () =
  with_racecheck true (fun () ->
      let a = Sync.mutex "probe.a" and b = Sync.mutex "probe.b" in
      expect_cycle "cycle probe" ~chain_has:[ "probe.a"; "probe.b" ]
        (fun () -> Sync.cycle_probe a b));
  with_racecheck false (fun () ->
      let a = Sync.mutex "probe.a" and b = Sync.mutex "probe.b" in
      Sync.cycle_probe a b)

(* ---- exception safety ---- *)

let test_unlock_on_exception () =
  with_racecheck true (fun () ->
      let a = Sync.mutex "exn.a" in
      (try Sync.with_lock a (fun () -> failwith "boom")
       with Failure _ -> ());
      check Alcotest.bool "not held after raise" false (Sync.held_by_self a);
      (* The held-stack is clean: relocking is not a self-relock, and no
         spurious edge involves exn.a. *)
      Sync.with_lock a (fun () ->
          check Alcotest.bool "held inside" true (Sync.held_by_self a)))

(* ---- guard stamps ---- *)

let test_guard_sticky_token () =
  with_racecheck true (fun () ->
      let m = Sync.mutex "guard.m" in
      let g = Sync.guard "guard.lru" m in
      (* Unlocked access stamps; the *next locked* access reports it even
         though the two never overlapped in time — deterministic by
         design so a seeded race cannot escape a single-threaded test. *)
      Sync.check g ~site:"writer_no_lock";
      expect_race "sticky token" ~first:"writer_no_lock" ~second:"reader_locked"
        (fun () ->
          Sync.with_lock m (fun () -> Sync.check g ~site:"reader_locked")))

let test_guard_concurrent_holder () =
  with_racecheck true (fun () ->
      let m = Sync.mutex "guard.cm" in
      let g = Sync.guard "guard.cstruct" m in
      let in_lock = Atomic.make false and release = Atomic.make false in
      let holder =
        Domain.spawn (fun () ->
            Sync.with_lock m (fun () ->
                Atomic.set in_lock true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done))
      in
      while not (Atomic.get in_lock) do
        Domain.cpu_relax ()
      done;
      (* Another domain holds guard.cm right now: an unlocked access from
         here must raise immediately, naming the holder. *)
      (match Sync.check g ~site:"main_unlocked" with
      | () -> Alcotest.fail "unlocked access under a live holder passed"
      | exception Sync.Race r ->
          check Alcotest.string "second site" "main_unlocked" r.second;
          Alcotest.(check bool)
            "first names the holder" true
            (String.length r.first > 0));
      Atomic.set release true;
      Domain.join holder)

let test_guard_quiet_when_disciplined () =
  with_racecheck true (fun () ->
      let m = Sync.mutex "guard.qm" in
      let g = Sync.guard "guard.qstruct" m in
      for _ = 1 to 50 do
        Sync.with_lock m (fun () -> Sync.check g ~site:"disciplined")
      done;
      check Alcotest.string "no races" "0"
        (List.assoc "races" (Sync.stats ())))

let test_guard_silent_when_off () =
  with_racecheck false (fun () ->
      let m = Sync.mutex "guard.om" in
      let g = Sync.guard "guard.ostruct" m in
      Sync.check g ~site:"writer_no_lock";
      Sync.with_lock m (fun () -> Sync.check g ~site:"reader_locked"))

(* ---- owner confinement ---- *)

let test_owner_cross_domain () =
  with_racecheck true (fun () ->
      let o = Sync.owner "owner.confined" in
      let inside = Atomic.make false and release = Atomic.make false in
      let d =
        Domain.spawn (fun () ->
            Sync.with_owner o ~site:"spawned_domain" (fun () ->
                Atomic.set inside true;
                while not (Atomic.get release) do
                  Domain.cpu_relax ()
                done))
      in
      while not (Atomic.get inside) do
        Domain.cpu_relax ()
      done;
      expect_race "owner overlap" ~first:"spawned_domain" ~second:"main_domain"
        (fun () -> Sync.with_owner o ~site:"main_domain" (fun () -> ()));
      Atomic.set release true;
      Domain.join d)

let test_owner_reentrant () =
  with_racecheck true (fun () ->
      let o = Sync.owner "owner.reentrant" in
      Sync.with_owner o ~site:"outer" (fun () ->
          Sync.with_owner o ~site:"inner" (fun () -> ()));
      (* Sequential use from one domain is fine. *)
      Sync.with_owner o ~site:"again" (fun () -> ()))

(* ---- seeded fault sites, end to end ---- *)

(* race.unlocked_write: the armed Simcache.add mutates the LRU without
   its mutex.  The guard stamps the rogue site; the next disciplined
   access reports it with both sites. *)
let test_unlocked_write_site_caught () =
  with_racecheck true (fun () ->
      let c = Simcache.create ~capacity:8 in
      Simcache.add c "k0" 1.0;
      Faultsim.arm "race.unlocked_write" ~at:1;
      Simcache.add c "k1" 2.0;
      expect_race "seeded unlocked write" ~first:"Simcache.add"
        ~second:"Simcache.find" (fun () -> Simcache.find c "k1"))

let test_unlocked_write_site_missed_when_off () =
  with_racecheck false (fun () ->
      let c = Simcache.create ~capacity:8 in
      Faultsim.arm "race.unlocked_write" ~at:1;
      Simcache.add c "k1" 2.0;
      check
        Alcotest.(option (float 0.0))
        "silent race: value served" (Some 2.0) (Simcache.find c "k1"))

(* race.lock_cycle: the armed Runtime.process probes the queue lock
   against lane 0's breaker lock in both orders.  Under racecheck the
   request is answered with a structured `error kind=race` fault; with
   checking off every request succeeds. *)
let serve_with_armed_cycle () =
  let clock, _advance = Clock.manual () in
  let pool = Dt_util.Pool.create ~domains:1 () in
  let rt =
    Runtime.create ~pool ~clock Runtime.default_config
      [ Backend.custom "fast" (fun ~cycle_budget:_ _ -> 42.0) ]
  in
  Fun.protect ~finally:(fun () -> Dt_util.Pool.shutdown pool) @@ fun () ->
  Faultsim.arm "race.lock_cycle" ~at:1;
  let got = ref [] in
  let respond line = got := line :: !got in
  (match Runtime.submit rt ~line:"1 predict addq %rax, %rbx" ~respond with
  | `Ok -> ()
  | `Shutdown -> Alcotest.fail "unexpected shutdown");
  ignore (Runtime.drain_all rt);
  match !got with
  | [ line ] -> (rt, line)
  | lines -> Alcotest.failf "expected one response, got %d" (List.length lines)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_lock_cycle_site_caught () =
  with_racecheck true (fun () ->
      let rt, line = serve_with_armed_cycle () in
      Alcotest.(check bool)
        (Printf.sprintf "structured race error in %S" line)
        true
        (contains ~affix:"error kind=race" line
        && contains ~affix:"lock-order cycle" line);
      (* The runtime survives the verdict: the next request is served. *)
      let got = ref [] in
      (match
         Runtime.submit rt ~line:"2 predict addq %rax, %rbx"
           ~respond:(fun l -> got := l :: !got)
       with
      | `Ok -> ()
      | `Shutdown -> Alcotest.fail "unexpected shutdown");
      ignore (Runtime.drain_all rt);
      Alcotest.(check bool)
        "next request ok" true
        (match !got with [ l ] -> contains ~affix:"ok cycles=" l | _ -> false);
      (* ...and the verdict is visible in the exported stats. *)
      check Alcotest.string "cycle exported in stats" "1"
        (List.assoc "racecheck.lock_cycles" (Runtime.stats_pairs rt)))

let test_lock_cycle_site_missed_when_off () =
  with_racecheck false (fun () ->
      let _rt, line = serve_with_armed_cycle () in
      Alcotest.(check bool)
        (Printf.sprintf "probe silent, request served: %S" line)
        true
        (contains ~affix:"ok cycles=" line))

(* ---- the pool under racecheck ---- *)

(* The domain pool's handshake is the hottest correct locking in the
   tree: a full fan-out/fan-in cycle under racecheck must stay quiet. *)
let test_pool_quiet_under_racecheck () =
  with_racecheck true (fun () ->
      let pool = Dt_util.Pool.create ~domains:4 () in
      Fun.protect ~finally:(fun () -> Dt_util.Pool.shutdown pool) @@ fun () ->
      let hits = Array.make 64 0 in
      Dt_util.Pool.run pool 64 (fun i -> hits.(i) <- hits.(i) + 1);
      Alcotest.(check bool)
        "every index ran once" true
        (Array.for_all (fun h -> h = 1) hits);
      check Alcotest.string "no races" "0"
        (List.assoc "races" (Sync.stats ()));
      check Alcotest.string "no cycles" "0"
        (List.assoc "lock_cycles" (Sync.stats ())))

(* ---- fault taxonomy plumbing ---- *)

let test_fault_strings () =
  check Alcotest.string "lock cycle rendering"
    "lock-order cycle (potential deadlock): a -> b -> a"
    (Fault.to_string (Fault.Lock_cycle { chain = [ "a"; "b"; "a" ] }));
  check Alcotest.string "race rendering"
    "unlocked concurrent access to lru (w vs r)"
    (Fault.to_string (Fault.Race { structure = "lru"; first = "w"; second = "r" }));
  check Alcotest.string "race wire kind" "race"
    (Protocol.kind_of_fault (Fault.Race { structure = ""; first = ""; second = "" }));
  check Alcotest.string "cycle wire kind" "race"
    (Protocol.kind_of_fault (Fault.Lock_cycle { chain = [] }))

(* ---- lint golden tests for the lock-discipline rules ---- *)

let read_fixture name =
  let path = Filename.concat "fixtures" name in
  let path =
    if Sys.file_exists path then path else Filename.concat "test" path
  in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lint_fixture ?(path = "lib/serve/fixture.ml") ?only name =
  Lint.lint_string ~path ?only (read_fixture name)

let check_findings name (findings : Lint.finding list) expected =
  Alcotest.(check (list (pair string int)))
    name expected
    (List.map (fun (f : Lint.finding) -> (f.Lint.rule, f.Lint.line)) findings)

let test_lint_clean_under_race_rules () =
  let findings, suppressed = lint_fixture "clean.ml" in
  check_findings "clean fixture stays clean" findings [];
  Alcotest.(check int) "no suppressions" 0 suppressed;
  List.iter
    (fun n ->
      Alcotest.(check bool)
        (n ^ " registered") true
        (List.exists (fun (r : Lint.rule) -> r.Lint.name = n) Lint.rules))
    [
      "unguarded-mutation"; "lock-no-protect"; "blocking-under-lock";
      "lock-order"; "atomic-rmw";
    ]

(* Unlocked mutations of cataloged fields fire at the cataloged path;
   locked thunks, raw-lock sequences, *_locked helpers and [create] are
   in scope; at an uncataloged path the rule stays silent. *)
let test_lint_unguarded_mutation () =
  let findings, suppressed =
    lint_fixture ~path:"lib/util/pool.ml" "race_unguarded.ml"
  in
  check_findings "unlocked mutations flagged" findings
    [ ("unguarded-mutation", 6); ("unguarded-mutation", 7) ];
  Alcotest.(check int) "raw lock suppressed by pool whitelist" 1 suppressed;
  let findings, _ =
    lint_fixture ~path:"lib/serve/server.ml"
      ~only:[ "unguarded-mutation" ] "race_unguarded.ml"
  in
  check_findings "uncataloged path out of scope" findings []

let test_lint_lock_no_protect () =
  let findings, suppressed = lint_fixture "race_lock_protect.ml" in
  check_findings "raw lock without Fun.protect flagged" findings
    [ ("lock-no-protect", 4) ];
  Alcotest.(check int) "sanctioned idiom clean" 0 suppressed;
  let findings, suppressed =
    lint_fixture ~path:"lib/util/pool.ml" "race_lock_protect.ml"
  in
  check_findings "pool handshake whitelisted" findings [];
  Alcotest.(check int) "whitelisting counted" 1 suppressed

let test_lint_blocking_under_lock () =
  let findings, _ = lint_fixture "race_blocking.ml" in
  check_findings "sleep/join/bare-wait/socket write under lock flagged"
    findings
    [
      ("blocking-under-lock", 3); ("blocking-under-lock", 5);
      ("blocking-under-lock", 7); ("blocking-under-lock", 17);
    ];
  let findings, suppressed =
    lint_fixture ~path:"lib/util/sync.ml" "race_blocking.ml"
  in
  check_findings "sync wrapper whitelisted" findings [];
  Alcotest.(check int) "whitelisting counted" 4 suppressed

let test_lint_lock_order () =
  let findings, _ = lint_fixture "race_lock_order.ml" in
  check_findings "inversion and self-relock flagged" findings
    [ ("lock-order", 5); ("lock-order", 9) ];
  (* At the runtime path [m] is ranked innermost, so the locked thunk
     calling Breaker.counters is the stats_pairs inversion. *)
  let findings, _ =
    lint_fixture ~path:"lib/serve/runtime.ml" "race_lock_order.ml"
  in
  check_findings "point acquisition inversion flagged" findings
    [ ("lock-order", 5); ("lock-order", 9); ("lock-order", 24) ]

let test_lint_atomic_rmw () =
  let findings, _ = lint_fixture "race_atomic_rmw.ml" in
  check_findings "get-inside-set flagged" findings
    [ ("atomic-rmw", 3); ("atomic-rmw", 5) ];
  let findings, _ =
    lint_fixture ~only:[ "lock-no-protect" ] "race_atomic_rmw.ml"
  in
  check_findings "--only filter excludes other rules" findings []

let lint_tests =
  [
    Alcotest.test_case "clean under race rules" `Quick
      test_lint_clean_under_race_rules;
    Alcotest.test_case "unguarded mutation" `Quick
      test_lint_unguarded_mutation;
    Alcotest.test_case "lock without protect" `Quick
      test_lint_lock_no_protect;
    Alcotest.test_case "blocking under lock" `Quick
      test_lint_blocking_under_lock;
    Alcotest.test_case "lock order" `Quick test_lint_lock_order;
    Alcotest.test_case "atomic rmw" `Quick test_lint_atomic_rmw;
  ]

let () =
  Alcotest.run "race"
    [
      ( "lock-order",
        [
          Alcotest.test_case "3-lock cycle" `Quick test_three_lock_cycle;
          Alcotest.test_case "self relock" `Quick test_self_relock;
          Alcotest.test_case "cycle across instances" `Quick
            test_cycle_across_instances;
          Alcotest.test_case "consistent order quiet" `Quick
            test_consistent_order_quiet;
          Alcotest.test_case "cycle probe" `Quick test_cycle_probe;
          Alcotest.test_case "unlock on exception" `Quick
            test_unlock_on_exception;
        ] );
      ( "guards",
        [
          Alcotest.test_case "sticky unlocked token" `Quick
            test_guard_sticky_token;
          Alcotest.test_case "concurrent holder" `Quick
            test_guard_concurrent_holder;
          Alcotest.test_case "disciplined access quiet" `Quick
            test_guard_quiet_when_disciplined;
          Alcotest.test_case "silent when off" `Quick
            test_guard_silent_when_off;
          Alcotest.test_case "owner cross-domain" `Quick
            test_owner_cross_domain;
          Alcotest.test_case "owner reentrant" `Quick test_owner_reentrant;
        ] );
      ( "sites",
        [
          Alcotest.test_case "race.unlocked_write caught" `Quick
            test_unlocked_write_site_caught;
          Alcotest.test_case "race.unlocked_write missed when off" `Quick
            test_unlocked_write_site_missed_when_off;
          Alcotest.test_case "race.lock_cycle caught" `Quick
            test_lock_cycle_site_caught;
          Alcotest.test_case "race.lock_cycle missed when off" `Quick
            test_lock_cycle_site_missed_when_off;
          Alcotest.test_case "pool quiet under racecheck" `Quick
            test_pool_quiet_under_racecheck;
          Alcotest.test_case "fault taxonomy" `Quick test_fault_strings;
        ] );
      ("lint", lint_tests);
    ]
