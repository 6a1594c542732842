(* Tests for Dt_cluster: consistent-hash ring, health hysteresis, and
   the router's failover ladder driven entirely on a manual clock with
   in-memory shard links. *)

module Ring = Dt_cluster.Ring
module Health = Dt_cluster.Health
module Router = Dt_cluster.Router
module Fleet = Dt_cluster.Fleet
module Clock = Dt_serve.Clock
module Breaker = Dt_serve.Breaker
module Json = Dt_util.Json

let check = Alcotest.check

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let check_contains what ~affix s =
  if not (contains ~affix s) then
    Alcotest.failf "%s: wanted %S in %S" what affix s

(* ---- Ring ---- *)

let keys n = List.init n (fun i -> Printf.sprintf "key-%d" i)

let test_ring_deterministic () =
  let a = Ring.create [ "s0"; "s1"; "s2" ] in
  let b = Ring.create [ "s2"; "s0"; "s1"; "s0" ] in
  check Alcotest.(list string) "members sorted+dedup" [ "s0"; "s1"; "s2" ]
    (Ring.members b);
  List.iter
    (fun k ->
      check Alcotest.(list string) ("owners of " ^ k)
        (Ring.owners a k ~n:2) (Ring.owners b k ~n:2))
    (keys 200)

let test_ring_owners_distinct () =
  let r = Ring.create [ "s0"; "s1"; "s2"; "s3" ] in
  List.iter
    (fun k ->
      let owners = Ring.owners r k ~n:3 in
      check Alcotest.int ("3 owners for " ^ k) 3 (List.length owners);
      check Alcotest.int "distinct"
        (List.length owners)
        (List.length (List.sort_uniq String.compare owners)))
    (keys 100);
  check Alcotest.int "capped at member count" 4
    (List.length (Ring.owners r "k" ~n:10));
  check Alcotest.(list string) "empty ring" [] (Ring.owners (Ring.create []) "k" ~n:2)

let test_ring_minimal_remap () =
  let members = [ "s0"; "s1"; "s2"; "s3"; "s4" ] in
  let before = Ring.create members in
  let after = Ring.create (List.filter (fun m -> m <> "s2") members) in
  let ks = keys 1000 in
  let moved = ref 0 in
  List.iter
    (fun k ->
      let o1 = List.hd (Ring.owners before k ~n:1) in
      let o2 = List.hd (Ring.owners after k ~n:1) in
      if o1 <> o2 then begin
        incr moved;
        (* only keys the removed member owned may move *)
        check Alcotest.string ("moved key " ^ k ^ " was on s2") "s2" o1
      end)
    ks;
  (* ~1/5 of the keyspace belonged to s2; allow generous slack *)
  if !moved = 0 || !moved > 350 then
    Alcotest.failf "remap not minimal: %d/1000 keys moved" !moved

let test_ring_balance () =
  let r = Ring.create [ "s0"; "s1"; "s2"; "s3" ] in
  let counts = Hashtbl.create 4 in
  List.iter
    (fun k ->
      let o = List.hd (Ring.owners r k ~n:1) in
      Hashtbl.replace counts o (1 + Option.value ~default:0 (Hashtbl.find_opt counts o)))
    (keys 2000);
  List.iter
    (fun m ->
      let c = Option.value ~default:0 (Hashtbl.find_opt counts m) in
      (* fair share is 500; virtual nodes keep the skew bounded *)
      if c < 200 || c > 900 then
        Alcotest.failf "member %s owns %d/2000 keys (unbalanced)" m c)
    (Ring.members r)

(* ---- Health ---- *)

let hcfg =
  { Health.eject_after = 2; rejoin_after = 2; cooldown_base = 4.0;
    cooldown_cap = 30.0 }

let hstate = Alcotest.testable
    (fun fmt s -> Format.pp_print_string fmt (Health.state_name s))
    (fun a b -> a = b)

let test_health_ladder () =
  let h = Health.create hcfg in
  check hstate "starts up" Health.Up (Health.state h);
  ignore (Health.note_failure h ~now:0.0);
  check hstate "suspect after 1 failure" Health.Suspect (Health.state h);
  ignore (Health.note_success h);
  check hstate "success heals suspect" Health.Up (Health.state h);
  ignore (Health.note_failure h ~now:1.0);
  ignore (Health.note_failure h ~now:2.0);
  check hstate "ejected after eject_after" Health.Ejected (Health.state h);
  check Alcotest.bool "not routable" false (Health.routable h);
  check Alcotest.bool "not probeable" false (Health.probeable h);
  (* cooldown not yet served *)
  check Alcotest.bool "still ejected mid-cooldown" true
    (Health.tick h ~now:5.0 = `Unchanged);
  (match Health.tick h ~now:6.0 with
  | `Changed Health.Probation -> ()
  | _ -> Alcotest.fail "expected Probation after cooldown");
  check Alcotest.bool "probation probeable" true (Health.probeable h);
  check Alcotest.bool "probation not routable" false (Health.routable h);
  ignore (Health.note_success h);
  check hstate "one success not enough" Health.Probation (Health.state h);
  (match Health.note_success h with
  | `Changed Health.Up -> ()
  | _ -> Alcotest.fail "expected rejoin after rejoin_after successes")

let test_health_flapping_cooldown () =
  let h = Health.create hcfg in
  ignore (Health.note_failure h ~now:0.0);
  ignore (Health.note_failure h ~now:0.0);
  check (Alcotest.float 1e-9) "first cooldown" 4.0 (Health.cooldown h);
  ignore (Health.tick h ~now:4.0);
  (* probation failure ejects immediately, with a doubled cooldown *)
  (match Health.note_failure h ~now:4.0 with
  | `Changed Health.Ejected -> ()
  | _ -> Alcotest.fail "probation failure must eject");
  check (Alcotest.float 1e-9) "doubled" 8.0 (Health.cooldown h);
  ignore (Health.tick h ~now:12.0);
  ignore (Health.note_failure h ~now:12.0);
  check (Alcotest.float 1e-9) "doubled again" 16.0 (Health.cooldown h);
  ignore (Health.tick h ~now:28.0);
  ignore (Health.note_failure h ~now:28.0);
  check (Alcotest.float 1e-9) "capped" 30.0 (Health.cooldown h)

(* ---- Router harness ---- *)

let asm = "addq %rax, %rbx"

(* Idle probes: interval/budget so large that exactly one probe per
   shard fires at the first tick and then never again. *)
let quiet_cfg =
  {
    Router.default_config with
    Router.replicas = 2;
    reply_budget = 1.0;
    probe_interval = 1.0e9;
    probe_budget = 1.0e9;
    breaker_threshold = 2;
    breaker_cooldown = 50.0;
    health = { Health.default_config with eject_after = 100 };
  }

type fake = { name : string; q : string Queue.t; mutable up : bool }

let attach rt f =
  Router.set_link rt f.name (Some (fun line ->
      if f.up then begin Queue.push line f.q; true end else false))

let mk_router ?(cfg = quiet_cfg) names =
  let clock, advance = Clock.manual () in
  let rt = Router.create ~clock cfg ~uarch:Dt_refcpu.Uarch.Haswell ~shards:names in
  let fakes = List.map (fun name -> { name; q = Queue.create (); up = true }) names in
  List.iter (attach rt) fakes;
  (rt, advance, fakes)

let fake f fakes = List.find (fun x -> x.name = f) fakes

let data_lines f =
  (* ignore probe/stats traffic; keep forwarded predicts *)
  Queue.fold
    (fun acc l -> if contains ~affix:" predict " l then l :: acc else acc)
    [] f.q
  |> List.rev

let line_id l = match String.index_opt l ' ' with
  | Some i -> String.sub l 0 i
  | None -> l

let expect_one_predict what f =
  match data_lines f with
  | [ l ] -> l
  | ls -> Alcotest.failf "%s: %s got %d predicts" what f.name (List.length ls)

(* The primary/replica order the ring assigns to [asm] among [names]. *)
let owner_order names =
  Ring.owners (Ring.create ~vnodes:quiet_cfg.Router.vnodes names) asm ~n:2

let test_router_routes_to_primary () =
  let names = [ "a"; "b"; "c" ] in
  let rt, _advance, fakes = mk_router names in
  let got = ref [] in
  Router.submit rt ~line:("r1 predict " ^ asm)
    ~respond:(fun l -> got := l :: !got);
  let primary = List.hd (owner_order names) in
  let l = expect_one_predict "route" (fake primary fakes) in
  check_contains "forwarded" ~affix:(" predict " ^ asm) l;
  (* no other shard saw it *)
  List.iter
    (fun f -> if f.name <> primary then
        check Alcotest.int ("quiet " ^ f.name) 0 (List.length (data_lines f)))
    fakes;
  (* shard answers; client sees its own id *)
  let rid = line_id l in
  Router.on_shard_line rt ~shard:primary
    ~line:(rid ^ " ok cycles=2.0000 backend=mca");
  (match !got with
  | [ resp ] ->
      check_contains "client id rewritten" ~affix:"r1 ok cycles=2.0000" resp
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length !got))

let test_router_failover_order_and_late_discard () =
  let names = [ "a"; "b"; "c" ] in
  let rt, advance, fakes = mk_router names in
  let got = ref [] in
  Router.submit rt ~line:("r1 predict " ^ asm)
    ~respond:(fun l -> got := l :: !got);
  let primary, replica =
    match owner_order names with
    | p :: r :: _ -> (p, r)
    | _ -> Alcotest.fail "need 2 owners"
  in
  let l1 = expect_one_predict "first send" (fake primary fakes) in
  (* primary never answers: past the reply budget the request moves to
     the next ring owner *)
  advance 1.5;
  Router.tick rt;
  let l2 = expect_one_predict "failover send" (fake replica fakes) in
  check Alcotest.bool "fresh rid on failover" true (line_id l1 <> line_id l2);
  Router.on_shard_line rt ~shard:replica
    ~line:(line_id l2 ^ " ok cycles=3.0000 backend=mca");
  (match !got with
  | [ resp ] -> check_contains "served by replica" ~affix:"r1 ok cycles=3" resp
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length !got));
  (* the primary's reply lands late: discarded, not delivered twice *)
  Router.on_shard_line rt ~shard:primary
    ~line:(line_id l1 ^ " ok cycles=9.0000 backend=mca");
  check Alcotest.int "exactly one client response" 1 (List.length !got);
  let pairs = Router.stats_pairs rt in
  check Alcotest.(option string) "late reply counted" (Some "1")
    (List.assoc_opt "router.late_discarded" pairs);
  check Alcotest.(option string) "one failover" (Some "1")
    (List.assoc_opt "router.failovers" pairs)

let test_router_fallback_labels () =
  (* every shard link down: the ladder exhausts and the analytic bound
     answers locally with the whole story in via= *)
  let names = [ "a"; "b"; "c" ] in
  let rt, _advance, fakes = mk_router names in
  List.iter (fun f -> f.up <- false) fakes;
  let got = ref [] in
  Router.submit rt ~line:("r1 predict " ^ asm)
    ~respond:(fun l -> got := l :: !got);
  match !got with
  | [ resp ] ->
      check_contains "degraded" ~affix:"r1 degraded cycles=" resp;
      check_contains "bound served" ~affix:"backend=bound" resp;
      check_contains "ladder labeled" ~affix:"via=shard_" resp
  | _ -> Alcotest.failf "expected immediate fallback, got %d" (List.length !got)

let test_router_breaker_opens () =
  let names = [ "a"; "b"; "c" ] in
  let rt, advance, fakes = mk_router names in
  let primary, replica =
    match owner_order names with
    | p :: r :: _ -> (p, r)
    | _ -> Alcotest.fail "need 2 owners"
  in
  let timeout_once i =
    Router.submit rt ~line:(Printf.sprintf "t%d predict %s" i asm)
      ~respond:(fun _ -> ());
    let l = expect_one_predict "send" (fake primary fakes) in
    Queue.clear (fake primary fakes).q;
    advance 1.5;
    Router.tick rt;
    (* serve the failover so the request resolves *)
    let l2 = expect_one_predict "failover" (fake replica fakes) in
    Queue.clear (fake replica fakes).q;
    Router.on_shard_line rt ~shard:replica
      ~line:(line_id l2 ^ " ok cycles=1.0 backend=mca");
    ignore l
  in
  timeout_once 1;
  timeout_once 2;
  (* two consecutive timeouts opened the primary's breaker *)
  (match Router.breaker rt primary with
  | Some b -> check Alcotest.string "breaker open" "open"
                (Breaker.state_name (Breaker.state b))
  | None -> Alcotest.fail "missing breaker");
  (* next request skips the primary without waiting for a timeout *)
  Router.submit rt ~line:("t3 predict " ^ asm) ~respond:(fun _ -> ());
  check Alcotest.int "primary skipped" 0
    (List.length (data_lines (fake primary fakes)));
  let l = expect_one_predict "replica direct" (fake replica fakes) in
  Router.on_shard_line rt ~shard:replica
    ~line:(line_id l ^ " ok cycles=1.0 backend=mca")

let test_router_overload_failover () =
  (* a shard shedding with `overloaded` pushes the request down the
     ladder instead of surfacing the shed to the client *)
  let names = [ "a"; "b"; "c" ] in
  let rt, _advance, fakes = mk_router names in
  let primary, replica =
    match owner_order names with
    | p :: r :: _ -> (p, r)
    | _ -> Alcotest.fail "need 2 owners"
  in
  let got = ref [] in
  Router.submit rt ~line:("r1 predict " ^ asm)
    ~respond:(fun l -> got := l :: !got);
  let l1 = expect_one_predict "send" (fake primary fakes) in
  Router.on_shard_line rt ~shard:primary
    ~line:(line_id l1 ^ " overloaded capacity=2");
  let l2 = expect_one_predict "failover" (fake replica fakes) in
  Router.on_shard_line rt ~shard:replica
    ~line:(line_id l2 ^ " ok cycles=1.5000 backend=mca");
  match !got with
  | [ resp ] -> check_contains "served" ~affix:"r1 ok cycles=1.5" resp
  | _ -> Alcotest.failf "expected 1 response, got %d" (List.length !got)

(* A lost link re-dispatches the whole in-flight window at once — no
   request waits out its reply budget against a dead shard — whether
   the transport detaches it or a send finds it dead. *)
let link_lost_failover ~by_send () =
  let names = [ "a"; "b"; "c" ] in
  let rt, _advance, fakes = mk_router names in
  let primary, replica =
    match owner_order names with
    | p :: r :: _ -> (p, r)
    | _ -> Alcotest.fail "need 2 owners"
  in
  let got = ref [] in
  let submit id =
    Router.submit rt ~line:(Printf.sprintf "%s predict %s" id asm)
      ~respond:(fun l -> got := l :: !got)
  in
  List.iter submit [ "k1"; "k2"; "k3" ];
  check Alcotest.int "window on primary" 3
    (List.length (data_lines (fake primary fakes)));
  (* without any clock advance, all three requests land on the replica *)
  if by_send then begin
    (* the primary's socket died; the next send to it finds out, and
       k4 follows the window *)
    (fake primary fakes).up <- false;
    submit "k4"
  end
  else Router.set_link rt primary None;
  let expected = if by_send then 4 else 3 in
  let redispatched = data_lines (fake replica fakes) in
  check Alcotest.int "redispatched immediately" expected
    (List.length redispatched);
  List.iter
    (fun l ->
      Router.on_shard_line rt ~shard:replica
        ~line:(line_id l ^ " ok cycles=1.0 backend=mca"))
    redispatched;
  check Alcotest.int "all answered" expected (List.length !got);
  check Alcotest.(option string) "three failovers" (Some "3")
    (List.assoc_opt "router.failovers" (Router.stats_pairs rt))

let test_router_shed_and_drain () =
  let names = [ "a" ] in
  let cfg = { quiet_cfg with Router.max_pending = 2; replicas = 1 } in
  let rt, _advance, fakes = mk_router ~cfg names in
  let order = ref [] in
  let log tag l = order := (tag, l) :: !order in
  Router.submit rt ~line:("p1 predict " ^ asm) ~respond:(log "p1");
  Router.submit rt ~line:("p2 predict " ^ asm) ~respond:(log "p2");
  (* admission bound: the third predict sheds *)
  Router.submit rt ~line:("p3 predict " ^ asm) ~respond:(log "p3");
  (match List.assoc_opt "p3" !order with
  | Some l -> check_contains "shed" ~affix:"p3 overloaded" l
  | None -> Alcotest.fail "p3 unanswered");
  (* flush barrier over p1/p2, then shutdown *)
  Router.submit rt ~line:("fl flush") ~respond:(log "fl");
  Router.submit rt ~line:("z shutdown") ~respond:(log "z");
  check Alcotest.bool "draining" true (Router.draining rt);
  (* predictions during drain shed *)
  Router.submit rt ~line:("p4 predict " ^ asm) ~respond:(log "p4");
  (match List.assoc_opt "p4" !order with
  | Some l -> check_contains "drain sheds" ~affix:"p4 overloaded" l
  | None -> Alcotest.fail "p4 unanswered");
  check Alcotest.bool "not yet stopped" false (Router.stopped rt);
  (* answer the in-flight pair: barriers complete in FIFO order *)
  List.iter
    (fun l ->
      Router.on_shard_line rt ~shard:"a"
        ~line:(line_id l ^ " ok cycles=1.0 backend=mca"))
    (data_lines (List.hd fakes));
  check Alcotest.bool "stopped after drain" true (Router.stopped rt);
  (* p3/p4 shed inline at submit time; the in-flight pair answers in
     send order; the flush barrier fires before the shutdown barrier *)
  check Alcotest.(list string) "completion order"
    [ "p3"; "p4"; "p1"; "p2"; "fl"; "z" ]
    (List.rev_map fst !order);
  (match List.assoc_opt "fl" !order with
  | Some l -> check_contains "flush count" ~affix:"fl ok flushed=2" l
  | None -> Alcotest.fail "flush unanswered");
  match List.assoc_opt "z" !order with
  | Some l -> check_contains "bye" ~affix:"z ok shutdown" l
  | None -> Alcotest.fail "shutdown unanswered"

let test_router_probe_hysteresis () =
  (* one shard, aggressive probing: no link -> suspect -> ejected;
     cooldown -> probation; two pongs -> back up and in the ring *)
  let cfg =
    {
      quiet_cfg with
      Router.replicas = 1;
      probe_interval = 1.0;
      probe_budget = 0.5;
      health =
        { Health.eject_after = 2; rejoin_after = 2; cooldown_base = 4.0;
          cooldown_cap = 30.0 };
    }
  in
  let clock, advance = Clock.manual () in
  let rt =
    Router.create ~clock cfg ~uarch:Dt_refcpu.Uarch.Haswell ~shards:[ "a" ]
  in
  let state () = Option.get (Router.health_state rt "a") in
  Router.tick rt; (* probe due, no link: failure *)
  check Alcotest.bool "suspect" true (state () = Health.Suspect);
  advance 1.0; Router.tick rt;
  check Alcotest.bool "ejected" true (state () = Health.Ejected);
  check Alcotest.(list string) "out of the ring" [] (Router.ring_members rt);
  (* a predict while the ring is empty answers locally *)
  let got = ref [] in
  Router.submit rt ~line:("r1 predict " ^ asm)
    ~respond:(fun l -> got := l :: !got);
  (match !got with
  | [ l ] -> check_contains "no-shards fallback" ~affix:"backend=bound" l
  | _ -> Alcotest.fail "expected local answer");
  (* cooldown elapses; the shard is probed again in probation *)
  let f = { name = "a"; q = Queue.create (); up = true } in
  attach rt f;
  advance 4.0; Router.tick rt;
  check Alcotest.bool "probation" true (state () = Health.Probation);
  let pong rid =
    rid ^ " pong version=2 uptime=1.000 model=v3 queue_depth=0"
  in
  (* the probation transition itself probes; answer before the probe
     budget elapses *)
  (match Queue.take_opt f.q with
  | Some l when contains ~affix:" ping" l ->
      Router.on_shard_line rt ~shard:"a" ~line:(pong (line_id l))
  | _ -> Alcotest.fail "expected a probe");
  check Alcotest.bool "still probation after 1 pong" true
    (state () = Health.Probation);
  advance 1.0; Router.tick rt;
  (match Queue.take_opt f.q with
  | Some l when contains ~affix:" ping" l ->
      Router.on_shard_line rt ~shard:"a" ~line:(pong (line_id l))
  | _ -> Alcotest.fail "expected a second probe");
  check Alcotest.bool "rejoined" true (state () = Health.Up);
  check Alcotest.(list string) "back in the ring" [ "a" ]
    (Router.ring_members rt);
  (* the pong's payload surfaces in stats *)
  check Alcotest.(option string) "model from pong" (Some "v3")
    (List.assoc_opt "a.model" (Router.stats_pairs rt))

(* ---- Fleet spec ---- *)

let test_spec_example_parses () =
  let spec = Fleet.Spec.of_json (Json.parse Fleet.Spec.example) in
  check Alcotest.int "shards" 3 spec.Fleet.Spec.shards;
  check Alcotest.string "router socket" "/tmp/difftune_fleet/router.sock"
    spec.Fleet.Spec.router_socket;
  check Alcotest.int "replicas" 2 spec.Fleet.Spec.router.Router.replicas;
  check Alcotest.(list string) "serve flags"
    [ "--queue"; "256"; "--batch"; "16" ]
    spec.Fleet.Spec.serve_flags;
  check Alcotest.string "shard socket" "/tmp/difftune_fleet/shard1.sock"
    (Fleet.Spec.shard_socket spec 1)

let test_spec_defaults_and_errors () =
  let spec =
    Fleet.Spec.of_json
      (Json.parse {|{"shards": 2, "socket_dir": "/tmp/x"}|})
  in
  check Alcotest.string "derived router socket" "/tmp/x/router.sock"
    spec.Fleet.Spec.router_socket;
  check Alcotest.int "default max_pending"
    Router.default_config.Router.max_pending
    spec.Fleet.Spec.router.Router.max_pending;
  let bad j =
    match Fleet.Spec.of_json (Json.parse j) with
    | exception Invalid_argument _ -> true
    | _ -> false
  in
  check Alcotest.bool "missing shards" true (bad {|{"socket_dir": "/tmp/x"}|});
  check Alcotest.bool "bad uarch" true
    (bad {|{"shards":1,"socket_dir":"/tmp/x","uarch":"pentium"}|});
  check Alcotest.bool "bad fault index" true
    (bad {|{"shards":1,"socket_dir":"/tmp/x","shard_faults":{"7":"x@1"}}|});
  check Alcotest.bool "bad serve value" true
    (bad {|{"shards":1,"socket_dir":"/tmp/x","serve":{"queue":[1]}}|})

(* [--racecheck] (the suite's second runtest rule) arms the dynamic
   race checker for every case, around the router's per-shard breaker
   locks. *)
let () =
  Testkit.run "cluster"
    [
      ( "ring",
        [
          Alcotest.test_case "deterministic" `Quick test_ring_deterministic;
          Alcotest.test_case "owners distinct" `Quick test_ring_owners_distinct;
          Alcotest.test_case "minimal remap" `Quick test_ring_minimal_remap;
          Alcotest.test_case "balance" `Quick test_ring_balance;
        ] );
      ( "health",
        [
          Alcotest.test_case "ladder" `Quick test_health_ladder;
          Alcotest.test_case "flapping cooldown" `Quick
            test_health_flapping_cooldown;
        ] );
      ( "router",
        [
          Alcotest.test_case "routes to primary" `Quick
            test_router_routes_to_primary;
          Alcotest.test_case "failover order + late discard" `Quick
            test_router_failover_order_and_late_discard;
          Alcotest.test_case "fallback labels" `Quick
            test_router_fallback_labels;
          Alcotest.test_case "breaker opens" `Quick test_router_breaker_opens;
          Alcotest.test_case "overload fails over" `Quick
            test_router_overload_failover;
          Alcotest.test_case "link lost fails over immediately" `Quick
            (link_lost_failover ~by_send:false);
          Alcotest.test_case "failed send fails over immediately" `Quick
            (link_lost_failover ~by_send:true);
          Alcotest.test_case "shed + drain" `Quick test_router_shed_and_drain;
          Alcotest.test_case "probe hysteresis" `Quick
            test_router_probe_hysteresis;
        ] );
      ( "spec",
        [
          Alcotest.test_case "example parses" `Quick test_spec_example_parses;
          Alcotest.test_case "defaults and errors" `Quick
            test_spec_defaults_and_errors;
        ] );
    ]
