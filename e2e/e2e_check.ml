(* Tier-1 check of the end-to-end benchmark's own logic (harness.ml):
   the phase-by-phase learn is [Engine.learn] bit for bit, the
   in-process replay answers every request exactly once, and the summary
   and host-speed helpers give fixed answers on fixed inputs. *)

module Engine = Dt_difftune.Engine
module Spec = Dt_difftune.Spec
module Runtime = Dt_serve.Runtime
module Backend = Dt_serve.Backend
module Uarch = Dt_refcpu.Uarch

let pairs =
  Array.map (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))

let test_phased_learn () =
  let scale = Dt_exp.Scale.smoke in
  let cfg = { scale.engine with log = ignore } in
  let corpus = Dt_bhive.Dataset.corpus ~seed:42 ~size:scale.corpus_size in
  let ds = Dt_bhive.Dataset.label corpus ~seed:1 ~uarch:Uarch.Haswell ~noise:scale.noise in
  let train = pairs ds.train and valid = pairs ds.valid in
  let spec = Spec.mca_full Uarch.Haswell in
  let r = Engine.learn ~valid cfg spec ~train in
  let seen = ref [] in
  let table, loss, samples =
    Harness.learn_phased ~boundary:(fun p -> seen := p :: !seen) ~valid cfg spec ~train
  in
  Alcotest.(check bool) "same table" true (Harness.same_table r.table table);
  Alcotest.(check int64) "same surrogate loss"
    (Int64.bits_of_float r.surrogate_loss) (Int64.bits_of_float loss);
  Alcotest.(check bool) "samples collected" true (samples > 0);
  Alcotest.(check (list string)) "phase boundaries in order"
    [ "collect"; "train"; "optimize"; "end" ]
    (List.rev_map (function Some p -> Harness.phase_name p | None -> "end") !seen)

let test_replay_exactly_once () =
  let blocks = (Dt_bhive.Dataset.corpus ~seed:7 ~size:50).entries in
  let n = 200 in
  let lines =
    Array.init n (fun i ->
        let b = blocks.(i mod Array.length blocks).block in
        Printf.sprintf "q%d predict %s" i
          (String.concat "; " (String.split_on_char '\n' (Dt_x86.Block.to_string b))))
  in
  let pool = Dt_util.Pool.create ~domains:1 () in
  let rt =
    Runtime.create ~pool
      { Runtime.default_config with queue_capacity = 2048; batch = 16 }
      [ Backend.mca Uarch.Haswell; Backend.bound Uarch.Haswell ]
  in
  let answers = Array.make n 0 in
  let st =
    Harness.replay rt lines ~respond:(fun i ~since:_ line ->
        answers.(i) <- answers.(i) + 1;
        Alcotest.(check string) "reply id" (Printf.sprintf "q%d" i)
          (Dt_serve.Protocol.response_id line);
        Alcotest.(check bool) ("served ok: " ^ line) true
          (List.assoc_opt "backend" (Dt_serve.Protocol.fields line) = Some "mca"))
  in
  Runtime.shutdown rt;
  Dt_util.Pool.shutdown pool;
  Alcotest.(check int) "submitted" n st.submitted;
  Alcotest.(check bool) "every id answered once" true (Array.for_all (( = ) 1) answers);
  Alcotest.(check bool) "batches of at most 16" true (st.drains >= n / 16)

let test_percentiles () =
  let xs = Array.init 10 (fun i -> float_of_int (i + 1)) in
  let p = Harness.percentile xs in
  Alcotest.(check (list (float 0.0))) "nearest rank" [ 1.; 5.; 9.; 10. ]
    [ p 0.0; p 50.0; p 90.0; p 100.0 ];
  Alcotest.(check (list (option (float 0.0)))) "ten samples beyond"
    [ None; Some 90.0; Some 90.0; Some 99.0; Some 99.9; Some 99.99 ]
    (List.map Harness.tail_percentile [ 99; 100; 999; 1000; 10_000; 100_000 ])

let test_windows_and_lateness () =
  (* three whole windows [0,1) [1,2) [2,3); 3.2 falls in the partial
     window and -0.5 before the start *)
  let samples =
    List.map (fun t -> (t, 10.0 *. t)) [ -0.5; 0.1; 0.2; 0.5; 1.5; 2.1; 2.2; 2.3; 2.4; 3.2 ]
  in
  let w = Harness.windows ~width:1.0 ~t0:0.0 ~t1:3.5 samples in
  Alcotest.(check (list int)) "per-window counts" [ 3; 1; 4 ]
    (Array.to_list (Array.map Array.length w));
  Alcotest.(check (list (float 1e-9))) "per-window medians" [ 2.0; 15.0; 22.5 ]
    (Array.to_list (Array.map Harness.median w));
  Alcotest.(check int) "half-second windows" 2
    (Array.length (Harness.windows ~width:0.5 ~t0:0.0 ~t1:1.2 samples));
  let worst, late =
    Harness.lateness ~threshold:0.001 ~due:[| 0.0; 1.0; 2.0 |]
      ~sent:[| 0.0005; 1.0; 2.003 |]
  in
  Alcotest.(check (float 1e-9)) "worst lateness" 0.003 worst;
  Alcotest.(check int) "late sends" 1 late

let test_per_kernel () =
  Alcotest.(check (list (float 1e-9))) "each time over the kernel times around it"
    [ 10.0; 8.0 ]
    (Array.to_list (Harness.per_kernel ~kernel:[| 0.1; 0.3; 0.2 |] [| 2.0; 2.0 |]));
  Alcotest.check_raises "one kernel time too few"
    (Invalid_argument "Harness.per_kernel: need one kernel time around each") (fun () ->
      ignore (Harness.per_kernel ~kernel:[| 0.1 |] [| 1.0 |]))

let () =
  Alcotest.run "e2e"
    [
      ( "harness",
        [
          Alcotest.test_case "phased learn = Engine.learn" `Quick test_phased_learn;
          Alcotest.test_case "replay exactly once" `Quick test_replay_exactly_once;
          Alcotest.test_case "percentiles" `Quick test_percentiles;
          Alcotest.test_case "windows and lateness" `Quick test_windows_and_lateness;
          Alcotest.test_case "times per kernel time" `Quick test_per_kernel;
        ] );
    ]
