(* Tests for the experiment layer: scales, the memoized runner, and the
   fast experiments end to end at smoke scale. *)

module Scale = Dt_exp.Scale
module Runner = Dt_exp.Runner
module Uarch = Dt_refcpu.Uarch

let test_scales_sane () =
  List.iter
    (fun (s : Scale.t) ->
      Alcotest.(check bool) "corpus positive" true (s.corpus_size > 0);
      Alcotest.(check bool) "noise small" true (s.noise >= 0.0 && s.noise < 0.1);
      Alcotest.(check bool) "seeds nonempty" true (s.seeds <> []);
      Alcotest.(check bool) "parity positive" true (s.opentuner_parity > 0))
    [ Scale.smoke; Scale.quick; Scale.full ]

let runner = Runner.create Scale.smoke

let test_dataset_memoized () =
  let a = Runner.dataset runner Uarch.Haswell in
  let b = Runner.dataset runner Uarch.Haswell in
  Alcotest.(check bool) "same physical dataset" true (a == b);
  Alcotest.(check bool) "nonempty" true (Array.length a.train > 0)

let test_evaluate () =
  let ds = Runner.dataset runner Uarch.Haswell in
  (* A perfect predictor has zero error and perfect tau. *)
  let table = Hashtbl.create 64 in
  Array.iter
    (fun (l : Dt_bhive.Dataset.labeled) ->
      Hashtbl.replace table (Dt_x86.Block.to_string l.entry.block) l.timing)
    ds.test;
  let perfect b = Hashtbl.find table (Dt_x86.Block.to_string b) in
  let err, tau = Runner.evaluate ds perfect in
  Alcotest.(check (float 1e-9)) "zero error" 0.0 err;
  Alcotest.(check bool) "tau ~1" true (tau > 0.99)

let test_default_reasonable_at_smoke () =
  let ds = Runner.dataset runner Uarch.Haswell in
  let dflt = Runner.default_params Uarch.Haswell in
  let err, tau = Runner.evaluate ds (fun b -> Dt_mca.Pipeline.timing dflt b) in
  Alcotest.(check bool) (Printf.sprintf "err %.2f < 0.6" err) true (err < 0.6);
  Alcotest.(check bool) (Printf.sprintf "tau %.2f > 0.5" tau) true (tau > 0.5)

(* The cheap experiments must run end to end without raising. *)
let run_experiment name =
  match List.assoc_opt name Dt_exp.Experiments.all with
  | None -> Alcotest.failf "experiment %s not registered" name
  | Some f -> f runner

let test_table3 () = run_experiment "table3"
let test_random_tables () = run_experiment "random_tables"
let test_measured_latency () = run_experiment "measured_latency"
let test_cases () = run_experiment "cases"

let test_all_registered () =
  let names = List.map fst Dt_exp.Experiments.all in
  List.iter
    (fun n ->
      Alcotest.(check bool) ("registered " ^ n) true (List.mem n names))
    [ "table3"; "table4"; "table5"; "table6"; "fig2"; "fig4"; "fig5";
      "ablation_wl"; "cases"; "table8"; "random_tables"; "measured_latency";
      "extension_idioms"; "ablation_surrogate" ]

let () =
  Alcotest.run "exp"
    [
      ( "scale",
        [
          Alcotest.test_case "sane" `Quick test_scales_sane;
        ] );
      ( "runner",
        [
          Alcotest.test_case "memoized" `Quick test_dataset_memoized;
          Alcotest.test_case "evaluate" `Quick test_evaluate;
          Alcotest.test_case "default error" `Quick test_default_reasonable_at_smoke;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "registered" `Quick test_all_registered;
          Alcotest.test_case "table3" `Slow test_table3;
          Alcotest.test_case "random tables" `Slow test_random_tables;
          Alcotest.test_case "measured latency" `Slow test_measured_latency;
          Alcotest.test_case "case studies" `Slow test_cases;
        ] );
    ]
