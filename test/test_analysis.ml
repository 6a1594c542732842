(* Tests for the PR 3 analysis suite: the runtime graph sanitizer
   (shape inference, use-after-reset stamps, arena poisoning, gradient-
   flow audit) and the dt_lint AST rules (golden tests on fixtures).

   The three headline scenarios mirror the acceptance criteria: a seeded
   use-after-reset, a shape mismatch, and an uninitialized-arena read
   each pass silently with sanitize off and raise with it on. *)

module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn
module Rng = Dt_util.Rng
module Faultsim = Dt_util.Faultsim
module Lint = Dt_analysis.Lint

let with_sanitize on f =
  Ad.set_sanitize on;
  Fun.protect
    ~finally:(fun () ->
      Ad.set_sanitize false;
      Faultsim.clear ())
    f

let contains_sub hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* Run [f], expecting an exception recognised by [exn_info] whose
   message contains every fragment in [contains]. *)
let expect_raise name (exn_info : exn -> string option) ~contains f =
  match f () with
  | _ -> Alcotest.failf "%s: expected an exception, got a value" name
  | exception e -> (
      match exn_info e with
      | None ->
          Alcotest.failf "%s: unexpected exception %s" name
            (Printexc.to_string e)
      | Some msg ->
          List.iter
            (fun frag ->
              if not (contains_sub msg frag) then
                Alcotest.failf "%s: message %S does not mention %S" name msg
                  frag)
            contains)

let shape_error = function Ad.Shape_error m -> Some m | _ -> None
let stale = function Ad.Use_after_reset m -> Some m | _ -> None
let uninit = function Ad.Uninitialized_read m -> Some m | _ -> None

(* ---- use-after-reset ---- *)

(* Builds a node, resets the workspace, then feeds the stale node to a
   fresh op.  The stale value's arena slot is recycled by the later
   constant, so the silent result is corrupt. *)
let stale_graph () =
  let ctx = Ad.new_ctx () in
  let a = Ad.constant ctx (T.vector [| 1.0; 2.0 |]) in
  Ad.reset ctx;
  let b = Ad.constant ctx (T.vector [| 30.0; 40.0 |]) in
  Ad.add ctx a b

let test_use_after_reset_silent () =
  with_sanitize false (fun () ->
      let n = stale_graph () in
      (* Silent with sanitize off — and provably corrupt: [a]'s slot was
         recycled by [b], so "a + b" degenerates to "b + b". *)
      Alcotest.(check (list (float 1e-9)))
        "recycled memory read silently" [ 60.0; 80.0 ]
        (Array.to_list (T.to_array (Ad.value n))))

let test_use_after_reset_raises () =
  with_sanitize true (fun () ->
      expect_raise "use-after-reset" stale
        ~contains:[ "Ad.add"; "generation"; "recycled" ]
        stale_graph)

let test_cross_context_raises () =
  with_sanitize true (fun () ->
      let ctx1 = Ad.new_ctx () and ctx2 = Ad.new_ctx () in
      let a = Ad.constant ctx1 (T.vector [| 1.0 |]) in
      expect_raise "cross-context" stale
        ~contains:[ "Ad.mul"; "context" ]
        (fun () -> Ad.mul ctx2 a a))

(* ---- shape mismatches ---- *)

(* Concatenating a matrix silently flattens it row-major: a real shape
   bug the fast path accepts. *)
let matrix_concat () =
  let ctx = Ad.new_ctx () in
  let m = Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |]) in
  let v = Ad.constant ctx (T.vector [| 5.0 |]) in
  Ad.concat ctx [ m; v ]

let test_shape_mismatch_silent () =
  with_sanitize false (fun () ->
      let n = matrix_concat () in
      Alcotest.(check int) "matrix silently flattened" 5
        (T.size (Ad.value n)))

let test_shape_mismatch_raises () =
  with_sanitize true (fun () ->
      expect_raise "concat matrix" shape_error
        ~contains:[ "Ad.concat"; "part 0"; "2x2"; "row vector" ]
        matrix_concat)

let test_shape_messages () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let a = Ad.constant ctx (T.vector [| 1.; 2. |]) in
      let b = Ad.constant ctx (T.vector [| 1.; 2.; 3. |]) in
      expect_raise "add shapes in message" shape_error
        ~contains:[ "Ad.add"; "1x2"; "1x3" ]
        (fun () -> Ad.add ctx a b);
      let m =
        Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 0.; 0.; 1. |])
      in
      expect_raise "matvec shapes in message" shape_error
        ~contains:[ "Ad.matvec"; "2x2"; "1x3"; "expected 1x2" ]
        (fun () -> Ad.matvec ctx ~m ~x:b);
      expect_raise "slice of matrix" shape_error
        ~contains:[ "Ad.slice"; "2x2"; "row vector" ]
        (fun () -> Ad.slice ctx m ~pos:0 ~len:3))

(* ---- uninitialized arena read (the PR 2 gemv class) ---- *)

(* The "ad.gemv_beta" fault site flips matvec's gemv call from
   overwrite (beta = 0) back to accumulate (beta = 1), reintroducing
   the PR 2 bug: the output slot is fresh arena memory. *)
let seeded_gemv_regression () =
  let ctx = Ad.new_ctx () in
  let build () =
    let m =
      Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |])
    in
    let x = Ad.constant ctx (T.vector [| 1.0; 1.0 |]) in
    Ad.matvec ctx ~m ~x
  in
  ignore (build ());
  Ad.reset ctx;
  Faultsim.arm "ad.gemv_beta" ~at:1;
  build ()

let test_uninit_read_silent () =
  with_sanitize false (fun () ->
      let n = seeded_gemv_regression () in
      (* Allocation order repeats after reset, so the recycled output
         slot still holds the previous pass's result [3; 7]; the buggy
         accumulate silently doubles the answer. *)
      Alcotest.(check (list (float 1e-9)))
        "stale accumulate passes silently" [ 6.0; 14.0 ]
        (Array.to_list (T.to_array (Ad.value n))))

let test_uninit_read_raises () =
  with_sanitize true (fun () ->
      expect_raise "poisoned gemv" uninit
        ~contains:[ "Ad.matvec"; "poison"; "uninitialized" ]
        seeded_gemv_regression)

(* ---- sanitize mode is transparent for correct code ---- *)

let forward_value () =
  let ctx = Ad.new_ctx () in
  let m =
    Ad.constant ctx
      (T.of_array ~rows:3 ~cols:2 [| 0.3; -1.2; 0.7; 0.1; -0.4; 2.0 |])
  in
  let x = Ad.constant ctx (T.vector [| 0.9; -0.2 |]) in
  let h = Ad.sigmoid ctx (Ad.matvec ctx ~m ~x) in
  let loss = Ad.mape ctx (Ad.sum_all ctx h) ~target:1.5 in
  Ad.backward ctx loss;
  Ad.scalar_value loss

let test_transparent () =
  let off = with_sanitize false forward_value in
  let on = with_sanitize true forward_value in
  Alcotest.(check (float 0.0)) "bit-identical on/off" off on

(* ---- gradient-flow audit ---- *)

let test_flow_audit () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let c1 = Ad.constant ctx (T.vector [| 1.0; 2.0 |]) in
      let c2 = Ad.constant ctx (T.vector [| 3.0; 4.0 |]) in
      let loss = Ad.sum_all ctx (Ad.mul ctx c1 c2) in
      (* Intentionally detached subgraph: built, never reaches the loss. *)
      let _detached = Ad.tanh_ ctx (Ad.add ctx c1 c1) in
      Ad.backward ctx loss;
      match Ad.last_flow_report ctx with
      | None -> Alcotest.fail "sanitize-mode backward must record an audit"
      | Some r ->
          Alcotest.(check int) "tape nodes" 6 r.Ad.tape_nodes;
          Alcotest.(check int) "live" 4 r.Ad.live;
          Alcotest.(check int) "dead" 2 r.Ad.dead;
          Alcotest.(check (list (pair string int)))
            "dead ops named" [ ("add", 1); ("tanh", 1) ] r.Ad.dead_ops)

let test_flow_audit_explicit () =
  (* flow_audit works without sanitize mode and without a backward. *)
  let ctx = Ad.new_ctx () in
  let c = Ad.constant ctx (T.vector [| 1.0 |]) in
  let live = Ad.relu ctx c in
  let _dead = Ad.abs_ ctx c in
  let r = Ad.flow_audit ctx live in
  Alcotest.(check int) "dead count" 1 r.Ad.dead;
  Alcotest.(check (list (pair string int))) "dead op" [ ("abs", 1) ] r.Ad.dead_ops

(* ---- checked Adam kernel path ---- *)

let adam_step sanitized =
  with_sanitize sanitized (fun () ->
      let store = Nn.Store.create () in
      let rng = Rng.create 17 in
      let w = Nn.Store.param store ~name:"w" (T.randn rng ~rows:3 ~cols:4 ~sigma:1.0) in
      let opt = Nn.Optimizer.adam store ~lr:0.05 in
      let g = Ad.grad w in
      for i = 0 to T.size g - 1 do
        T.set1 g i (0.01 *. float_of_int (i - 5))
      done;
      Nn.Optimizer.step opt ~batch:2;
      Array.to_list (T.to_array (Ad.value w)))

let test_adam_checked_path () =
  Alcotest.(check (list (float 0.0)))
    "checked and unsafe Adam paths agree exactly" (adam_step false)
    (adam_step true)

(* ---- dt_lint golden tests on fixture sources ---- *)

let read_fixture name =
  (* `dune runtest` runs with cwd = test/; `dune exec` from the root. *)
  let path = Filename.concat "fixtures" name in
  let path =
    if Sys.file_exists path then path else Filename.concat "test" path
  in
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let lint_fixture ?(path = "lib/difftune/fixture.ml") name =
  Lint.lint_string ~path (read_fixture name)

let check_findings name (findings : Lint.finding list) expected =
  Alcotest.(check (list (pair string int)))
    name expected
    (List.map (fun (f : Lint.finding) -> (f.Lint.rule, f.Lint.line)) findings)

let test_lint_float_eq () =
  let findings, suppressed = lint_fixture "float_eq.ml" in
  check_findings "float-eq" findings [ ("float-eq", 2); ("float-eq", 3) ];
  Alcotest.(check int) "no suppressions" 0 suppressed

let test_lint_catch_all () =
  let findings, _ = lint_fixture "catch_all.ml" in
  check_findings "catch-all" findings [ ("catch-all", 2); ("catch-all", 3) ]

let test_lint_hashtbl_order () =
  let findings, _ = lint_fixture "hashtbl_order.ml" in
  check_findings "hashtbl-order in substrate" findings
    [ ("hashtbl-order", 2); ("hashtbl-order", 3) ];
  (* Outside the deterministic substrate the rule does not apply. *)
  let findings, suppressed =
    lint_fixture ~path:"lib/eval/metrics_like.ml" "hashtbl_order.ml"
  in
  check_findings "hashtbl-order out of scope" findings [];
  Alcotest.(check int) "not merely suppressed" 0 suppressed

let test_lint_unsafe_index () =
  let findings, _ = lint_fixture "unsafe_index.ml" in
  check_findings "unsafe-index" findings
    [ ("unsafe-index", 2); ("unsafe-index", 3) ];
  (* Kernel files are whitelisted, and the suppression is counted. *)
  let findings, suppressed =
    lint_fixture ~path:"lib/nn/nn.ml" "unsafe_index.ml"
  in
  check_findings "whitelisted kernel file" findings [];
  Alcotest.(check int) "suppressions counted" 2 suppressed

let test_lint_eprintf () =
  let findings, _ = lint_fixture ~path:"lib/exp/scale.ml" "eprintf_rule.ml" in
  check_findings "bare-eprintf" findings [ ("bare-eprintf", 2) ];
  let findings, suppressed =
    lint_fixture ~path:"lib/util/log.ml" "eprintf_rule.ml"
  in
  check_findings "lib/util whitelisted" findings [];
  Alcotest.(check int) "suppression counted" 1 suppressed

let test_lint_gemv_loop () =
  let findings, _ = lint_fixture ~path:"lib/nn/batched.ml" "gemv_loop.ml" in
  (* Ad.matvec in a loop trips both the batching rule and (since PR 6)
     the tape-op-loop rule — the two point at different fixes. *)
  check_findings "gemv-batch-loop" findings
    [
      ("gemv-batch-loop", 6); ("tape-op-loop", 6); ("gemv-batch-loop", 11);
    ];
  (* Outside the batched network code the per-row pattern is fine (the
     per-sequence oracle path is built from it on purpose). *)
  let findings, suppressed =
    lint_fixture ~path:"lib/difftune/engine.ml" "gemv_loop.ml"
  in
  check_findings "gemv-batch-loop out of scope" findings [];
  Alcotest.(check int) "not merely suppressed" 0 suppressed

let test_lint_tape_op_loop () =
  (* In network code outside the whitelist, Ad ops inside a for loop are
     flagged; the straight-line constructor on line 2 is not. *)
  let findings, _ =
    lint_fixture ~path:"lib/surrogate/features.ml" "tape_op_loop.ml"
  in
  check_findings "tape-op-loop" findings
    [ ("tape-op-loop", 6); ("tape-op-loop", 7) ];
  (* The surrogate's trace builder is whitelisted, and the suppression
     is counted. *)
  let findings, suppressed =
    lint_fixture ~path:"lib/surrogate/model.ml" "tape_op_loop.ml"
  in
  check_findings "capture site whitelisted" findings [];
  Alcotest.(check int) "suppressions counted" 2 suppressed;
  (* Outside lib/nn and lib/surrogate the rule does not apply (the
     engine's shard tasks trace through Model). *)
  let findings, suppressed =
    lint_fixture ~path:"lib/difftune/engine.ml" "tape_op_loop.ml"
  in
  check_findings "tape-op-loop out of scope" findings [];
  Alcotest.(check int) "not merely suppressed" 0 suppressed

let test_lint_env_read () =
  let expected = List.map (fun l -> ("env-read", l)) [ 2; 3; 4; 5; 6 ] in
  let findings, _ = lint_fixture "env_read.ml" in
  check_findings "env-read in lib/" findings expected;
  let findings, _ = lint_fixture ~path:"bin/difftune_cli.ml" "env_read.ml" in
  check_findings "env-read in bin/" findings expected;
  (* The pool size's default is the one whitelisted read, and the
     suppression is counted. *)
  let findings, suppressed =
    lint_fixture ~path:"lib/util/pool.ml" "env_read.ml"
  in
  check_findings "Pool.default_domains whitelisted" findings [];
  Alcotest.(check int) "suppressions counted" 5 suppressed;
  (* Tests and benches may set the environment for what they spawn. *)
  let findings, suppressed =
    lint_fixture ~path:"test/test_difftune.ml" "env_read.ml"
  in
  check_findings "env-read out of scope" findings [];
  Alcotest.(check int) "not merely suppressed" 0 suppressed

let test_lint_clean () =
  let findings, suppressed = lint_fixture "clean.ml" in
  check_findings "clean fixture" findings [];
  Alcotest.(check int) "no suppressions" 0 suppressed

let test_lint_parse_error () =
  let findings, _ = Lint.lint_string ~path:"lib/broken.ml" "let = (" in
  Alcotest.(check (list string)) "parse error reported" [ "parse-error" ]
    (List.map (fun (f : Lint.finding) -> f.Lint.rule) findings)

let () =
  Alcotest.run "analysis"
    [
      ( "sanitizer",
        [
          Alcotest.test_case "use-after-reset silent when off" `Quick
            test_use_after_reset_silent;
          Alcotest.test_case "use-after-reset raises" `Quick
            test_use_after_reset_raises;
          Alcotest.test_case "cross-context raises" `Quick
            test_cross_context_raises;
          Alcotest.test_case "shape mismatch silent when off" `Quick
            test_shape_mismatch_silent;
          Alcotest.test_case "shape mismatch raises" `Quick
            test_shape_mismatch_raises;
          Alcotest.test_case "shape messages carry shapes" `Quick
            test_shape_messages;
          Alcotest.test_case "uninit read silent when off" `Quick
            test_uninit_read_silent;
          Alcotest.test_case "uninit read raises (seeded gemv bug)" `Quick
            test_uninit_read_raises;
          Alcotest.test_case "transparent for correct code" `Quick
            test_transparent;
          Alcotest.test_case "gradient-flow audit" `Quick test_flow_audit;
          Alcotest.test_case "explicit flow audit" `Quick
            test_flow_audit_explicit;
          Alcotest.test_case "checked Adam path" `Quick test_adam_checked_path;
        ] );
      ( "lint",
        [
          Alcotest.test_case "float-eq golden" `Quick test_lint_float_eq;
          Alcotest.test_case "catch-all golden" `Quick test_lint_catch_all;
          Alcotest.test_case "hashtbl-order golden" `Quick
            test_lint_hashtbl_order;
          Alcotest.test_case "unsafe-index golden" `Quick
            test_lint_unsafe_index;
          Alcotest.test_case "bare-eprintf golden" `Quick test_lint_eprintf;
          Alcotest.test_case "gemv-batch-loop golden" `Quick
            test_lint_gemv_loop;
          Alcotest.test_case "tape-op-loop golden" `Quick
            test_lint_tape_op_loop;
          Alcotest.test_case "env-read golden" `Quick test_lint_env_read;
          Alcotest.test_case "clean fixture" `Quick test_lint_clean;
          Alcotest.test_case "parse error" `Quick test_lint_parse_error;
        ] );
    ]
