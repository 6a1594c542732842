(* Tests for the compiled tape executor: record/plan/replay must be
   bitwise indistinguishable from the interpreted oracle (forward
   values, losses, every parameter gradient), the plan cache must
   recover from structural drift under a reused key, the sanitizer's
   poison discipline must survive compilation (a planted ad.gemv_beta
   fault still raises under replay), batched traces must stay on the
   interpreter, and compiled table descent must learn the interpreter's
   table at any domain count. *)

module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn
module Rng = Dt_util.Rng
module Faultsim = Dt_util.Faultsim
open Dt_surrogate

let bits = Int64.bits_of_float

let check_bits name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h <> %h (bitwise)" name a b

(* Compiled replay is the production default; [set_compile false]
   selects the interpreted oracle for the duration of [f]. *)
let with_compile on f =
  Ad.set_compile on;
  Fun.protect ~finally:(fun () -> Ad.set_compile true) f

let with_sanitize on f =
  Ad.set_sanitize on;
  Fun.protect
    ~finally:(fun () ->
      Ad.set_sanitize false;
      Faultsim.clear ())
    f

let with_domains d f =
  let prev = Sys.getenv_opt "DIFFTUNE_DOMAINS" in
  Unix.putenv "DIFFTUNE_DOMAINS" (string_of_int d);
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIFFTUNE_DOMAINS"
        (match prev with Some v -> v | None -> ""))
    f

(* ---- direct with_plan traces ---- *)

(* A trace exercising matvec, fusable add chains, gate-style
   slice+sigmoid/tanh, mul, and a scalar loss; [x] rebinds per call. *)
let mk_leaves rng =
  let w = T.randn rng ~rows:8 ~cols:6 ~sigma:1.0 in
  let wg = T.zeros ~rows:8 ~cols:6 in
  let b = T.randn rng ~rows:1 ~cols:8 ~sigma:1.0 in
  let bg = T.zeros ~rows:1 ~cols:8 in
  (Ad.leaf ~value:w ~grad:wg, wg, Ad.leaf ~value:b ~grad:bg, bg)

let trace w b x ctx =
  let xc = Ad.constant ctx (T.vector x) in
  let z = Ad.add ctx (Ad.add ctx (Ad.matvec ctx ~m:w ~x:xc) b) b in
  let i = Ad.sigmoid ctx (Ad.slice ctx z ~pos:0 ~len:4) in
  let g = Ad.tanh_ ctx (Ad.slice ctx z ~pos:4 ~len:4) in
  let c = Ad.add ctx (Ad.mul ctx i g) (Ad.mul ctx g g) in
  Ad.sum_all ctx (Ad.mul ctx c (Ad.tanh_ ctx c))

let test_replay_bitwise () =
  let rng = Rng.create 3 in
  let w, wg, b, bg = mk_leaves rng in
  let inputs =
    Array.init 6 (fun _ -> Array.init 6 (fun _ -> Rng.float_range rng (-2.0) 2.0))
  in
  (* Interpreted oracle: per-input loss and leaf gradients. *)
  let oracle =
    with_compile false (fun () ->
        let ctx = Ad.new_ctx () in
        Array.map
          (fun x ->
            T.zero_ wg;
            T.zero_ bg;
            Ad.reset ctx;
            let loss = trace w b x ctx in
            Ad.backward ctx loss;
            (Ad.scalar_value loss, T.to_array wg, T.to_array bg))
          inputs)
  in
  with_compile true (fun () ->
      let ctx = Ad.new_ctx () in
      let cache = Ad.plan_cache () in
      let s0 = Ad.plan_stats () in
      Array.iteri
        (fun i x ->
          T.zero_ wg;
          T.zero_ bg;
          let loss = Ad.with_plan cache ctx ~key:"t" (trace w b x) in
          Ad.backward ctx loss;
          let el, ew, eb = oracle.(i) in
          check_bits (Printf.sprintf "loss %d" i) el (Ad.scalar_value loss);
          Array.iteri
            (fun j e -> check_bits (Printf.sprintf "wg %d.%d" i j) e
                (T.to_array wg).(j))
            ew;
          Array.iteri
            (fun j e -> check_bits (Printf.sprintf "bg %d.%d" i j) e
                (T.to_array bg).(j))
            eb)
        inputs;
      let s1 = Ad.plan_stats () in
      Alcotest.(check int) "one plan sealed" 1
        (s1.Ad.plans_compiled - s0.Ad.plans_compiled);
      Alcotest.(check int) "every call after the two record passes replays" 4
        (s1.Ad.plan_hits - s0.Ad.plan_hits);
      Alcotest.(check bool) "fusion engaged" true
        (s1.Ad.fused_ops > s0.Ad.fused_ops))

(* A reused key whose trace structure changes (different vector shape)
   must silently evict + re-record, never corrupt. *)
let test_mismatch_rerecords () =
  with_compile true (fun () ->
      let ctx = Ad.new_ctx () in
      let cache = Ad.plan_cache () in
      let f n ctx =
        let x = Ad.constant ctx (T.vector (Array.init n float_of_int)) in
        Ad.sum_all ctx (Ad.mul ctx x x)
      in
      let expect n =
        let acc = ref 0.0 in
        for i = 0 to n - 1 do
          acc := !acc +. (float_of_int i *. float_of_int i)
        done;
        !acc
      in
      let run n =
        let loss = Ad.with_plan cache ctx ~key:"k" (f n) in
        Ad.backward ctx loss;
        Ad.scalar_value loss
      in
      check_bits "record" (expect 3) (run 3);
      check_bits "record and seal" (expect 3) (run 3);
      check_bits "replay" (expect 3) (run 3);
      let s0 = Ad.plan_stats () in
      check_bits "shape change" (expect 5) (run 5);
      let s1 = Ad.plan_stats () in
      Alcotest.(check bool) "evicted on mismatch" true
        (s1.Ad.plan_evictions > s0.Ad.plan_evictions);
      check_bits "resealed replay" (expect 5) (run 5);
      let s2 = Ad.plan_stats () in
      Alcotest.(check bool) "replayed after reseal" true
        (s2.Ad.plan_hits > s1.Ad.plan_hits))

(* Toggling sanitize mode under a sealed key invalidates the plan: a
   plan keeps the poison discipline it was sealed under. *)
let test_mode_change_invalidates () =
  with_compile true (fun () ->
      let rng = Rng.create 5 in
      let w, wg, b, _ = mk_leaves rng in
      let x = Array.init 6 (fun _ -> Rng.float_range rng (-1.0) 1.0) in
      let ctx = Ad.new_ctx () in
      let cache = Ad.plan_cache () in
      let run () =
        let loss = Ad.with_plan cache ctx ~key:"m" (trace w b x) in
        Ad.backward ctx loss;
        Ad.scalar_value loss
      in
      let v = run () in
      check_bits "sealed" v (run ());
      check_bits "replay" v (run ());
      let s0 = Ad.plan_stats () in
      with_sanitize true (fun () -> check_bits "sanitized re-record" v (run ()));
      let s1 = Ad.plan_stats () in
      Alcotest.(check int) "sanitize flip evicts" 1
        (s1.Ad.plan_evictions - s0.Ad.plan_evictions);
      Alcotest.(check int) "and re-seals at once" 1
        (s1.Ad.plans_compiled - s0.Ad.plans_compiled);
      check_bits "unsanitized re-record" v (run ());
      check_bits "unsanitized replay" v (run ());
      Alcotest.(check int) "flipping back evicts again" 2
        ((Ad.plan_stats ()).Ad.plan_evictions - s0.Ad.plan_evictions);
      T.zero_ wg)

(* Batched ops never enter a plan: [with_plan] refuses a trace that
   records one on its first call, and one met while replaying a plan
   sealed from a per-sequence trace evicts the plan, then is refused. *)
let test_batched_trace_refused () =
  with_compile true (fun () ->
      let ctx = Ad.new_ctx () in
      let cache = Ad.plan_cache () in
      let w = Ad.leaf ~value:(T.create ~rows:3 ~cols:2 0.5)
          ~grad:(T.zeros ~rows:3 ~cols:2)
      in
      let x ctx = Ad.constant ctx (T.create ~rows:4 ~cols:2 1.5) in
      let batched =
        [
          ("matmul", fun ctx -> Ad.matmul ctx ~x:(x ctx) ~w);
          ( "add_row",
            fun ctx ->
              Ad.add_row ctx (x ctx)
                ~bias:(Ad.constant ctx (T.create ~rows:1 ~cols:2 0.25)) );
          ("stack_rows", fun ctx -> Ad.stack_rows ctx [| (w, 0); (w, 2) |]);
          ("cols", fun ctx -> Ad.cols ctx (x ctx) ~pos:1 ~len:1);
          ( "concat_cols",
            fun ctx ->
              let a = x ctx in
              Ad.concat_cols ctx [ a; a ] );
          ( "row_blend",
            fun ctx ->
              let a = x ctx in
              Ad.row_blend ctx ~mask:[| 1.0; 0.0; 1.0; 0.0 |] a a );
          ( "mape_batch",
            fun ctx ->
              Ad.mape_batch ctx
                (Ad.constant ctx (T.create ~rows:4 ~cols:1 2.0))
                ~targets:[| 1.0; 2.0; 3.0; 4.0 |] );
          ( "lstm_batch",
            fun ctx ->
              let leaf rows cols =
                Ad.leaf ~value:(T.create ~rows ~cols 0.5)
                  ~grad:(T.zeros ~rows ~cols)
              in
              Ad.lstm_batch ctx ~batch:4
                ~cells:[| (leaf 4 2, leaf 4 1, leaf 1 4) |]
                [ (x ctx, None); (x ctx, Some [| 1.0; 0.0; 1.0; 0.0 |]) ] );
        ]
      in
      let s0 = Ad.plan_stats () in
      List.iter
        (fun (name, op) ->
          match
            Ad.with_plan cache ctx ~key:name (fun ctx -> Ad.sum_all ctx (op ctx))
          with
          | _ -> Alcotest.failf "%s: with_plan accepted a batched trace" name
          | exception Invalid_argument _ -> ())
        batched;
      Alcotest.(check int) "nothing sealed" 0
        ((Ad.plan_stats ()).Ad.plans_compiled - s0.Ad.plans_compiled);
      let plain ctx = Ad.sum_all ctx (x ctx) in
      ignore (Ad.with_plan cache ctx ~key:"drift" plain);
      ignore (Ad.with_plan cache ctx ~key:"drift" plain);
      let s1 = Ad.plan_stats () in
      (match
         Ad.with_plan cache ctx ~key:"drift" (fun ctx ->
             Ad.sum_all ctx (Ad.matmul ctx ~x:(x ctx) ~w))
       with
      | _ -> Alcotest.fail "a batched op replayed inside a sealed plan"
      | exception Invalid_argument _ -> ());
      Alcotest.(check int) "the drifted plan was evicted" 1
        ((Ad.plan_stats ()).Ad.plan_evictions - s1.Ad.plan_evictions))

(* ---- surrogate batched entry points: interpreter only ---- *)

let small_cfg =
  {
    Model.default_config with
    embed_dim = 6;
    token_hidden = 8;
    instr_hidden = 8;
    token_layers = 2;
    instr_layers = 2;
    per_instr_params = 3;
    global_params = 2;
  }

let physics_cfg = { small_cfg with feature_width = 2; head_hidden = 4 }

let mk_samples rng cfg n =
  Array.init n (fun _ ->
      let app = Rng.choice rng Dt_bhive.Generator.applications in
      let b = Dt_bhive.Generator.block rng ~app in
      let per =
        Array.map
          (fun _ ->
            Array.init cfg.Model.per_instr_params (fun _ -> Rng.float rng 1.0))
          b.instrs
      in
      let glob =
        Array.init cfg.Model.global_params (fun _ -> Rng.float rng 1.0)
      in
      let feats =
        if cfg.Model.feature_width = 0 then None
        else
          Some
            (Array.init cfg.Model.feature_width (fun _ ->
                 0.5 +. Rng.float rng 4.0))
      in
      { Model.bblock = b; bparams = Some (per, glob); bfeatures = feats })

(* The same minibatch three times through [train_batch] and
   [predict_batch_value] under the production executor: no record pass,
   no plan, no replay, and the same bits every time. *)
let test_batched_seal_no_plan cfg () =
  let model = Model.create ~config:cfg (Rng.create 131) in
  let rng = Rng.create 17 in
  let samples = mk_samples rng cfg 6 in
  let targets = Array.map (fun _ -> 1.0 +. Rng.float rng 50.0) samples in
  let ctx = Ad.new_ctx () in
  let s0 = Ad.plan_stats () in
  let runs =
    List.init 3 (fun _ ->
        Nn.Store.zero_grads (Model.store model);
        ( Model.train_batch model ctx samples ~targets,
          Model.predict_batch_value model samples ))
  in
  let s1 = Ad.plan_stats () in
  Alcotest.(check (list int)) "plans sealed, hits, misses" [ 0; 0; 0 ]
    [
      s1.Ad.plans_compiled - s0.Ad.plans_compiled;
      s1.Ad.plan_hits - s0.Ad.plan_hits;
      s1.Ad.plan_misses - s0.Ad.plan_misses;
    ];
  let l0, p0 = List.hd runs in
  List.iteri
    (fun k (l, p) ->
      Array.iteri (fun i v -> check_bits (Printf.sprintf "run %d loss %d" k i) v l.(i)) l0;
      Array.iteri (fun i v -> check_bits (Printf.sprintf "run %d pred %d" k i) v p.(i)) p0)
    runs

(* ---- sanitizer parity under compiled replay ---- *)

(* The poison detector must not be compiled away: a planted
   beta-accumulate fault (the PR 2 gemv bug) has to raise even when the
   faulty op executes inside a sealed plan's replay. *)
let test_sanitize_fault_parity () =
  with_sanitize true (fun () ->
      with_compile true (fun () ->
          let ctx = Ad.new_ctx () in
          let cache = Ad.plan_cache () in
          let w =
            Ad.leaf
              ~value:(T.of_array ~rows:2 ~cols:2 [| 1.; 0.; 0.; 1. |])
              ~grad:(T.zeros ~rows:2 ~cols:2)
          in
          let f ctx =
            let x = Ad.constant ctx (T.vector [| 1.; 2. |]) in
            Ad.sum_all ctx (Ad.matvec ctx ~m:w ~x)
          in
          let run () =
            let loss = Ad.with_plan cache ctx ~key:"san" f in
            Ad.backward ctx loss;
            Ad.scalar_value loss
          in
          let v1 = run () in
          check_bits "sanitized seal" v1 (run ());
          check_bits "sanitized replay" v1 (run ());
          Faultsim.arm "ad.gemv_beta" ~at:1;
          match run () with
          | _ -> Alcotest.fail "expected Uninitialized_read under replay"
          | exception Ad.Uninitialized_read m ->
              let contains needle =
                let nh = String.length m and nn = String.length needle in
                let rec go i =
                  i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
                in
                nn = 0 || go 0
              in
              Alcotest.(check bool) "mentions matvec" true
                (contains "Ad.matvec")))

(* Sanitize stays quiet on correct code under replay, and the hoisted
   flow audit is re-reported on every compiled backward. *)
let test_sanitize_quiet_compiled () =
  with_sanitize true (fun () ->
      with_compile true (fun () ->
          let rng = Rng.create 7 in
          let w, wg, b, bg = mk_leaves rng in
          let x = Array.init 6 (fun _ -> Rng.float_range rng (-1.0) 1.0) in
          let ctx = Ad.new_ctx () in
          let cache = Ad.plan_cache () in
          for _ = 1 to 3 do
            let loss = Ad.with_plan cache ctx ~key:"q" (trace w b x) in
            Ad.backward ctx loss;
            match Ad.last_flow_report ctx with
            | None -> Alcotest.fail "no flow report"
            | Some r -> Alcotest.(check int) "no dead nodes" 0 r.Ad.dead
          done;
          T.zero_ wg;
          T.zero_ bg))

(* ---- end-to-end determinism ---- *)

let uarch = Dt_refcpu.Uarch.Haswell

let tiny_train =
  lazy
    (let c = Dt_bhive.Dataset.corpus ~seed:7 ~size:24 in
     let ds = Dt_bhive.Dataset.label c ~seed:3 ~uarch ~noise:0.0 in
     Array.map
       (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
       (Dt_bhive.Dataset.all ds))

(* Parameter-table descent (theta gradients through compiled plans per
   block) must match the interpreter bit for bit at any pool size.  The
   learning rate is high enough for every step to move entries across
   rounding boundaries, so a changed gradient shows in the extracted
   table.  Each pool lane keeps one plan cache, so a one-domain descent
   records every eligible block twice, seals it once and replays each
   later visit. *)
let test_table_compiled_equals_interp () =
  let module Spec = Dt_difftune.Spec in
  let module Engine = Dt_difftune.Engine in
  let train = Lazy.force tiny_train in
  let blocks = Array.map fst train in
  let spec = Spec.mca_write_latency uarch in
  let cfg =
    {
      Engine.fast_config with
      seed = 3;
      sim_multiplier = 2;
      surrogate_passes = 0.25;
      table_passes = 4.0;
      table_lr = 1.0;
    }
  in
  let run ?(cfg = cfg) ~compile domains =
    with_domains domains (fun () ->
        with_compile compile (fun () ->
            let data = Engine.collect cfg spec blocks in
            let model = Engine.make_model cfg spec (Rng.create 5) in
            ignore (Engine.train_surrogate cfg spec model data blocks);
            Ad.reset_plan_stats ();
            let table = Engine.optimize_table cfg spec model ~train in
            (table, Ad.plan_stats ())))
  in
  let check_table label (ti : Spec.table) (tc : Spec.table) =
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v ->
            check_bits (Printf.sprintf "%s: per %d.%d" label i j) v
              tc.per.(i).(j))
          row)
      ti.per;
    Array.iteri
      (fun j v ->
        check_bits (Printf.sprintf "%s: global %d" label j) v tc.global.(j))
      ti.global
  in
  let oracle, _ = run ~compile:false 1 in
  (* The oracle table, pinned bit for bit: MD5 over every entry's
     IEEE-754 bits (the per rows in order, then the globals).  Nothing
     else in [dune runtest] notices a learned table that moved.  After a
     deliberate numeric change, re-record the digest: run this test and
     copy the value the failure reports as received. *)
  let bits_digest (t : Spec.table) =
    let b = Buffer.create 8192 in
    let add v = Buffer.add_int64_le b (bits v) in
    Array.iter (Array.iter add) t.per;
    Array.iter add t.global;
    Digest.to_hex (Digest.string (Buffer.contents b))
  in
  Alcotest.(check string)
    "oracle table digest" "6fcd96a3be60f8495b4bc064c4ce8f98"
    (bits_digest oracle);
  let start, _ = run ~cfg:{ cfg with table_passes = 0.0 } ~compile:false 1 in
  Alcotest.(check bool) "descent moved the table" true (oracle <> start);
  let compiled, st = run ~compile:true 1 in
  check_table "compiled domains=1" oracle compiled;
  List.iter
    (fun (compile, domains) ->
      let table, _ = run ~compile domains in
      check_table
        (Printf.sprintf "%s domains=%d"
           (if compile then "compiled" else "interp")
           domains)
        oracle table)
    [ (false, 2); (true, 2); (false, 4); (true, 4) ];
  let eligible =
    List.filter
      (fun (b, _) -> Dt_x86.Block.length b <= cfg.max_train_block_len)
      (Array.to_list train)
  in
  let distinct =
    List.length
      (List.sort_uniq String.compare
         (List.map (fun (b, _) -> Dt_x86.Block.to_string b) eligible))
  in
  let steps =
    int_of_float (cfg.table_passes *. float_of_int (List.length eligible))
  in
  Alcotest.(check int) "one plan per distinct eligible block" distinct
    st.Ad.plans_compiled;
  Alcotest.(check int) "every visit after the two record passes hits"
    (steps - (2 * distinct)) st.plan_hits;
  Alcotest.(check int) "no evictions" 0 st.plan_evictions

let () =
  Alcotest.run "plan"
    [
      ( "executor",
        [
          Alcotest.test_case "replay bitwise + stats" `Quick test_replay_bitwise;
          Alcotest.test_case "mismatch re-records" `Quick test_mismatch_rerecords;
          Alcotest.test_case "mode change invalidates" `Quick
            test_mode_change_invalidates;
          Alcotest.test_case "batched trace refused" `Quick
            test_batched_trace_refused;
        ] );
      ( "model",
        [
          Alcotest.test_case "batched calls seal no plan (plain)" `Quick
            (test_batched_seal_no_plan small_cfg);
          Alcotest.test_case "batched calls seal no plan (physics)" `Quick
            (test_batched_seal_no_plan physics_cfg);
        ] );
      ( "sanitize",
        [
          Alcotest.test_case "gemv fault raises under replay" `Quick
            test_sanitize_fault_parity;
          Alcotest.test_case "quiet + flow report under replay" `Quick
            test_sanitize_quiet_compiled;
        ] );
      ( "engine",
        [
          Alcotest.test_case "table phase compiled = interp" `Quick
            test_table_compiled_equals_interp;
        ] );
    ]
