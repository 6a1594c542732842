(* Tests for the PR 6 compiled tape executor: record/plan/replay must be
   bitwise indistinguishable from the interpreted oracle (forward
   values, losses, every parameter gradient), the plan cache must
   recover from structural drift under a reused key, the sanitizer's
   poison discipline must survive compilation (a planted ad.gemv_beta
   fault still raises under replay), and compiled end-to-end training
   must stay deterministic across domain counts. *)

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
          let loss = Ad.with_plan cache ctx ~key:"t" ~grad:true (trace w b x) in
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
      Alcotest.(check bool) "plan compiled" true
        (s1.Ad.plans_compiled > s0.Ad.plans_compiled);
      Alcotest.(check bool) "replays happened" true
        (s1.Ad.plan_replays >= s0.Ad.plan_replays + 5);
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
        Ad.scalar_value (Ad.with_plan cache ctx ~key:"k" ~grad:false (f n))
      in
      check_bits "record" (expect 3) (run 3);
      check_bits "replay" (expect 3) (run 3);
      let s0 = Ad.plan_stats () in
      check_bits "shape change" (expect 5) (run 5);
      let s1 = Ad.plan_stats () in
      Alcotest.(check bool) "evicted on mismatch" true
        (s1.Ad.plan_evictions > s0.Ad.plan_evictions);
      check_bits "resealed replay" (expect 5) (run 5);
      let s2 = Ad.plan_stats () in
      Alcotest.(check bool) "replayed after reseal" true
        (s2.Ad.plan_replays > s1.Ad.plan_replays))

(* Toggling gradient mode under a sealed key invalidates the plan. *)
let test_mode_change_invalidates () =
  with_compile true (fun () ->
      let rng = Rng.create 5 in
      let w, wg, b, _ = mk_leaves rng in
      let x = Array.init 6 (fun _ -> Rng.float_range rng (-1.0) 1.0) in
      let ctx = Ad.new_ctx () in
      let cache = Ad.plan_cache () in
      let run grad =
        Ad.scalar_value (Ad.with_plan cache ctx ~key:"m" ~grad (trace w b x))
      in
      let v = run true in
      check_bits "grad replay" v (run true);
      let s0 = Ad.plan_stats () in
      check_bits "fwd-only re-record" v (run false);
      Alcotest.(check bool) "grad flip evicts" true
        ((Ad.plan_stats ()).Ad.plan_evictions > s0.Ad.plan_evictions);
      check_bits "fwd-only replay" v (run false);
      (* Forward-only plans refuse backward. *)
      (match
         let loss = Ad.with_plan cache ctx ~key:"m" ~grad:false (trace w b x) in
         Ad.backward ctx loss
       with
      | () -> Alcotest.fail "expected invalid_arg on fwd-only backward"
      | exception Invalid_argument _ -> ());
      T.zero_ wg)

(* ---- surrogate paths: compiled == interpreted, bitwise ---- *)

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

let grads_of store =
  let out = ref [] in
  Nn.Store.iter store (fun name ~value:_ ~grad ->
      out := (name, T.to_array grad) :: !out);
  List.rev !out

let check_grads label a b =
  List.iter2
    (fun (na, ga) (nb, gb) ->
      Alcotest.(check string) (label ^ " param") na nb;
      Array.iteri
        (fun j v -> check_bits (Printf.sprintf "%s %s[%d]" label na j) v gb.(j))
        ga)
    a b

(* Twin models from the same seed; one trains interpreted, the other
   compiled, over several iterations and several batch shapes (so the
   compiled side records, seals, replays, and switches plans). *)
let train_compiled_equals_interp cfg name () =
  let mk () = Model.create ~config:cfg (Rng.create 131) in
  let interp = mk () and compiled = mk () in
  let rng = Rng.create 17 in
  let samples = mk_samples rng cfg 9 in
  let targets = Array.map (fun _ -> 1.0 +. Rng.float rng 50.0) samples in
  let batches =
    (* varying sizes: different shape profiles force distinct plans *)
    [| (0, 9); (0, 9); (0, 9); (2, 5); (0, 9); (2, 5); (0, 4) |]
  in
  let run model compile =
    with_compile compile (fun () ->
        let ctx = Ad.new_ctx () in
        let store = Model.store model in
        Array.map
          (fun (lo, len) ->
            Nn.Store.zero_grads store;
            let ls =
              Model.train_batch model ctx
                (Array.sub samples lo len)
                ~targets:(Array.sub targets lo len)
            in
            (ls, grads_of store))
          batches)
  in
  let ri = run interp false in
  let rc = run compiled true in
  Array.iteri
    (fun i (li, gi) ->
      let lc, gc = rc.(i) in
      Array.iteri
        (fun j v -> check_bits (Printf.sprintf "%s loss %d.%d" name i j) v lc.(j))
        li;
      check_grads (Printf.sprintf "%s iter %d" name i) gi gc)
    ri

(* The scalar prediction is a one-sample batch. *)
let test_one_sample_batch_bitwise () =
  let mk () = Model.create ~config:small_cfg (Rng.create 77) in
  let interp = mk () and compiled = mk () in
  let rng = Rng.create 41 in
  let samples = mk_samples rng small_cfg 5 in
  (* Three sweeps: the compiled side records each shape profile twice,
     then replays its sealed plan. *)
  for sweep = 1 to 3 do
    Array.iteri
      (fun i (s : Model.batch_sample) ->
        let vi =
          with_compile false (fun () -> Model.predict_batch_value interp [| s |])
        in
        let vc =
          with_compile true (fun () -> Model.predict_batch_value compiled [| s |])
        in
        check_bits (Printf.sprintf "sweep %d block %d" sweep i) vi.(0) vc.(0))
      samples
  done

let test_predict_batch_bitwise () =
  let mk () = Model.create ~config:physics_cfg (Rng.create 99) in
  let interp = mk () and compiled = mk () in
  let rng = Rng.create 53 in
  let samples = mk_samples rng physics_cfg 8 in
  for sweep = 1 to 3 do
    let vi =
      with_compile false (fun () -> Model.predict_batch_value interp samples)
    in
    let vc =
      with_compile true (fun () -> Model.predict_batch_value compiled samples)
    in
    Array.iteri
      (fun i v -> check_bits (Printf.sprintf "sweep %d row %d" sweep i) v vc.(i))
      vi
  done

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
            Ad.scalar_value (Ad.with_plan cache ctx ~key:"san" ~grad:false f)
          in
          let v1 = run () in
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
            let loss =
              Ad.with_plan cache ctx ~key:"q" ~grad:true (trace w b x)
            in
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

(* Compiled surrogate training must be bit-identical to interpreted
   training, and deterministic across DIFFTUNE_DOMAINS=1,2,4. *)
let test_train_domains_compiled () =
  let module Spec = Dt_difftune.Spec in
  let module Engine = Dt_difftune.Engine in
  let train = Lazy.force tiny_train in
  let blocks = Array.map fst train in
  let spec = Spec.mca_write_latency uarch in
  let cfg =
    {
      Engine.fast_config with
      seed = 9;
      sim_multiplier = 2;
      surrogate_passes = 0.5;
    }
  in
  let run ~compile domains =
    with_domains domains (fun () ->
        with_compile compile (fun () ->
            let data = Engine.collect cfg spec blocks in
            let model = Engine.make_model cfg spec (Rng.create 5) in
            let loss = Engine.train_surrogate cfg spec model data blocks in
            (loss, Nn.Store.export_values (Model.store model))))
  in
  let l0, w0 = run ~compile:false 1 in
  let l1, w1 = run ~compile:true 1 in
  let l2, w2 = run ~compile:true 2 in
  let l4, w4 = run ~compile:true 4 in
  check_bits "compiled = interp" l0 l1;
  check_bits "domains 1=2" l1 l2;
  check_bits "domains 1=4" l1 l4;
  let check_weights label a b =
    List.iter2
      (fun (na, _, _, da) (nb, _, _, db) ->
        if na <> nb then Alcotest.failf "%s: name %s <> %s" label na nb;
        Array.iteri
          (fun i v ->
            if not (Int64.equal (bits v) (bits db.(i))) then
              Alcotest.failf "%s: %s[%d] %h <> %h" label na i v db.(i))
          da)
      a b
  in
  check_weights "weights interp=compiled" w0 w1;
  check_weights "weights 1=2" w1 w2;
  check_weights "weights 1=4" w1 w4

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
        ] );
      ( "model",
        [
          Alcotest.test_case "train compiled = interp (plain)" `Quick
            (train_compiled_equals_interp small_cfg "plain");
          Alcotest.test_case "train compiled = interp (physics)" `Quick
            (train_compiled_equals_interp physics_cfg "physics");
          Alcotest.test_case "one-sample batch bitwise" `Quick
            test_one_sample_batch_bitwise;
          Alcotest.test_case "predict_batch bitwise" `Quick
            test_predict_batch_bitwise;
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
          Alcotest.test_case "compiled training domain determinism" `Quick
            test_train_domains_compiled;
          Alcotest.test_case "table phase compiled = interp" `Quick
            test_table_compiled_equals_interp;
        ] );
    ]
