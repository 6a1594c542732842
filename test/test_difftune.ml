(* Tests for the DiffTune core: specs and engine. *)

module Rng = Dt_util.Rng
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Uarch = Dt_refcpu.Uarch
module Ad = Dt_autodiff.Ad
module T = Dt_tensor.Tensor

let spec = Spec.mca_full Uarch.Haswell

let test_spec_shapes () =
  Alcotest.(check int) "per width 15" 15 spec.per_width;
  Alcotest.(check int) "global width 2" 2 spec.global_width;
  Alcotest.(check int) "per bounds" 15 (Array.length spec.per_lower);
  Alcotest.(check int) "uppers" 15 (Array.length spec.per_upper)

let test_sample_within_support () =
  let rng = Rng.create 1 in
  for _ = 1 to 5 do
    let t = spec.sample rng in
    Array.iter
      (fun row ->
        Array.iteri
          (fun j v ->
            Alcotest.(check bool) "within bounds" true
              (v >= spec.per_lower.(j) && v <= spec.per_upper.(j)))
          row)
      t.per;
    Array.iteri
      (fun j v ->
        Alcotest.(check bool) "global within bounds" true
          (v >= spec.global_lower.(j) && v <= spec.global_upper.(j)))
      t.global
  done

let test_round_table_constraints () =
  let t =
    {
      Spec.per = Array.init Dt_x86.Opcode.count (fun _ -> Array.make 15 (-3.7));
      global = [| 0.2; -10.0 |];
    }
  in
  let r = Spec.round_table spec t in
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check bool) "lower bound respected" true
            (v >= spec.per_lower.(j));
          Alcotest.(check (float 1e-9)) "integral" (Float.round v) v)
        row)
    r.per;
  Alcotest.(check bool) "global bounded" true (r.global.(0) >= 1.0 && r.global.(1) >= 1.0)

let test_flatten_roundtrip () =
  let rng = Rng.create 2 in
  let t = spec.sample rng in
  let t' = Spec.unflatten spec (Spec.flatten spec t) in
  Alcotest.(check bool) "global" true (t.global = t'.global);
  Alcotest.(check bool) "per" true (t.per = t'.per)

let test_normalize_block () =
  let dflt = Spec.mca_table_of_params (Dt_mca.Params.default Uarch.Haswell) in
  let b = Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx" in
  let per, global = Spec.normalize_block spec dflt b in
  Alcotest.(check int) "one vector per instruction" 2 (Array.length per);
  Alcotest.(check int) "global width" 2 (Array.length global);
  Array.iter
    (fun row ->
      Array.iter
        (fun v -> Alcotest.(check bool) "nonnegative" true (v >= 0.0))
        row)
    per

let test_params_table_roundtrip () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  let p' = Spec.mca_params_of_table (Spec.mca_table_of_params p) in
  Alcotest.(check int) "dw" p.dispatch_width p'.dispatch_width;
  Alcotest.(check int) "rob" p.reorder_buffer_size p'.reorder_buffer_size;
  Alcotest.(check bool) "wl" true (p.write_latency = p'.write_latency);
  Alcotest.(check bool) "pm" true (p.port_map = p'.port_map)

let test_default_table_timing_matches_params () =
  let p = Dt_mca.Params.default Uarch.Haswell in
  let t = Spec.mca_table_of_params p in
  let b = Dt_x86.Block.parse "pushq %rbx\ntestl %r8d, %r8d" in
  Alcotest.(check (float 1e-9)) "same timing"
    (Dt_mca.Pipeline.timing p b)
    (spec.timing t b)

(* The differentiable bound vector evaluated at a concrete table must
   match a plain-float computation of the same bounds. *)
let test_bounds_match_plain_computation () =
  let dflt = Dt_mca.Params.default Uarch.Haswell in
  let table = Spec.mca_table_of_params dflt in
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rax\npushq %rcx" in
  let per, global = Spec.normalize_block spec table b in
  let ctx = Ad.new_ctx () in
  let per_n = Array.map (fun v -> Ad.constant ctx (T.vector v)) per in
  let global_n = Some (Ad.constant ctx (T.vector global)) in
  let bounds = (Option.get spec.bounds) ctx b ~per:per_n ~global:global_n in
  let v = Ad.value bounds in
  Alcotest.(check int) "three bounds" Spec.n_bounds (T.size v);
  (* Frontend: uops(add)=1, uops(add)=1, uops(push)=2 over width 4 = 1.0 *)
  let opcode n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let uops = float_of_int
      (dflt.num_micro_ops.(opcode "ADD64rr") * 2
       + dflt.num_micro_ops.(opcode "PUSH64r")) in
  Alcotest.(check (float 1e-6)) "frontend bound"
    (uops /. float_of_int dflt.dispatch_width)
    (T.get1 v 0);
  (* Chain: two mutually dependent 1-cycle adds -> 2 cycles/iter. *)
  Alcotest.(check (float 1e-6)) "chain bound" 2.0 (T.get1 v 2)

let test_bounds_gradients_flow_to_theta () =
  (* Gradients must reach a leaf table through the bound graph. *)
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rax" in
  let theta = T.create ~rows:Dt_x86.Opcode.count ~cols:15 0.5 in
  let grad = T.zeros ~rows:Dt_x86.Opcode.count ~cols:15 in
  let leaf = Ad.leaf ~value:theta ~grad in
  let ctx = Ad.new_ctx () in
  let per =
    Array.map
      (fun (i : Dt_x86.Instruction.t) -> Ad.row ctx ~m:leaf i.opcode.index)
      b.instrs
  in
  let global = Some (Ad.constant ctx (T.vector [| 0.6; 1.0 |])) in
  let bounds = (Option.get spec.bounds) ctx b ~per ~global in
  let loss = Ad.mape ctx (Ad.reduce_max ctx bounds) ~target:1.0 in
  Ad.backward ctx loss;
  let total = T.dot grad grad in
  Alcotest.(check bool) "nonzero theta gradient" true (total > 0.0)

let test_wl_spec_shapes () =
  let wl = Spec.mca_write_latency Uarch.Haswell in
  Alcotest.(check int) "per width 1" 1 wl.per_width;
  Alcotest.(check int) "no globals" 0 wl.global_width;
  (* Setting learned WL to the default values reproduces default timing. *)
  let dflt = Dt_mca.Params.default Uarch.Haswell in
  let t =
    {
      Spec.per =
        Array.init Dt_x86.Opcode.count (fun i ->
            [| float_of_int dflt.write_latency.(i) |]);
      global = [||];
    }
  in
  let b = Dt_x86.Block.parse "imulq %rax, %rbx\nimulq %rbx, %rax" in
  Alcotest.(check (float 1e-9)) "matches default"
    (Dt_mca.Pipeline.timing dflt b)
    (wl.timing t b)

let test_usim_spec () =
  let us = Spec.usim_spec Uarch.Haswell in
  Alcotest.(check int) "per width 11" 11 us.per_width;
  let rng = Rng.create 3 in
  let t = us.sample rng in
  let b = Dt_x86.Block.parse "addq %rax, %rbx" in
  Alcotest.(check bool) "positive" true (us.timing t b > 0.0)

let test_search_bounds () =
  let lower, upper = Spec.search_bounds spec in
  Alcotest.(check int) "dim" (2 + (Dt_x86.Opcode.count * 15)) (Array.length lower);
  Alcotest.(check (float 1e-9)) "dw lower" 1.0 lower.(0);
  Alcotest.(check (float 1e-9)) "dw upper" 10.0 upper.(0);
  Alcotest.(check (float 1e-9)) "rob lower" 50.0 lower.(1);
  Alcotest.(check (float 1e-9)) "rob upper" 250.0 upper.(1);
  Alcotest.(check (float 1e-9)) "per upper 5" 5.0 upper.(2)

(* ---- engine smoke tests (tiny budgets) ---- *)

let tiny_train =
  let c = Dt_bhive.Dataset.corpus ~seed:11 ~size:60 in
  let ds = Dt_bhive.Dataset.label c ~seed:2 ~uarch:Uarch.Haswell ~noise:0.0 in
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (Dt_bhive.Dataset.all ds)

let tiny_cfg = { Engine.fast_config with seed = 4; table_passes = 2.0 }

(* [table_lr = 1.0], as in test_fault: at the fast config's 0.05 the
   descent moves no rounded entry (0 of 3,737 in [learn smoke], 0 of 249
   in [validation gating]), so neither test could see a descent or a
   gating bug.  Each checks that its table moved off a zero-pass
   learn's. *)
let moving_cfg = { tiny_cfg with Engine.table_lr = 1.0 }

let unmoved ?valid spec =
  (Engine.learn ?valid { moving_cfg with table_passes = 0.0 } spec
     ~train:tiny_train)
    .table

(* MD5 over every entry's IEEE-754 bits: the per rows in order, then
   the globals. *)
let bits_digest (t : Spec.table) =
  let b = Buffer.create 8192 in
  let add v = Buffer.add_int64_le b (Int64.bits_of_float v) in
  Array.iter (Array.iter add) t.per;
  Array.iter add t.global;
  Digest.to_hex (Digest.string (Buffer.contents b))

let test_collect () =
  let blocks = Array.map fst tiny_train in
  let data = Engine.collect tiny_cfg (Spec.mca_full Uarch.Haswell) blocks in
  Alcotest.(check bool) "nonempty" true (Array.length data > 0);
  Array.iter
    (fun (s : Engine.sim_sample) ->
      Alcotest.(check bool) "target positive" true (s.target > 0.0);
      Alcotest.(check bool) "block idx valid" true
        (s.block_idx >= 0 && s.block_idx < Array.length blocks);
      Alcotest.(check int) "per width" (Dt_x86.Block.length blocks.(s.block_idx))
        (Array.length s.per))
    data

let test_learn_end_to_end_smoke () =
  let res = Engine.learn moving_cfg spec ~train:tiny_train in
  Alcotest.(check bool) "descent moves the table" true
    (res.table <> unmoved spec);
  (* The learned table's bits.  Descent here moves 870 of 3,737
     entries, so unlike the 24-block descent pin it sees a change in
     what descent feeds the surrogate, such as instruction i given
     instruction i+1's token vectors.  After a deliberate numeric
     change, re-record the digest from this check's failure. *)
  Alcotest.(check string) "learned table digest"
    "0016c45d50c472e4b0f4f69495b6bf19" (bits_digest res.table);
  (* Extracted table must satisfy the constraints. *)
  Array.iter
    (fun row ->
      Array.iteri
        (fun j v ->
          Alcotest.(check bool) "bounded" true (v >= spec.per_lower.(j));
          Alcotest.(check (float 1e-9)) "integral" (Float.round v) v)
        row)
    res.table.per;
  Alcotest.(check bool) "dw in sampled support" true
    (res.table.global.(0) >= 1.0 && res.table.global.(0) <= 10.0);
  Alcotest.(check bool) "rob in sampled support" true
    (res.table.global.(1) >= 1.0 && res.table.global.(1) <= 250.0);
  (* And the simulator accepts it. *)
  let b = fst tiny_train.(0) in
  Alcotest.(check bool) "timing works" true (spec.timing res.table b > 0.0)

let test_learned_better_than_random_smoke () =
  (* Even a tiny run should beat the random-table average on train. *)
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let cfg =
    {
      tiny_cfg with
      Engine.table_passes = 10.0;
      sim_multiplier = 8;
      surrogate_passes = 2.0;
      token_hidden = 16;
      instr_hidden = 16;
    }
  in
  let res = Engine.learn cfg wl_spec ~train:tiny_train in
  let err table =
    Dt_util.Stats.mean
      (Array.map
         (fun (b, y) -> Float.abs (wl_spec.timing table b -. y) /. y)
         tiny_train)
  in
  let rng = Rng.create 9 in
  let random_err =
    Dt_util.Stats.mean (Array.init 5 (fun _ -> err (wl_spec.sample rng)))
  in
  let learned_err = err res.table in
  Alcotest.(check bool)
    (Printf.sprintf "learned %.2f < mean random %.2f" learned_err random_err)
    true
    (learned_err < random_err)

let test_learn_with_validation_gating () =
  (* Validation-gated extraction returns a constraint-satisfying table
     and never one that is worse on validation than the final iterate
     (here we just exercise the path end to end). *)
  let valid = Array.sub tiny_train 0 20 in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let res = Engine.learn ~valid moving_cfg wl_spec ~train:tiny_train in
  Alcotest.(check bool) "descent moves the table" true
    (res.table <> unmoved ~valid wl_spec);
  Array.iter
    (fun (row : float array) ->
      Alcotest.(check bool) "bounded" true (row.(0) >= 0.0))
    res.table.per;
  let err =
    Dt_util.Stats.mean
      (Array.map
         (fun (b, y) -> Float.abs (wl_spec.timing res.table b -. y) /. y)
         valid)
  in
  Alcotest.(check bool) "finite validation error" true (Float.is_finite err)

(* The parallel phases must be bit-identical regardless of how many
   domains execute them: collect uses per-sample RNG streams and the
   training loops use a fixed shard count with an ordered reduction. *)
let test_domain_determinism () =
  let blocks = Array.map fst tiny_train in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
  let cfg =
    { tiny_cfg with Engine.sim_multiplier = 2; surrogate_passes = 0.5 }
  in
  let run domains =
    Testkit.with_domains domains (fun () ->
        let data = Engine.collect cfg wl_spec blocks in
        let model = Engine.make_model cfg wl_spec (Rng.create 11) in
        let loss = Engine.train_surrogate cfg wl_spec model data blocks in
        (data, loss))
  in
  let d1, l1 = run 1 in
  let d3, l3 = run 3 in
  Alcotest.(check int) "same dataset size" (Array.length d1) (Array.length d3);
  Alcotest.(check bool) "collect bit-identical" true (d1 = d3);
  Alcotest.(check bool)
    (Printf.sprintf "train loss bit-identical (%.17g vs %.17g)" l1 l3)
    true
    (Float.equal l1 l3)

(* Table descent on the write-latency spec, 24 blocks: the learned
   table's bits are pinned, and equal at 1, 2 and 4 domains.  The
   learning rate is high enough for every step to move entries across
   rounding boundaries, so a changed gradient shows in the extracted
   table.  After a deliberate numeric change, re-record the digest from
   this check's failure. *)
let test_table_descent_domains () =
  let train =
    let c = Dt_bhive.Dataset.corpus ~seed:7 ~size:24 in
    let ds = Dt_bhive.Dataset.label c ~seed:3 ~uarch:Uarch.Haswell ~noise:0.0 in
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      (Dt_bhive.Dataset.all ds)
  in
  let blocks = Array.map fst train in
  let wl_spec = Spec.mca_write_latency Uarch.Haswell in
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
  let run ?(cfg = cfg) domains =
    Testkit.with_domains domains (fun () ->
        let data = Engine.collect cfg wl_spec blocks in
        let model = Engine.make_model cfg wl_spec (Rng.create 5) in
        ignore (Engine.train_surrogate cfg wl_spec model data blocks);
        Engine.optimize_table cfg wl_spec model ~train)
  in
  let table = run 1 in
  Alcotest.(check string) "learned table digest"
    "6fcd96a3be60f8495b4bc064c4ce8f98" (bits_digest table);
  Alcotest.(check bool) "descent moved the table" true
    (table <> run ~cfg:{ cfg with table_passes = 0.0 } 1);
  let bits (t : Spec.table) =
    Array.map Int64.bits_of_float (Array.concat (t.global :: Array.to_list t.per))
  in
  List.iter
    (fun d ->
      Alcotest.(check (array int64))
        (Printf.sprintf "domains=%d bitwise" d)
        (bits table) (bits (run d)))
    [ 2; 4 ]

let ithemal_features =
  let reference = Spec.mca_table_of_params (Dt_mca.Params.default Uarch.Haswell) in
  Some (Engine.spec_features spec ~reference)

let tiny_ithemal () =
  Engine.train_ithemal tiny_cfg ~features:ithemal_features
    ~train:(Array.to_list tiny_train)

(* MD5 over the model's weight bits, in store order. *)
let weights_digest model =
  let b = Buffer.create 65536 in
  List.iter
    (fun (_, _, _, data) ->
      Array.iter (fun v -> Buffer.add_int64_le b (Int64.bits_of_float v)) data)
    (Dt_nn.Nn.Store.export_values (Dt_surrogate.Model.store model));
  Digest.to_hex (Digest.string (Buffer.contents b))

(* The fitted weights' bits.  After a deliberate numeric change,
   re-record the digest from [ithemal smoke]'s failure. *)
let ithemal_digest = "7a1442685595ff54ea03c1dc72c4387a"

let test_ithemal_smoke () =
  let model = tiny_ithemal () in
  Alcotest.(check string) "fitted weights digest" ithemal_digest
    (weights_digest model);
  let p =
    Engine.ithemal_predict ~features:ithemal_features model (fst tiny_train.(0))
  in
  Alcotest.(check bool) "finite positive" true (Float.is_finite p && p > 0.0)

(* The Ithemal fit runs on the same fixed shards as surrogate training:
   its weights' bits are the pinned ones at 1, 2 and 4 domains. *)
let test_ithemal_domains () =
  List.iter
    (fun d ->
      Alcotest.(check string)
        (Printf.sprintf "domains=%d digest" d)
        ithemal_digest
        (weights_digest (Testkit.with_domains d tiny_ithemal)))
    [ 1; 2; 4 ]

(* [--racecheck] (the suite's second runtest rule) arms the dynamic
   race checker for every case. *)
let () =
  Testkit.run "difftune"
    [
      ( "spec",
        [
          Alcotest.test_case "shapes" `Quick test_spec_shapes;
          Alcotest.test_case "sample support" `Quick test_sample_within_support;
          Alcotest.test_case "round constraints" `Quick test_round_table_constraints;
          Alcotest.test_case "flatten roundtrip" `Quick test_flatten_roundtrip;
          Alcotest.test_case "normalize block" `Quick test_normalize_block;
          Alcotest.test_case "params/table roundtrip" `Quick
            test_params_table_roundtrip;
          Alcotest.test_case "table timing" `Quick
            test_default_table_timing_matches_params;
          Alcotest.test_case "bounds vs plain" `Quick
            test_bounds_match_plain_computation;
          Alcotest.test_case "bounds gradients" `Quick
            test_bounds_gradients_flow_to_theta;
          Alcotest.test_case "wl spec" `Quick test_wl_spec_shapes;
          Alcotest.test_case "usim spec" `Quick test_usim_spec;
          Alcotest.test_case "search bounds" `Quick test_search_bounds;
        ] );
      ( "engine",
        [
          Alcotest.test_case "collect" `Quick test_collect;
          Alcotest.test_case "domain determinism" `Quick
            test_domain_determinism;
          Alcotest.test_case "table descent pinned at 1/2/4 domains" `Quick
            test_table_descent_domains;
          Alcotest.test_case "learn smoke" `Slow test_learn_end_to_end_smoke;
          Alcotest.test_case "validation gating" `Slow
            test_learn_with_validation_gating;
          Alcotest.test_case "beats random" `Slow
            test_learned_better_than_random_smoke;
          Alcotest.test_case "ithemal smoke" `Slow test_ithemal_smoke;
          Alcotest.test_case "ithemal fit pinned at 1/2/4 domains" `Quick
            test_ithemal_domains;
        ] );
    ]
