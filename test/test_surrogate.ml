(* Tests for the tokenizer and the surrogate model. *)

module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Rng = Dt_util.Rng
open Dt_surrogate

let test_vocab_size () =
  Alcotest.(check int) "opcodes + regs + 5 specials"
    (Dt_x86.Opcode.count + Dt_x86.Reg.count + 5)
    Tokenizer.vocab_size

let tokens_of s = Tokenizer.tokens (Dt_x86.Parser.instruction s)

let names_of s = List.map Tokenizer.token_name (tokens_of s)

let test_tokens_in_range () =
  let rng = Rng.create 5 in
  for _ = 1 to 50 do
    let app = Rng.choice rng Dt_bhive.Generator.applications in
    let b = Dt_bhive.Generator.block rng ~app in
    Array.iter
      (fun i ->
        List.iter
          (fun tok ->
            Alcotest.(check bool) "in range" true
              (tok >= 0 && tok < Tokenizer.vocab_size))
          (Tokenizer.tokens i))
      b.instrs
  done

let test_canonicalization_add () =
  Alcotest.(check (list string)) "add rr"
    [ "ADD32rr"; "<S>"; "rbx"; "rax"; "<D>"; "rbx"; "<E>" ]
    (names_of "addl %eax, %ebx")

let test_canonicalization_mov_load () =
  Alcotest.(check (list string)) "load"
    [ "MOV64rm"; "<S>"; "MEM"; "rsp"; "<D>"; "rax"; "<E>" ]
    (names_of "movq 16(%rsp), %rax")

let test_canonicalization_store () =
  Alcotest.(check (list string)) "store"
    [ "MOV64mr"; "<S>"; "rax"; "<D>"; "MEM"; "rsp"; "<E>" ]
    (names_of "movq %rax, 16(%rsp)")

let test_canonicalization_imm () =
  Alcotest.(check (list string)) "imm"
    [ "ADD64ri"; "<S>"; "rax"; "CONST"; "<D>"; "rax"; "<E>" ]
    (names_of "addq $5, %rax")

let test_canonicalization_rmw () =
  (* ADD32mr reads and writes memory: MEM appears on both sides. *)
  let names = names_of "addl %eax, 16(%rsp)" in
  let count x = List.length (List.filter (( = ) x) names) in
  Alcotest.(check int) "MEM twice" 2 (count "MEM")

let test_nop_tokens () =
  Alcotest.(check (list string)) "nop" [ "NOP32"; "<S>"; "<D>"; "<E>" ]
    (names_of "nop")

let test_token_name_bounds () =
  Alcotest.(check bool) "raises" true
    (try
       ignore (Tokenizer.token_name Tokenizer.vocab_size);
       false
     with Invalid_argument _ -> true)

(* ---- Model ---- *)

let block = Dt_x86.Block.parse "addq %rax, %rbx\nmovq 8(%rsp), %rcx"

let small_cfg =
  {
    Model.default_config with
    embed_dim = 6;
    token_hidden = 8;
    instr_hidden = 8;
    token_layers = 1;
    instr_layers = 1;
  }

(* The scalar prediction: a one-sample batch. *)
let predict1 model ?features params =
  (Model.predict_batch_value model
     [| { Model.bblock = block; bparams = params; bfeatures = features } |]).(0)

let test_model_with_params () =
  let rng = Rng.create 7 in
  let model = Model.create ~config:small_cfg rng in
  let per = Array.make 2 (Array.make 15 0.2) in
  let glob = [| 0.4; 1.0 |] in
  let v = predict1 model (Some (per, glob)) in
  Alcotest.(check bool) "finite" true (Float.is_finite v)

let test_model_param_count_mismatch () =
  let rng = Rng.create 7 in
  let model = Model.create ~config:small_cfg rng in
  let per = Array.make 1 (Array.make 15 0.2) in
  Alcotest.(check bool) "mismatch rejected" true
    (try
       ignore (predict1 model (Some (per, [| 0.; 0. |])));
       false
     with Invalid_argument _ -> true)

let test_model_requires_params () =
  let rng = Rng.create 7 in
  let model = Model.create ~config:small_cfg rng in
  Alcotest.(check bool) "params required" true
    (try
       ignore (predict1 model None);
       false
     with Invalid_argument _ -> true)

let test_ithemal_mode () =
  let rng = Rng.create 8 in
  let cfg = { small_cfg with Model.with_params = false; per_instr_params = 0; global_params = 0 } in
  let model = Model.create ~config:cfg rng in
  let v = predict1 model None in
  Alcotest.(check bool) "finite" true (Float.is_finite v)

let test_physics_informed_positive () =
  (* With features, the prediction is base * exp(corr) > 0 at init. *)
  let rng = Rng.create 9 in
  let cfg = { small_cfg with Model.feature_width = 3 } in
  let model = Model.create ~config:cfg rng in
  let per = Array.make 2 (Array.make 15 0.2) in
  let v =
    predict1 model ~features:[| 1.5; 0.5; 2.0 |] (Some (per, [| 0.4; 1.0 |]))
  in
  Alcotest.(check bool) "positive" true (v > 0.0)

let test_feature_width_checked () =
  let rng = Rng.create 9 in
  let cfg = { small_cfg with Model.feature_width = 3 } in
  let model = Model.create ~config:cfg rng in
  let per = Array.make 2 (Array.make 15 0.2) in
  Alcotest.(check bool) "missing features rejected" true
    (try
       ignore (predict1 model (Some (per, [| 0.; 0. |])));
       false
     with Invalid_argument _ -> true)

let test_prediction_depends_on_params () =
  let rng = Rng.create 10 in
  let model = Model.create ~config:small_cfg rng in
  let mk v = Array.make 2 (Array.make 15 v) in
  let p1 = predict1 model (Some (mk 0.0, [| 0.0; 0.0 |])) in
  let p2 = predict1 model (Some (mk 1.0, [| 1.0; 2.0 |])) in
  Alcotest.(check bool) "different params, different outputs" true
    (Float.abs (p1 -. p2) > 1e-9)

let test_gradients_reach_embeddings () =
  let rng = Rng.create 11 in
  let model = Model.create ~config:small_cfg rng in
  let ctx = Ad.new_ctx () in
  let per =
    Array.init 2 (fun _ -> Ad.constant ctx (T.vector (Array.make 15 0.1)))
  in
  let params =
    { Model.per_instr = per; global = Some (Ad.constant ctx (T.vector [| 0.2; 0.3 |])) }
  in
  let pred = Model.predict model ctx block ~params:(Some params) ~features:None in
  let loss = Ad.mape ctx pred ~target:2.0 in
  Ad.backward ctx loss;
  Alcotest.(check bool) "nonzero gradient somewhere" true
    (Dt_nn.Nn.Store.grad_norm (Model.store model) > 0.0)

(* ---- the two stages ----

   Table descent computes a block's token stage once and feeds its
   vectors back as constants on every step.  That is only sound if the
   instruction stage on those constants gives [predict]'s value and its
   gradients into the parameter and feature nodes, bit for bit, both
   interpreted and on a compiled replay. *)

let bits = Int64.bits_of_float

let check_bits name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h <> %h (bitwise)" name a b

type split_case = {
  cblock : Dt_x86.Block.t;
  cper : float array array;
  cglob : float array;
  cfeat : float array option;
}

let split_cases (cfg : Model.config) rng n =
  Array.init n (fun _ ->
      let app = Rng.choice rng Dt_bhive.Generator.applications in
      let b = Dt_bhive.Generator.block rng ~app in
      let vec w lo hi = Array.init w (fun _ -> Rng.float_range rng lo hi) in
      {
        cblock = b;
        cper = Array.map (fun _ -> vec cfg.per_instr_params 0.0 1.0) b.instrs;
        cglob = vec cfg.global_params 0.0 1.0;
        cfeat =
          (if cfg.feature_width = 0 then None
           else Some (vec cfg.feature_width 0.5 4.0));
      })

(* One forward + backward of [c]'s MAPE loss on [ctx], under a plan key
   when [plans] is given: [predict] when [token_h] is [None], else the
   instruction stage on [token_h] fed as constants.  Returns the
   prediction and the gradients of every per-instruction parameter
   node, the global node and the feature node. *)
let split_run model ?plans ctx c ~token_h =
  let inputs = ref None and prediction = ref None in
  let trace ctx =
    let const v = Ad.constant ctx (T.vector v) in
    let per = Array.map const c.cper in
    let global = const c.cglob in
    let features = Option.map const c.cfeat in
    inputs := Some (per, global, features);
    let params = Some { Model.per_instr = per; global = Some global } in
    let pred =
      match token_h with
      | None -> Model.predict model ctx c.cblock ~params ~features
      | Some h ->
          Model.instr_stage model ctx
            (Array.map (Ad.constant ctx) h)
            ~params ~features
    in
    prediction := Some pred;
    Ad.mape ctx pred ~target:3.0
  in
  let loss =
    match plans with
    | None ->
        Ad.reset ctx;
        trace ctx
    | Some (cache, key) -> Ad.with_plan cache ctx ~key trace
  in
  Ad.backward ctx loss;
  let per, global, features = Option.get !inputs in
  let grad n = T.to_array (Ad.grad n) in
  ( Ad.scalar_value (Option.get !prediction),
    Array.map grad per,
    grad global,
    Option.map grad features )

let test_stages_bitwise cfg () =
  let model = Model.create ~config:cfg (Rng.create 21) in
  let cases = split_cases cfg (Rng.create 22) 12 in
  let tctx = Ad.new_ctx () in
  let encode c =
    Ad.reset tctx;
    Array.map
      (fun h -> T.copy (Ad.value h))
      (Model.token_stage model tctx c.cblock)
  in
  let check label (p0, per0, g0, f0) (p1, per1, g1, f1) =
    check_bits (label ^ ": prediction") p0 p1;
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j v ->
            check_bits (Printf.sprintf "%s: d per %d.%d" label i j) v
              per1.(i).(j))
          row)
      per0;
    Array.iteri
      (fun j v -> check_bits (Printf.sprintf "%s: d global %d" label j) v g1.(j))
      g0;
    match (f0, f1) with
    | None, None -> ()
    | Some f0, Some f1 ->
        Array.iteri
          (fun j v ->
            check_bits (Printf.sprintf "%s: d feature %d" label j) v f1.(j))
          f0
    | _ -> Alcotest.fail (label ^ ": feature node mismatch")
  in
  Array.iteri
    (fun k c ->
      let token_h = encode c in
      Alcotest.(check int) "one vector per instruction"
        (Array.length c.cblock.instrs) (Array.length token_h);
      let ctx = Ad.new_ctx () in
      let oracle = split_run model ctx c ~token_h:None in
      check (Printf.sprintf "block %d interpreted" k) oracle
        (split_run model ctx c ~token_h:(Some token_h));
      (* The third call under one key replays the plan the first two
         recorded. *)
      let replay ~token_h =
        let plans = (Ad.plan_cache (), "k") in
        ignore (split_run model ~plans ctx c ~token_h);
        ignore (split_run model ~plans ctx c ~token_h);
        split_run model ~plans ctx c ~token_h
      in
      let s0 = Ad.plan_stats () in
      check (Printf.sprintf "block %d replayed predict" k) oracle
        (replay ~token_h:None);
      check (Printf.sprintf "block %d replayed stages" k) oracle
        (replay ~token_h:(Some token_h));
      Alcotest.(check int) "both third calls replayed" 2
        ((Ad.plan_stats ()).plan_hits - s0.plan_hits))
    cases

let () =
  Alcotest.run "surrogate"
    [
      ( "tokenizer",
        [
          Alcotest.test_case "vocab size" `Quick test_vocab_size;
          Alcotest.test_case "tokens in range" `Quick test_tokens_in_range;
          Alcotest.test_case "add" `Quick test_canonicalization_add;
          Alcotest.test_case "load" `Quick test_canonicalization_mov_load;
          Alcotest.test_case "store" `Quick test_canonicalization_store;
          Alcotest.test_case "imm" `Quick test_canonicalization_imm;
          Alcotest.test_case "rmw" `Quick test_canonicalization_rmw;
          Alcotest.test_case "nop" `Quick test_nop_tokens;
          Alcotest.test_case "token_name bounds" `Quick test_token_name_bounds;
        ] );
      ( "model",
        [
          Alcotest.test_case "with params" `Quick test_model_with_params;
          Alcotest.test_case "param count mismatch" `Quick
            test_model_param_count_mismatch;
          Alcotest.test_case "requires params" `Quick test_model_requires_params;
          Alcotest.test_case "ithemal mode" `Quick test_ithemal_mode;
          Alcotest.test_case "physics-informed positive" `Quick
            test_physics_informed_positive;
          Alcotest.test_case "feature width checked" `Quick test_feature_width_checked;
          Alcotest.test_case "depends on params" `Quick
            test_prediction_depends_on_params;
          Alcotest.test_case "gradients flow" `Quick test_gradients_reach_embeddings;
        ] );
      ( "stages",
        [
          Alcotest.test_case "bitwise, mca_full shape" `Quick
            (test_stages_bitwise
               { Model.default_config with feature_width = 3 });
          Alcotest.test_case "bitwise, no features" `Quick
            (test_stages_bitwise Model.default_config);
        ] );
    ]
