(* Tests for the llvm-mca clone: parameter table and pipeline. *)

open Dt_mca
module Uarch = Dt_refcpu.Uarch

let hsw_params = Params.default Uarch.Haswell

let timing ?(params = hsw_params) s =
  Pipeline.timing params (Dt_x86.Block.parse s)

let approx name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f within %.2f of %.2f" name actual tol expected)
    true
    (Float.abs (actual -. expected) <= tol)

(* ---- Params ---- *)

let test_default_valid () =
  List.iter (fun u -> Params.validate (Params.default u)) Uarch.all_uarchs

let test_default_values () =
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  Alcotest.(check int) "dispatch width" 4 hsw_params.dispatch_width;
  Alcotest.(check int) "rob" 192 hsw_params.reorder_buffer_size;
  Alcotest.(check int) "push WL is 2 (paper default)" 2
    hsw_params.write_latency.(get "PUSH64r");
  Alcotest.(check int) "xor WL is 1 (paper default)" 1
    hsw_params.write_latency.(get "XOR32rr");
  Alcotest.(check int) "add rr 1 uop" 1 hsw_params.num_micro_ops.(get "ADD32rr");
  Alcotest.(check bool) "load-op folds memory latency" true
    (hsw_params.write_latency.(get "ADD64rm") >= 5);
  Alcotest.(check bool) "load-op has ReadAdvance" true
    (hsw_params.read_advance.(get "ADD64rm").(0) > 0);
  Alcotest.(check int) "pure load has no ReadAdvance" 0
    hsw_params.read_advance.(get "MOV64rm").(0)

let test_validate_rejects () =
  let bad = Params.copy hsw_params in
  bad.write_latency.(0) <- -1;
  Alcotest.(check bool) "negative WL" true
    (try
       Params.validate bad;
       false
     with Invalid_argument _ -> true);
  let bad2 = { (Params.copy hsw_params) with dispatch_width = 0 } in
  Alcotest.(check bool) "zero dispatch" true
    (try
       Params.validate bad2;
       false
     with Invalid_argument _ -> true)

let test_copy_is_deep () =
  let c = Params.copy hsw_params in
  c.write_latency.(0) <- c.write_latency.(0) + 7;
  Alcotest.(check bool) "original untouched" true
    (hsw_params.write_latency.(0) <> c.write_latency.(0))

let test_total_count () =
  Alcotest.(check int) "2 + 15n parameters"
    (2 + (15 * Dt_x86.Opcode.count))
    (Params.total_count hsw_params)

(* ---- Pipeline semantics ---- *)

let test_dependency_chain () =
  (* WriteLatency 1 adds chained: 3 cycles/iter. *)
  approx "dep chain" 3.0
    (timing "addq %rax, %rbx\naddq %rbx, %rcx\naddq %rcx, %rax") 0.2

let test_dispatch_bound () =
  (* Independent single-uop instructions: DispatchWidth 4 per cycle. *)
  approx "dispatch bound" 1.0
    (timing "addq %r8, %r9\naddq %r10, %r11\naddq %r12, %r13\naddq %r14, %r15")
    0.2

let test_dispatch_width_effect () =
  let narrow = { (Params.copy hsw_params) with dispatch_width = 1 } in
  approx "width 1 serializes" 4.0
    (timing ~params:narrow
       "addq %r8, %r9\naddq %r10, %r11\naddq %r12, %r13\naddq %r14, %r15")
    0.3

let test_write_latency_zero_same_cycle () =
  (* WL 0 lets dependents issue in the same cycle: chain collapses. *)
  let p = Params.copy hsw_params in
  Array.iteri (fun i _ -> p.write_latency.(i) <- 0) p.write_latency;
  let t = timing ~params:p "addq %rax, %rbx\naddq %rbx, %rcx\naddq %rcx, %rax" in
  Alcotest.(check bool) "chain collapsed" true (t < 1.5)

let test_write_latency_monotone () =
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let prev = ref 0.0 in
  List.iter
    (fun wl ->
      let p = Params.copy hsw_params in
      p.write_latency.(get "ADD64rr") <- wl;
      let t = timing ~params:p "addq %rax, %rbx\naddq %rbx, %rax" in
      Alcotest.(check bool) "monotone in WL" true (t >= !prev -. 1e-9);
      prev := t)
    [ 0; 1; 2; 4; 8 ]

let test_port_map_throughput () =
  (* Two instructions both occupying port 0 for 1 cycle: 2 cycles/iter
     even though they are independent. *)
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.port_map.(get "ADD64rr").(0) <- 1;
  approx "port serialization" 2.0
    (timing ~params:p "addq %r8, %r9\naddq %r10, %r11")
    0.3

let test_port_map_multi_cycle () =
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.port_map.(get "ADD64rr").(3) <- 3;
  approx "3-cycle occupancy" 3.0 (timing ~params:p "addq %r8, %r9") 0.3

let test_read_advance_cancels_latency () =
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.write_latency.(get "ADD64rr") <- 4;
  let slow = timing ~params:p "addq %rax, %rbx\naddq %rbx, %rax" in
  p.read_advance.(get "ADD64rr").(0) <- 4;
  let fast = timing ~params:p "addq %rax, %rbx\naddq %rbx, %rax" in
  Alcotest.(check bool) "read advance shortens chain" true (fast < slow)

let test_num_micro_ops_dispatch_pressure () =
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.num_micro_ops.(get "ADD64rr") <- 8;
  (* 8 uops through a width-4 dispatch: 2 cycles per instruction. *)
  approx "uops pressure" 2.0 (timing ~params:p "addq %r8, %r9") 0.3

let test_rob_limits_parallelism () =
  (* A long-latency chainless workload with a tiny ROB stalls dispatch. *)
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.write_latency.(get "IMUL64rr") <- 20;
  let wide = timing ~params:p "imulq %r8, %r9\nimulq %r10, %r11" in
  let tiny = { p with reorder_buffer_size = 1 } in
  let narrow = timing ~params:tiny "imulq %r8, %r9\nimulq %r10, %r11" in
  Alcotest.(check bool) "small ROB slower" true (narrow > wide +. 1.0)

let test_no_memory_dependencies () =
  (* The mca model tracks no memory chains: the ADD32mr case study. *)
  let t = timing "addl %eax, 16(%rsp)" in
  Alcotest.(check bool) "misses memory chain" true (t < 3.0)

let test_paper_case_push () =
  (* Default predicts ~2 cycles for push+test (paper: 2.03). *)
  approx "push+test" 2.0 (timing "pushq %rbx\ntestl %r8d, %r8d") 0.25

let test_paper_case_xor () =
  (* Default predicts ~1 cycle for the xor zero idiom (paper: 1.03). *)
  approx "xor" 1.0 (timing "xorl %r13d, %r13d") 0.25

let test_learned_push_wl0 () =
  (* With WriteLatency 0 the prediction drops to ~1 cycle (paper: 1.03),
     still bottlenecked by the store-data port. *)
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let p = Params.copy hsw_params in
  p.write_latency.(get "PUSH64r") <- 0;
  approx "push WL0" 1.0 (timing ~params:p "pushq %rbx\ntestl %r8d, %r8d") 0.25

let test_timing_checked_rejects () =
  let bad = Params.copy hsw_params in
  bad.num_micro_ops.(0) <- 0;
  Alcotest.(check bool) "validated" true
    (try
       ignore (timing ~params:bad "nop");
       false
     with Invalid_argument _ -> true)

let test_determinism () =
  let s = "imulq %rax, %rbx\nmovq 8(%rbp), %rcx" in
  Alcotest.(check (float 1e-12)) "same result" (timing s) (timing s)

let test_dependency_edges () =
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rcx" in
  let edges = Pipeline.dependency_edges b in
  Alcotest.(check int) "two rows" 2 (Array.length edges);
  Alcotest.(check bool) "consumer has an edge at distance 1" true
    (Array.exists (fun (d, _) -> d = 1) edges.(1));
  (* Loop-carried: first instruction reads rax written by... nothing in
     block, but rbx feeds back at distance 1 from the previous copy. *)
  Alcotest.(check bool) "loop-carried edge present" true
    (Array.exists (fun (d, _) -> d >= 1) edges.(0))

(* ---- event-driven loop = cycle-by-cycle oracle ----

   The production loop scans only waiting instructions and jumps over
   idle cycles; Mca_oracle keeps the loop that visits every cycle and
   every instruction up to the dispatch head.  Fixed seeds: every run
   compares the same cases. *)

let oracle_corpus seed count =
  let rng = Dt_util.Rng.create seed in
  let apps = Dt_bhive.Generator.applications in
  Array.init count (fun _ ->
      Dt_bhive.Generator.block rng
        ~app:apps.(Dt_util.Rng.int rng (Array.length apps)))

let idiom_params (t : Dt_difftune.Spec.table) =
  {
    (Dt_difftune.Spec.mca_params_of_table t) with
    Params.zero_idiom_enabled =
      Array.map
        (fun (row : float array) -> row.(Dt_difftune.Spec.idiom_col) >= 0.5)
        t.per;
  }

(* The [serve.slow_block] table: every result and port reservation a
   million cycles long. *)
let pathological (p : Params.t) =
  {
    p with
    Params.write_latency = Array.map (fun _ -> 1_000_000) p.write_latency;
    port_map =
      Array.map
        (Array.map (fun c -> if c > 0 then 1_000_000 else 0))
        p.port_map;
  }

let outcome f =
  match f () with
  | v -> Ok v
  | exception Pipeline.Budget_exceeded { budget; retired; total } ->
      Error (budget, retired, total)

let test_oracle_sweep () =
  let defaults = Array.of_list (List.map Params.default Uarch.all_uarchs) in
  let full = Dt_difftune.Spec.mca_full Uarch.Haswell in
  let idioms = Dt_difftune.Spec.mca_full_idioms Uarch.Haswell in
  let cases = ref 0 and mismatches = ref [] in
  let check label same =
    incr cases;
    if not same then mismatches := label () :: !mismatches
  in
  (* Cycles per iteration, or the Budget_exceeded fields. *)
  let timing label p ~iterations ?budget block =
    let expected =
      outcome (fun () ->
          float_of_int (Mca_oracle.run ?budget p ~iterations block)
          /. float_of_int iterations)
    in
    let actual =
      outcome (fun () ->
          Pipeline.timing_unchecked p ~iterations ?cycle_budget:budget block)
    in
    check label (expected = actual)
  in
  (* Total cycles and all four event arrays. *)
  let trace label p ~iterations block =
    check label
      (Mca_oracle.trace p ~iterations block
      = Pipeline.trace p ~iterations block)
  in
  List.iter
    (fun seed ->
      let rng = Dt_util.Rng.create (seed + 1) in
      Array.iteri
        (fun j block ->
          let label family () =
            Printf.sprintf "seed %d block %d %s: %s" seed j family
              (Dt_x86.Block.to_string block)
          in
          let iterations = 1 + (j mod 7) in
          let budget = 1 + (j * 97 mod 399) in
          let dflt = defaults.(j mod Array.length defaults) in
          let random = Dt_difftune.Spec.mca_params_of_table (full.sample rng) in
          let idiom = idiom_params (idioms.sample rng) in
          trace (label "default trace") dflt ~iterations block;
          timing (label "default") dflt ~iterations:100 block;
          timing (label "default budget") dflt ~iterations:100 ~budget block;
          trace (label "random trace") random ~iterations block;
          timing (label "random") random ~iterations:100 block;
          timing (label "random budget") random ~iterations:100 ~budget block;
          trace (label "idioms trace") idiom ~iterations block;
          timing (label "idioms") idiom ~iterations:100 block;
          if j < 2 then
            timing (label "pathological") (pathological dflt) ~iterations:100
              ~budget:50_000 block)
        (oracle_corpus seed 150))
    [ 42; 5 ];
  (match List.rev !mismatches with
  | [] -> ()
  | first :: _ -> Printf.printf "first mismatch: %s\n%!" first);
  Alcotest.(check int)
    (Printf.sprintf "mismatches in %d comparisons" !cases)
    0
    (List.length !mismatches)

(* ---- properties ---- *)

let gen_block_and_table =
  let gen st =
    let seed = QCheck.Gen.int_bound 1_000_000 st in
    let rng = Dt_util.Rng.create seed in
    let app = Dt_bhive.Generator.applications.(QCheck.Gen.int_bound 8 st) in
    let b = Dt_bhive.Generator.block rng ~app in
    let spec = Dt_difftune.Spec.mca_full Uarch.Haswell in
    let t = spec.sample rng in
    (b, t)
  in
  QCheck.make ~print:(fun (b, _) -> Dt_x86.Block.to_string b) gen

let prop_random_tables_finite =
  QCheck.Test.make ~name:"random tables give positive finite timings"
    ~count:100 gen_block_and_table (fun (b, t) ->
      QCheck.assume (Dt_x86.Block.length b <= 20);
      let spec = Dt_difftune.Spec.mca_full Uarch.Haswell in
      let v = spec.timing t b in
      v > 0.0 && Float.is_finite v)

(* Alpha-equivalence: consistently renaming the non-special GPRs and
   vector registers of a block must not change its timing — neither
   simulator keys resources to architectural register names (RSP, RAX and
   RDX are special: stack engine and implicit operands). *)
let rename_block (block : Dt_x86.Block.t) =
  let open Dt_x86 in
  let gpr_map = function
    | Reg.RBX -> Reg.RSI
    | Reg.RSI -> Reg.RDI
    | Reg.RDI -> Reg.R8
    | Reg.R8 -> Reg.R9
    | Reg.R9 -> Reg.RBX
    | Reg.R10 -> Reg.R12
    | Reg.R12 -> Reg.R10
    | g -> g
  in
  let vec_map = function
    | Reg.XMM1 -> Reg.XMM5
    | Reg.XMM5 -> Reg.XMM6
    | Reg.XMM6 -> Reg.XMM1
    | v -> v
  in
  let reg = function
    | Reg.Gpr g -> Reg.Gpr (gpr_map g)
    | Reg.Vec v -> Reg.Vec (vec_map v)
    | Reg.Flags -> Reg.Flags
  in
  let operand = function
    | Operand.Reg r -> Operand.Reg (reg r)
    | Operand.Imm i -> Operand.Imm i
    | Operand.Mem m ->
        Operand.Mem
          {
            m with
            base = Option.map gpr_map m.base;
            index = Option.map gpr_map m.index;
          }
  in
  Block.of_array
    (Array.map
       (fun (i : Instruction.t) ->
         Instruction.make i.opcode
           (Array.to_list (Array.map operand i.operands)))
       block.instrs)

let prop_alpha_equivalence =
  QCheck.Test.make ~name:"consistent register renaming preserves timing"
    ~count:60 gen_block_and_table (fun (b, _) ->
      QCheck.assume (Dt_x86.Block.length b <= 12);
      let b' = rename_block b in
      let t = Pipeline.timing hsw_params b in
      let t' = Pipeline.timing hsw_params b' in
      Float.abs (t -. t') < 1e-9)

let prop_latency_monotone =
  QCheck.Test.make
    ~name:"raising every WriteLatency never speeds a block up" ~count:50
    gen_block_and_table (fun (b, table) ->
      QCheck.assume (Dt_x86.Block.length b <= 10);
      let spec = Dt_difftune.Spec.mca_full Uarch.Haswell in
      let bumped = Dt_difftune.Spec.copy_table table in
      Array.iter (fun (row : float array) -> row.(1) <- row.(1) +. 1.0)
        bumped.per;
      spec.timing bumped b >= spec.timing table b -. 1e-9)

let prop_more_iterations_converges =
  QCheck.Test.make
    ~name:"cycles/iteration amortizes: more iterations never slower" ~count:40
    gen_block_and_table (fun (b, _) ->
      QCheck.assume (Dt_x86.Block.length b <= 10);
      let a = Pipeline.timing hsw_params ~iterations:50 b in
      let c = Pipeline.timing hsw_params ~iterations:150 b in
      (* Warmup amortizes away; allow a small periodic wiggle. *)
      c <= (a *. 1.02) +. 0.05)

let () =
  Alcotest.run "mca"
    [
      ( "params",
        [
          Alcotest.test_case "default valid" `Quick test_default_valid;
          Alcotest.test_case "default values" `Quick test_default_values;
          Alcotest.test_case "validate rejects" `Quick test_validate_rejects;
          Alcotest.test_case "deep copy" `Quick test_copy_is_deep;
          Alcotest.test_case "total count" `Quick test_total_count;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "dependency chain" `Quick test_dependency_chain;
          Alcotest.test_case "dispatch bound" `Quick test_dispatch_bound;
          Alcotest.test_case "dispatch width effect" `Quick test_dispatch_width_effect;
          Alcotest.test_case "WL0 same cycle" `Quick test_write_latency_zero_same_cycle;
          Alcotest.test_case "WL monotone" `Quick test_write_latency_monotone;
          Alcotest.test_case "port throughput" `Quick test_port_map_throughput;
          Alcotest.test_case "port multi-cycle" `Quick test_port_map_multi_cycle;
          Alcotest.test_case "read advance" `Quick test_read_advance_cancels_latency;
          Alcotest.test_case "uops pressure" `Quick test_num_micro_ops_dispatch_pressure;
          Alcotest.test_case "rob limit" `Quick test_rob_limits_parallelism;
          Alcotest.test_case "no memory deps" `Quick test_no_memory_dependencies;
          Alcotest.test_case "paper case: push" `Quick test_paper_case_push;
          Alcotest.test_case "paper case: xor" `Quick test_paper_case_xor;
          Alcotest.test_case "paper case: push WL0" `Quick test_learned_push_wl0;
          Alcotest.test_case "timing validates" `Quick test_timing_checked_rejects;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "dependency edges" `Quick test_dependency_edges;
          Alcotest.test_case "event-driven loop = oracle" `Quick
            test_oracle_sweep;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_random_tables_finite; prop_more_iterations_converges;
            prop_alpha_equivalence; prop_latency_monotone;
          ] );
    ]
