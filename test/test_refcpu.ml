(* Tests for the reference CPU (ground-truth machine). *)

open Dt_refcpu

let hsw = Uarch.config Uarch.Haswell

let timing ?(uarch = Uarch.Haswell) s =
  Machine.timing (Uarch.config uarch) (Dt_x86.Block.parse s)

let approx name expected actual tol =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f within %.2f of %.2f" name actual tol expected)
    true
    (Float.abs (actual -. expected) <= tol)

(* ---- configs ---- *)

let test_configs_sane () =
  List.iter
    (fun u ->
      let c = Uarch.config u in
      Alcotest.(check bool) "widths positive" true
        (c.decode_width > 0 && c.dispatch_width > 0 && c.retire_width > 0);
      Alcotest.(check bool) "buffers positive" true
        (c.rob_size > 0 && c.sched_size > 0);
      Alcotest.(check bool) "ports sane" true
        (c.num_ports > 0 && c.num_ports <= 10);
      Alcotest.(check bool) "latencies sane" true
        (c.load_latency >= 1 && c.forward_latency >= 1))
    Uarch.all_uarchs

let test_uarch_names_roundtrip () =
  List.iter
    (fun u ->
      Alcotest.(check bool) "roundtrip" true
        (Uarch.uarch_of_name (Uarch.uarch_name u) = Some u))
    Uarch.all_uarchs;
  Alcotest.(check bool) "unknown" true (Uarch.uarch_of_name "pentium" = None)

let test_uops_nonempty () =
  Array.iter
    (fun (op : Dt_x86.Opcode.t) ->
      List.iter
        (fun u ->
          Alcotest.(check bool) "all uops have ports" true
            (u.Uarch.ports <> []);
          Alcotest.(check bool) "latency nonneg" true (u.Uarch.latency >= 0);
          Alcotest.(check bool) "occupancy positive" true (u.Uarch.occupancy >= 1))
        (Uarch.uops hsw op);
      Alcotest.(check bool) "at least one uop" true (Uarch.uops hsw op <> []))
    Dt_x86.Opcode.database

let test_documented_values () =
  Array.iter
    (fun (op : Dt_x86.Opcode.t) ->
      List.iter
        (fun u ->
          let c = Uarch.config u in
          Alcotest.(check bool) "uops >= 1" true (Uarch.documented_uops c op >= 1);
          Alcotest.(check bool) "latency >= 0" true
            (Uarch.documented_latency c op >= 0);
          let pm = Uarch.documented_port_map c op in
          Alcotest.(check bool) "port map nonneg" true
            (Array.for_all (fun v -> v >= 0.0) pm))
        Uarch.all_uarchs)
    Dt_x86.Opcode.database

let test_documented_port_map_groups_zeroed () =
  (* ADD32rr executes on a multi-port ALU group: no single-port charge. *)
  let add = Option.get (Dt_x86.Opcode.by_name "ADD32rr") in
  let pm = Uarch.documented_port_map hsw add in
  Alcotest.(check bool) "no charge for grouped ALU" true
    (Array.for_all (fun v -> v = 0.0) pm);
  (* A store charges the single store-data port. *)
  let st = Option.get (Dt_x86.Opcode.by_name "MOV64mr") in
  let pm = Uarch.documented_port_map hsw st in
  Alcotest.(check bool) "store-data port charged" true (pm.(4) > 0.0)

(* ---- timing semantics ---- *)

let test_dependent_chain_latency () =
  (* Three chained 1-cycle adds: 3 cycles per iteration. *)
  approx "dep chain" 3.0
    (timing "addq %rax, %rbx\naddq %rbx, %rcx\naddq %rcx, %rax") 0.2

let test_independent_throughput () =
  (* Four independent adds: bound by dispatch width 4 -> ~1/iter. *)
  approx "indep adds" 1.0
    (timing "addq %r8, %r9\naddq %r10, %r11\naddq %r12, %r13\naddq %r14, %r15")
    0.2

let test_load_chain_latency () =
  approx "pointer chase" (float_of_int hsw.load_latency)
    (timing "movq (%rax), %rax") 0.2

let test_zero_idiom_eliminated () =
  (* xor zeroing has no dependency: dispatch-bound, 1/4 cycle. *)
  Alcotest.(check bool) "zero idiom fast" true (timing "xorl %r13d, %r13d" < 0.5)

let test_zero_idiom_vs_real_xor () =
  let zi = timing "xorq %rax, %rax" in
  let real = timing "xorq %rbx, %rax" in
  Alcotest.(check bool) "idiom faster than real xor chain" true (zi < real)

let test_mov_elimination () =
  (* A mov self-chain would be 1 cycle without elimination. *)
  let chained = timing "movq %rax, %rbx\nmovq %rbx, %rax" in
  Alcotest.(check bool) "eliminated moves faster than 1-cycle chain" true
    (chained < 1.99)

let test_store_load_forwarding_chain () =
  (* RMW on the same address: forwarding chain of fwd+1 per iteration. *)
  let t = timing "addl %eax, 16(%rsp)" in
  Alcotest.(check bool) "memory chain visible" true (t > 4.0)

let test_no_false_memory_chain () =
  (* Different addresses: no chain. *)
  let t = timing "movq %rax, 8(%rsp)\nmovq 16(%rsp), %rbx" in
  Alcotest.(check bool) "no alias, throughput-bound" true (t < 2.5)

let test_stack_engine_push_chain () =
  (* push;test — the paper's case study block: ~1 cycle (store port). *)
  approx "push+test" 1.0 (timing "pushq %rbx\ntestl %r8d, %r8d") 0.2

let test_store_throughput () =
  (* One store-data port: 2 stores take 2 cycles. *)
  approx "store throughput" 2.0
    (timing "movq %rax, 8(%rsp)\nmovq %rbx, 16(%rsp)") 0.3

let test_div_expensive () =
  Alcotest.(check bool) "div slow" true (timing "divl %ecx" > 10.0)

let test_div_uarch_ordering () =
  (* Zen 2's divider is the fastest of the four configs. *)
  let z = timing ~uarch:Uarch.Zen2 "divl %ecx" in
  let i = timing ~uarch:Uarch.Ivy_bridge "divl %ecx" in
  Alcotest.(check bool) "zen2 < ivb" true (z < i)

let test_uarch_differentiation () =
  (* The same block times differently across microarchitectures. *)
  let block = "vfmadd231ps %xmm1, %xmm2\nvfmadd231ps %xmm2, %xmm1" in
  let times = List.map (fun u -> timing ~uarch:u block) Uarch.all_uarchs in
  let distinct = List.sort_uniq compare times in
  Alcotest.(check bool) "at least two distinct" true (List.length distinct >= 2)

let test_determinism () =
  let b = "addq %rax, %rbx\nmovq 8(%rbp), %rcx\nimulq %rcx, %rax" in
  Alcotest.(check (float 1e-12)) "deterministic" (timing b) (timing b)

let test_iterations_scaling () =
  (* Cycles per iteration converges: 50 vs 200 iterations within 10%. *)
  let b = Dt_x86.Block.parse "addq %rax, %rbx\naddq %rbx, %rax" in
  let t50 = Machine.cycles_per_iteration hsw ~iterations:50 b in
  let t200 = Machine.cycles_per_iteration hsw ~iterations:200 b in
  Alcotest.(check bool) "steady state" true
    (Float.abs (t50 -. t200) /. t200 < 0.1)

let test_invalid_iterations () =
  let b = Dt_x86.Block.parse "nop" in
  Alcotest.(check bool) "rejects zero" true
    (try
       ignore (Machine.cycles_per_iteration hsw ~iterations:0 b);
       false
     with Invalid_argument _ -> true)

let test_timing_positive_all_apps () =
  let rng = Dt_util.Rng.create 99 in
  Array.iter
    (fun app ->
      for _ = 1 to 5 do
        let b = Dt_bhive.Generator.block rng ~app in
        let t = Machine.timing hsw b in
        Alcotest.(check bool) "positive finite" true
          (t > 0.0 && Float.is_finite t)
      done)
    Dt_bhive.Generator.applications

(* ---- event-driven machine = cycle-by-cycle oracle ----

   Machine decodes each instruction once per block and jumps over cycles
   in which nothing can happen; Refcpu_oracle keeps the loop that renames
   every instruction of every iteration and visits every cycle.  Fixed
   seeds: every run compares the same cases. *)

let oracle_corpus seed count =
  let rng = Dt_util.Rng.create seed in
  let apps = Dt_bhive.Generator.applications in
  Array.init count (fun _ ->
      Dt_bhive.Generator.block rng
        ~app:apps.(Dt_util.Rng.int rng (Array.length apps)))

(* One block per mechanism whose timing depends on the iteration. *)
let mechanism_blocks =
  [
    (* Eliminated moves chain iteration 2's rax to iteration 0's rcx. *)
    "movq %rbx, %rax\nmovq %rcx, %rbx\naddq $1, %rcx\naddq %rax, %rdx";
    (* The forwarding store comes later in the block: iteration 0's load
       reads L1. *)
    "movq 16(%rbp), %rax\nimulq %rax, %rcx\nmovq %rcx, 16(%rbp)";
    (* Two stores to one address, then a reload. *)
    "movq %rax, 8(%rsp)\nmovq %rbx, 8(%rsp)\nmovq 8(%rsp), %rcx\n\
     addq %rcx, %rax";
    (* Zero idioms break chains; a real xor does not. *)
    "xorq %rax, %rax\naddq %rax, %rbx\nsubl %ecx, %ecx\npxor %xmm0, %xmm0\n\
     vpxor %xmm1, %xmm1, %xmm2\nxorq %rbx, %rdx";
    (* PUSH/POP under the stack engine. *)
    "pushq %rbx\npopq %rcx\npushq %rax\naddq %rcx, %rax\ntestl %r8d, %r8d";
    (* Dividers stay busy for more than one cycle. *)
    "divl %ecx\naddl %eax, %ebx\ndivq %rsi\ndivps %xmm1, %xmm2";
    "nop\nnop\nnop";
    (* A divide chain: dependent micro-ops fill the scheduler on Ivy
       Bridge and Haswell, independent ones the reorder buffer on Skylake
       and Zen 2. *)
    "divq %rcx\naddq %rax, %rbx\naddq %rbx, %rsi\nimulq %rsi, %rdi\n\
     addq %r8, %r9\naddq %r10, %r11\naddq %r12, %r13\naddq %r14, %r15\n\
     movq 8(%rsp), %r8\nmovq %r9, 16(%rsp)";
  ]

let test_oracle_sweep () =
  let cases = ref 0 and mismatches = ref [] in
  let compare_block label block =
    List.iter
      (fun u ->
        let cfg = Uarch.config u in
        List.iter
          (fun iterations ->
            incr cases;
            let expected =
              float_of_int (Refcpu_oracle.cycles cfg ~iterations block)
              /. float_of_int iterations
            in
            if Machine.cycles_per_iteration cfg ~iterations block <> expected
            then
              mismatches :=
                Printf.sprintf "%s %s x%d: %s" label (Uarch.uarch_name u)
                  iterations (Dt_x86.Block.to_string block)
                :: !mismatches)
          [ 1; 2; 3; 100 ])
      Uarch.all_uarchs
  in
  List.iteri
    (fun j s ->
      compare_block (Printf.sprintf "mechanism %d" j) (Dt_x86.Block.parse s))
    mechanism_blocks;
  List.iter
    (fun seed ->
      Array.iteri
        (fun j block ->
          compare_block (Printf.sprintf "seed %d block %d" seed j) block)
        (oracle_corpus seed 60))
    [ 42; 5 ];
  (match List.rev !mismatches with
  | [] -> ()
  | first :: _ -> Printf.printf "first mismatch: %s\n%!" first);
  Alcotest.(check int)
    (Printf.sprintf "mismatches in %d comparisons" !cases)
    0
    (List.length !mismatches)

(* ---- the ground truth itself ----

   MD5 of the label bits of a 600-block corpus on each microarchitecture,
   recorded with the visit-every-cycle machine.  The oracle sweep only
   holds Machine to the copy in this directory; this pins the labels
   every dataset, learned table and golden value is built from. *)

let test_label_pin () =
  List.iter
    (fun (u, expected) ->
      let ds =
        Dt_bhive.Dataset.label
          (Dt_bhive.Dataset.corpus ~seed:42 ~size:600)
          ~seed:1 ~uarch:u ~noise:0.01
      in
      let bits = Buffer.create 8192 in
      Array.iter
        (fun (l : Dt_bhive.Dataset.labeled) ->
          Buffer.add_int64_le bits (Int64.bits_of_float l.timing))
        (Dt_bhive.Dataset.all ds);
      Alcotest.(check string)
        (Uarch.uarch_name u ^ " label digest")
        expected
        (Digest.to_hex (Digest.string (Buffer.contents bits))))
    [
      (Uarch.Ivy_bridge, "d5a9486aba21eba2c8d5bc1d4a33d457");
      (Uarch.Haswell, "de5e27f76b185a1e5479623bf534770d");
      (Uarch.Skylake, "002bccce33acb0e32cb3e473eec721ff");
      (Uarch.Zen2, "5b0eacba8917e67118f9d0466a2d8992");
    ]

(* ---- properties ---- *)

let gen_block =
  let gen st =
    let seed = QCheck.Gen.int_bound 1_000_000 st in
    let rng = Dt_util.Rng.create seed in
    let app = Dt_bhive.Generator.applications.(QCheck.Gen.int_bound 8 st) in
    Dt_bhive.Generator.block rng ~app
  in
  QCheck.make ~print:Dt_x86.Block.to_string gen

let prop_positive_timing =
  QCheck.Test.make ~name:"timing is positive and finite" ~count:100 gen_block
    (fun b ->
      List.for_all
        (fun u ->
          let t = Machine.timing (Uarch.config u) b in
          t > 0.0 && Float.is_finite t)
        Uarch.all_uarchs)

let prop_longer_not_faster =
  (* Appending an instruction can legitimately speed a block up if it
     overwrites a register or the flags on a slow loop-carried chain
     (dependency breaking!), so the appended instruction must be chosen
     to touch nothing the block references. *)
  QCheck.Test.make ~name:"appending a non-interfering instruction never \
                          speeds a block up"
    ~count:60 gen_block (fun b ->
      let open Dt_x86 in
      let used = Array.make Reg.count false in
      Array.iter
        (fun i ->
          List.iter
            (fun r -> used.(Reg.index r) <- true)
            (Instruction.reads i @ Instruction.writes i))
        b.instrs;
      let candidates = [ Reg.R15; Reg.R14; Reg.R13; Reg.R12; Reg.R11 ] in
      match
        List.find_opt (fun g -> not used.(Reg.index (Reg.Gpr g))) candidates
      with
      | None -> QCheck.assume_fail ()
      | Some free ->
          let extra =
            Instruction.make_named "LEA64rm"
              [
                Operand.Reg (Reg.Gpr free);
                Operand.mem ~base:free ~disp:8 ();
              ]
          in
          let extended = Block.of_array (Array.append b.instrs [| extra |]) in
          Machine.timing hsw extended >= Machine.timing hsw b -. 0.05)

let prop_alpha_equivalence =
  QCheck.Test.make
    ~name:"consistent renaming preserves reference-CPU timing" ~count:60
    gen_block (fun b ->
      QCheck.assume (Dt_x86.Block.length b <= 12);
      (* Reuse a simple involution on non-special registers. *)
      let open Dt_x86 in
      let gpr_map = function
        | Reg.RBX -> Reg.R11
        | Reg.R11 -> Reg.RBX
        | Reg.RSI -> Reg.R13
        | Reg.R13 -> Reg.RSI
        | g -> g
      in
      let operand = function
        | Operand.Reg (Reg.Gpr g) -> Operand.Reg (Reg.Gpr (gpr_map g))
        | Operand.Mem m ->
            Operand.Mem
              {
                m with
                base = Option.map gpr_map m.base;
                index = Option.map gpr_map m.index;
              }
        | o -> o
      in
      let b' =
        Block.of_array
          (Array.map
             (fun (i : Instruction.t) ->
               Instruction.make i.opcode
                 (Array.to_list (Array.map operand i.operands)))
             b.instrs)
      in
      Float.abs (Machine.timing hsw b -. Machine.timing hsw b') < 1e-9)

let () =
  Alcotest.run "refcpu"
    [
      ( "uarch",
        [
          Alcotest.test_case "configs sane" `Quick test_configs_sane;
          Alcotest.test_case "names roundtrip" `Quick test_uarch_names_roundtrip;
          Alcotest.test_case "uops nonempty" `Quick test_uops_nonempty;
          Alcotest.test_case "documented values" `Quick test_documented_values;
          Alcotest.test_case "port groups zeroed" `Quick
            test_documented_port_map_groups_zeroed;
        ] );
      ( "machine",
        [
          Alcotest.test_case "dependent chain" `Quick test_dependent_chain_latency;
          Alcotest.test_case "independent throughput" `Quick test_independent_throughput;
          Alcotest.test_case "load chain" `Quick test_load_chain_latency;
          Alcotest.test_case "zero idiom" `Quick test_zero_idiom_eliminated;
          Alcotest.test_case "zero idiom vs real" `Quick test_zero_idiom_vs_real_xor;
          Alcotest.test_case "mov elimination" `Quick test_mov_elimination;
          Alcotest.test_case "store-load forwarding" `Quick
            test_store_load_forwarding_chain;
          Alcotest.test_case "no false memory chain" `Quick test_no_false_memory_chain;
          Alcotest.test_case "stack engine" `Quick test_stack_engine_push_chain;
          Alcotest.test_case "store throughput" `Quick test_store_throughput;
          Alcotest.test_case "div expensive" `Quick test_div_expensive;
          Alcotest.test_case "div uarch ordering" `Quick test_div_uarch_ordering;
          Alcotest.test_case "uarch differentiation" `Quick test_uarch_differentiation;
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "iterations scaling" `Quick test_iterations_scaling;
          Alcotest.test_case "invalid iterations" `Quick test_invalid_iterations;
          Alcotest.test_case "all apps positive" `Quick test_timing_positive_all_apps;
          Alcotest.test_case "event-driven machine = oracle" `Quick
            test_oracle_sweep;
          Alcotest.test_case "labels pinned" `Quick test_label_pin;
        ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_positive_timing; prop_longer_not_faster;
            prop_alpha_equivalence;
          ] );
    ]
