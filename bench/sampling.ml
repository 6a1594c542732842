(* Samples-to-fidelity bench for complexity-guided collection (PR 10).

   Protocol: the same one a practitioner ramping a simulation budget
   would follow.  On a seeded skewed corpus (a majority of chain-free
   blocks whose WriteLatency sensitivity is minimal, a minority of long
   multiply chains), each strategy — uniform and complexity-guided —
   climbs a fixed budget ladder (sim_multiplier 1, 2, 3, ...), at each
   rung collecting a dataset, training the surrogate, and scoring it on
   held-out (θ, x) pairs against the true simulator.  The first rung
   whose surrogate meets BOTH fidelity targets (MAPE <= target and
   Kendall tau >= target) wins; its sample count and the cumulative
   wall-clock to reach it are the strategy's cost.

   Every dataset and training run is seeded and deterministic, so the
   sample counts (and hence sampling.samples_ratio) are machine
   independent; only the wall-clock rows vary with load.  Emits
   BENCH_PR10.json; `make bench-guard` holds the committed snapshot to
   samples_ratio <= 0.6 and wallclock_ratio <= 1.0. *)

module Rng = Dt_util.Rng
module Block = Dt_x86.Block
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Strata = Dt_difftune.Strata
module Model = Dt_surrogate.Model
module Uarch = Dt_refcpu.Uarch

let die fmt =
  Printf.ksprintf (fun s -> prerr_endline ("bench-sampling: " ^ s); exit 1) fmt

(* ---- fidelity targets (fixed: the claim is "equal fidelity, fewer
   samples", so both strategies chase the same bar) ---- *)

let target_mape = 0.25
let target_tau = 0.85

(* ---- skewed corpus ---- *)

let easy_texts =
  [|
    "addq %rax, %rbx\naddq %rcx, %rdx";
    "movq %rax, %rbx\nmovq %rcx, %rdx";
    "xorl %r8d, %r8d\naddq %rcx, %rdx";
    "addq %rsi, %rdi\nmovq %r9, %r10";
    "movq %r11, %r12\nxorl %eax, %eax";
    "addq %r13, %r14\naddq %rsi, %r8";
  |]

let hard_texts =
  [|
    "imulq %rax, %rbx\nimulq %rbx, %rcx\nimulq %rcx, %rdx\nimulq %rdx, %rax";
    "imulq %rsi, %rdi\nimulq %rdi, %r8\nimulq %r8, %r9\nimulq %r9, %rsi";
    "addq %rax, %rbx\nimulq %rbx, %rcx\nimulq %rcx, %rdx\naddq %rdx, %rax";
    "imulq %r10, %r11\nimulq %r11, %r12\nimulq %r12, %r13\nimulq %r13, %r10";
  |]

let n_easy = 44
let n_hard = 4

let blocks =
  Array.init (n_easy + n_hard) (fun i ->
      if i < n_easy then Block.parse easy_texts.(i mod Array.length easy_texts)
      else Block.parse hard_texts.((i - n_easy) mod Array.length hard_texts))

let spec = Spec.mca_write_latency Uarch.Haswell

let base_cfg =
  {
    Engine.fast_config with
    seed = 5;
    (* Enough optimization per dataset that fidelity is data-limited,
       not step-limited: steps = passes * dataset size. *)
    surrogate_passes = 120.0;
    surrogate_lr = 0.003;
    use_analytic = false;
  }

(* ---- held-out fidelity: fresh (θ, x) pairs the surrogate never saw,
   scored against the true simulator ---- *)

let heldout_n = 300
let heldout_seed = 1234

let fidelity model =
  let rng = Rng.create heldout_seed in
  let predicted = Array.make heldout_n 0.0 in
  let actual = Array.make heldout_n 0.0 in
  for i = 0 to heldout_n - 1 do
    let block = blocks.(Rng.int rng (Array.length blocks)) in
    let table = spec.Spec.sample rng in
    let per, global = Spec.normalize_block spec table block in
    let sample =
      { Model.bblock = block; bparams = Some (per, global); bfeatures = None }
    in
    predicted.(i) <- (Model.predict_batch_value model [| sample |]).(0);
    actual.(i) <- spec.Spec.timing table block
  done;
  ( Dt_eval.Metrics.mape ~predicted ~actual,
    Dt_eval.Metrics.kendall_tau predicted actual )

(* ---- budget ladder ---- *)

let ladder = [| 1; 2; 3; 4; 5; 6; 8; 10; 12; 16 |]

type outcome = {
  samples : int;  (* dataset size at the winning rung *)
  mult : int;  (* winning sim_multiplier *)
  mape : float;
  tau : float;
  wallclock_s : float;  (* cumulative collect+train time across rungs *)
}

let run_strategy name sampling =
  let t0 = Unix.gettimeofday () in
  let rec climb i =
    if i >= Array.length ladder then
      die "%s never reached mape<=%.3f tau>=%.2f within the ladder" name
        target_mape target_tau
    else begin
      let mult = ladder.(i) in
      let cfg = { base_cfg with sim_multiplier = mult; sampling } in
      let data = Engine.collect cfg spec blocks in
      let model = Engine.make_model cfg spec (Rng.create cfg.seed) in
      let loss = Engine.train_surrogate cfg spec model data blocks in
      if not (Float.is_finite loss) then
        die "%s mult=%d: non-finite training loss" name mult;
      let mape, tau = fidelity model in
      Printf.printf
        "%-8s mult=%2d  samples=%4d  mape=%.4f  tau=%.4f  %s\n%!" name mult
        (Array.length data) mape tau
        (if mape <= target_mape && tau >= target_tau then "<- target met"
         else "");
      if mape <= target_mape && tau >= target_tau then
        {
          samples = Array.length data;
          mult;
          mape;
          tau;
          wallclock_s = Unix.gettimeofday () -. t0;
        }
      else climb (i + 1)
    end
  in
  climb 0

let () =
  Printf.printf
    "bench-sampling: corpus %d blocks (%d easy / %d hard), targets \
     mape<=%.3f tau>=%.2f, held-out n=%d\n%!"
    (Array.length blocks) n_easy n_hard target_mape target_tau heldout_n;
  let uniform = run_strategy "uniform" Engine.Uniform in
  let guided = run_strategy "guided" (Engine.Guided Strata.default) in
  let ratio = float_of_int guided.samples /. float_of_int uniform.samples in
  let wratio = guided.wallclock_s /. uniform.wallclock_s in
  let rows =
    [
      ("sampling.corpus_blocks", float_of_int (Array.length blocks));
      ("sampling.target_mape", target_mape);
      ("sampling.target_tau", target_tau);
      ("sampling.uniform_samples", float_of_int uniform.samples);
      ("sampling.uniform_mult", float_of_int uniform.mult);
      ("sampling.uniform_mape", uniform.mape);
      ("sampling.uniform_tau", uniform.tau);
      ("sampling.uniform_wallclock_s", uniform.wallclock_s);
      ("sampling.guided_samples", float_of_int guided.samples);
      ("sampling.guided_mult", float_of_int guided.mult);
      ("sampling.guided_mape", guided.mape);
      ("sampling.guided_tau", guided.tau);
      ("sampling.guided_wallclock_s", guided.wallclock_s);
      ("sampling.samples_ratio", ratio);
      ("sampling.wallclock_ratio", wratio);
    ]
  in
  let oc = open_out "BENCH_PR10.json" in
  Printf.fprintf oc "{\n  \"pr\": 10,\n  \"sampling\": {\n%s\n  }\n}\n"
    (String.concat ",\n"
       (List.map (fun (k, v) -> Printf.sprintf "    %S: %.4f" k v) rows));
  close_out oc;
  List.iter (fun (k, v) -> Printf.printf "%-32s %12.4f\n%!" k v) rows;
  print_endline "wrote BENCH_PR10.json";
  (* The harness itself enforces the headline claim; bench-guard holds
     the committed snapshot so later PRs cannot erode it silently. *)
  if ratio > 0.6 then
    die "guided needed %.2fx the uniform sample count (bound 0.6)" ratio;
  if wratio > 1.0 then
    die "guided wall-clock %.2fx uniform (must be lower)" wratio;
  print_endline "bench-sampling: OK"
