(* Tests for complexity-guided data collection: the corpus stratifier,
   the Neyman-style allocator, guided [Engine.collect] determinism
   across domain counts, pilot checkpoint kill/resume, fingerprint
   isolation between sampling strategies, and guided-vs-uniform
   fidelity at an equal budget on a seeded skewed corpus. *)

module Rng = Dt_util.Rng
module Faultsim = Dt_util.Faultsim
module Block = Dt_x86.Block
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Strata = Dt_difftune.Strata
module Sampler = Dt_difftune.Sampler
module Fault = Dt_difftune.Fault
module Model = Dt_surrogate.Model
module Uarch = Dt_refcpu.Uarch

let with_faults f =
  Faultsim.clear ();
  Fun.protect ~finally:Faultsim.clear f

let dir_counter = ref 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let with_tmpdir f =
  incr dir_counter;
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_sampler_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* A deliberately skewed corpus: a majority of near-trivial blocks with
   no register dependency chains (their WriteLatency sensitivity is
   minimal) plus a minority of long multiply chains (timing moves with
   every latency draw).  Uniform collection wastes most of its budget
   on the easy mass. *)
let easy_texts =
  [|
    "addq %rax, %rbx\naddq %rcx, %rdx";
    "movq %rax, %rbx\nmovq %rcx, %rdx";
    "xorl %r8d, %r8d\naddq %rcx, %rdx";
    "addq %rsi, %rdi\nmovq %r9, %r10";
  |]

let hard_texts =
  [|
    "imulq %rax, %rbx\nimulq %rbx, %rcx\nimulq %rcx, %rdx\nimulq %rdx, %rax";
    "imulq %rsi, %rdi\nimulq %rdi, %r8\nimulq %r8, %r9\nimulq %r9, %rsi";
    "addq %rax, %rbx\nimulq %rbx, %rcx\nimulq %rcx, %rdx\naddq %rdx, %rax";
  |]

let skewed_corpus ~easy ~hard =
  Array.init (easy + hard) (fun i ->
      if i < easy then Block.parse easy_texts.(i mod Array.length easy_texts)
      else Block.parse hard_texts.((i - easy) mod Array.length hard_texts))

let toy_spec = Spec.mca_write_latency Uarch.Haswell

let toy_cfg =
  {
    Engine.fast_config with
    seed = 13;
    sim_multiplier = 4;
    surrogate_passes = 1.0;
    use_analytic = false;
    sampling = Engine.Guided Strata.default;
  }

(* ---- stratifier ---- *)

let test_stratify_partition () =
  let blocks = skewed_corpus ~easy:20 ~hard:6 in
  let s = Strata.stratify Strata.default blocks in
  let k = Strata.n_strata s in
  Alcotest.(check bool) "at least two strata" true (k >= 2);
  Alcotest.(check int) "assign covers corpus" (Array.length blocks)
    (Array.length s.Strata.assign);
  Array.iter
    (fun h -> Alcotest.(check bool) "assign in range" true (h >= 0 && h < k))
    s.Strata.assign;
  let total =
    Array.fold_left (fun a m -> a + Array.length m) 0 s.Strata.members
  in
  Alcotest.(check int) "members partition corpus" (Array.length blocks) total;
  Array.iteri
    (fun h members ->
      Array.iter
        (fun bi ->
          Alcotest.(check int)
            (Printf.sprintf "member %d assigned to stratum %d" bi h)
            h
            s.Strata.assign.(bi))
        members)
    s.Strata.members;
  (* Keys are sorted and distinct. *)
  for h = 1 to k - 1 do
    Alcotest.(check bool) "keys strictly ascending" true
      (String.compare s.Strata.keys.(h - 1) s.Strata.keys.(h) < 0)
  done

let test_stratify_deterministic () =
  let blocks = skewed_corpus ~easy:24 ~hard:8 in
  let a = Strata.stratify Strata.default blocks in
  let b = Strata.stratify Strata.default blocks in
  Alcotest.(check (array string)) "keys equal" a.Strata.keys b.Strata.keys;
  Alcotest.(check (array int)) "assign equal" a.Strata.assign b.Strata.assign

let test_stratify_separates_chains () =
  let blocks = skewed_corpus ~easy:4 ~hard:3 in
  let s = Strata.stratify Strata.default blocks in
  (* An easy (chain-free) block and a hard (deep-chain) block must not
     share a stratum. *)
  Alcotest.(check bool) "easy and hard blocks split" true
    (s.Strata.assign.(0) <> s.Strata.assign.(5))

let test_strata_digest () =
  let d0 = Strata.digest Strata.default in
  let d1 = Strata.digest { Strata.default with rare_blocks = 9 } in
  let d2 = Strata.digest { Strata.default with len_edges = [| 2; 4 |] } in
  Alcotest.(check int) "digest is 16 hex chars" 16 (String.length d0);
  Alcotest.(check bool) "rare_blocks changes digest" true (d0 <> d1);
  Alcotest.(check bool) "edges change digest" true (d0 <> d2);
  Alcotest.(check string) "digest is stable" d0 (Strata.digest Strata.default)

(* ---- allocator ---- *)

let check_alloc ~budget ~floor_frac ~sizes ~scores =
  let alloc = Sampler.allocate ~budget ~floor_frac ~sizes ~scores in
  Alcotest.(check int) "allocation sums to budget" budget
    (Array.fold_left ( + ) 0 alloc);
  Array.iteri
    (fun h a ->
      if sizes.(h) = 0 then
        Alcotest.(check int) "empty stratum gets zero" 0 a
      else Alcotest.(check bool) "nonnegative" true (a >= 0))
    alloc;
  alloc

let test_allocate_invariants () =
  let sizes = [| 30; 10; 5; 0 |] in
  let scores = [| 0.1; 2.0; 0.5; 1.0 |] in
  let budget = 100 in
  let floor_frac = 0.2 in
  let alloc = check_alloc ~budget ~floor_frac ~sizes ~scores in
  (* Floors: every nonempty stratum gets at least
     max 1 (floor_frac * budget * size/total). *)
  let total = 45 in
  Array.iteri
    (fun h a ->
      if sizes.(h) > 0 then begin
        let fl =
          max 1
            (int_of_float
               (floor
                  (floor_frac *. float_of_int budget *. float_of_int sizes.(h)
                  /. float_of_int total)))
        in
        Alcotest.(check bool)
          (Printf.sprintf "stratum %d floor %d <= %d" h fl a)
          true (a >= fl)
      end)
    alloc;
  (* The high-score stratum out-draws its population share. *)
  Alcotest.(check bool) "complex stratum over-sampled" true
    (float_of_int alloc.(1) /. float_of_int budget > 10.0 /. 45.0);
  (* Determinism. *)
  let again = Sampler.allocate ~budget ~floor_frac ~sizes ~scores in
  Alcotest.(check (array int)) "deterministic" alloc again

let test_allocate_small_budget () =
  (* Budget below the per-stratum floors: even split, remainder to the
     lowest ids, empty strata still zero. *)
  let alloc =
    check_alloc ~budget:4 ~floor_frac:0.5 ~sizes:[| 8; 0; 8; 8 |]
      ~scores:[| 1.0; 1.0; 1.0; 1.0 |]
  in
  Alcotest.(check (array int)) "even split, low ids first" [| 2; 0; 1; 1 |]
    alloc

let test_allocate_zero_cases () =
  Alcotest.(check (array int)) "zero budget" [| 0; 0 |]
    (Sampler.allocate ~budget:0 ~floor_frac:0.2 ~sizes:[| 3; 4 |]
       ~scores:[| 1.0; 1.0 |]);
  Alcotest.(check (array int)) "all empty" [| 0; 0 |]
    (Sampler.allocate ~budget:10 ~floor_frac:0.2 ~sizes:[| 0; 0 |]
       ~scores:[| 1.0; 1.0 |]);
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Sampler.allocate: sizes/scores length mismatch")
    (fun () ->
      ignore (Sampler.allocate ~budget:1 ~floor_frac:0.2 ~sizes:[| 1 |]
                ~scores:[| 1.0; 2.0 |]))

let test_allocate_random_invariants () =
  let rng = Rng.create 99 in
  for _ = 1 to 200 do
    let k = 1 + Rng.int rng 6 in
    let sizes = Array.init k (fun _ -> Rng.int rng 40) in
    let scores = Array.init k (fun _ -> Rng.float rng 3.0) in
    let budget = Rng.int rng 300 in
    let floor_frac = Rng.float rng 1.0 in
    let alloc = Sampler.allocate ~budget ~floor_frac ~sizes ~scores in
    let total = Array.fold_left ( + ) 0 sizes in
    let expect = if total = 0 then 0 else budget in
    Alcotest.(check int) "sums to budget" expect
      (Array.fold_left ( + ) 0 alloc);
    Array.iteri
      (fun h a ->
        Alcotest.(check bool) "nonnegative" true (a >= 0);
        if sizes.(h) = 0 then Alcotest.(check int) "empty gets 0" 0 a)
      alloc
  done

let test_pilot_budget () =
  Alcotest.(check int) "frac of budget" 15
    (Sampler.pilot_budget ~budget:100 ~n_strata:2 ~pilot_frac:0.15
       ~min_per_stratum:2);
  Alcotest.(check int) "min per stratum lifts" 20
    (Sampler.pilot_budget ~budget:100 ~n_strata:10 ~pilot_frac:0.15
       ~min_per_stratum:2);
  Alcotest.(check int) "capped at half budget" 50
    (Sampler.pilot_budget ~budget:100 ~n_strata:40 ~pilot_frac:0.15
       ~min_per_stratum:2);
  Alcotest.(check int) "tiny budget" 0
    (Sampler.pilot_budget ~budget:1 ~n_strata:3 ~pilot_frac:0.15
       ~min_per_stratum:2)

let test_complexity () =
  Alcotest.(check (float 1e-9)) "residual + slope" 1.5
    (Sampler.complexity ~first:1.5 ~last:0.75 +. 0.0);
  Alcotest.(check bool) "descending curve beats flat" true
    (Sampler.complexity ~first:2.0 ~last:1.0
    > Sampler.complexity ~first:1.0 ~last:1.0);
  Alcotest.(check bool) "non-finite clamps, not poisons" true
    (Float.is_finite (Sampler.complexity ~first:Float.nan ~last:infinity))

(* ---- guided collect ---- *)

let sample_eq (a : Engine.sim_sample) (b : Engine.sim_sample) =
  a.block_idx = b.block_idx
  && a.per = b.per && a.global = b.global
  && Int64.equal (Int64.bits_of_float a.target) (Int64.bits_of_float b.target)

let dataset_eq xs ys =
  Array.length xs = Array.length ys
  && Array.for_all2 sample_eq xs ys

let test_guided_domain_determinism () =
  let blocks = skewed_corpus ~easy:18 ~hard:6 in
  let collect domains =
    Testkit.with_domains domains (fun () ->
        Engine.collect toy_cfg toy_spec blocks)
  in
  let d1 = collect 1 in
  let d2 = collect 2 in
  let d4 = collect 4 in
  Alcotest.(check int) "budget spent exactly"
    (toy_cfg.sim_multiplier * Array.length blocks)
    (Array.length d1);
  Alcotest.(check bool) "domains 1 = 2" true (dataset_eq d1 d2);
  Alcotest.(check bool) "domains 1 = 4" true (dataset_eq d1 d4)

let test_guided_simcache_capacity_invariance () =
  (* The memo cache can change cost, never content: a capacity-starved
     collect must produce the identical dataset. *)
  let blocks = skewed_corpus ~easy:18 ~hard:6 in
  let big = Engine.collect toy_cfg toy_spec blocks in
  let small =
    Engine.collect { toy_cfg with simcache_capacity = 4 } toy_spec blocks
  in
  Alcotest.(check bool) "capacity does not change samples" true
    (dataset_eq big small)

let test_pilot_crash_resume () =
  let blocks = skewed_corpus ~easy:18 ~hard:6 in
  let clean = Engine.collect toy_cfg toy_spec blocks in
  with_faults (fun () ->
      with_tmpdir (fun dir ->
          Faultsim.arm "collect.pilot_crash" ~at:1;
          (match Engine.collect ~checkpoint_dir:dir toy_cfg toy_spec blocks with
          | _ -> Alcotest.fail "armed pilot crash did not fire"
          | exception Faultsim.Injected "collect.pilot_crash" -> ());
          Faultsim.clear ();
          let health = Fault.create_health () in
          let resumed =
            Engine.collect ~checkpoint_dir:dir ~health toy_cfg toy_spec blocks
          in
          Alcotest.(check bool) "resumed dataset bit-identical" true
            (dataset_eq clean resumed)))

let test_pilot_checkpoint_resume () =
  (* Crash right after the pilot checkpoint is installed (the
     engine.abort site inside save_ckpt): the re-run must restore the
     pilot phase from disk and still match a clean run bitwise. *)
  let blocks = skewed_corpus ~easy:18 ~hard:6 in
  let clean = Engine.collect toy_cfg toy_spec blocks in
  with_faults (fun () ->
      with_tmpdir (fun dir ->
          Faultsim.arm "engine.abort" ~at:1;
          (match Engine.collect ~checkpoint_dir:dir toy_cfg toy_spec blocks with
          | _ -> Alcotest.fail "armed abort did not fire"
          | exception Faultsim.Injected "engine.abort" -> ());
          Faultsim.clear ();
          let health = Fault.create_health () in
          let resumed =
            Engine.collect ~checkpoint_dir:dir ~health toy_cfg toy_spec blocks
          in
          Alcotest.(check bool) "pilot phase restored" true
            (health.skipped_phases >= 1);
          Alcotest.(check bool) "resumed dataset bit-identical" true
            (dataset_eq clean resumed)))

let test_strategy_fingerprint_isolation () =
  (* A uniform dataset checkpoint must never be restored by a guided
     collect (and vice versa): the strategy is part of the dataset
     fingerprint. *)
  Alcotest.(check bool) "tags differ" true
    (Engine.sampling_tag Engine.Uniform
    <> Engine.sampling_tag (Engine.Guided Strata.default));
  let blocks = skewed_corpus ~easy:18 ~hard:6 in
  with_tmpdir (fun dir ->
      let uniform_cfg = { toy_cfg with sampling = Engine.Uniform } in
      let uniform =
        Engine.collect ~checkpoint_dir:dir uniform_cfg toy_spec blocks
      in
      let health = Fault.create_health () in
      let guided =
        Engine.collect ~checkpoint_dir:dir ~health toy_cfg toy_spec blocks
      in
      Alcotest.(check bool) "stale strategy checkpoint rejected" true
        (health.bad_checkpoints >= 1);
      let guided_fresh = Engine.collect toy_cfg toy_spec blocks in
      Alcotest.(check bool) "guided result is guided, not restored uniform"
        true
        (dataset_eq guided guided_fresh);
      Alcotest.(check bool) "guided differs from uniform" true
        (not (dataset_eq guided uniform)))

(* ---- guided vs uniform fidelity at an equal budget ---- *)

(* Held-out evaluation: fresh (θ, x) pairs the surrogate never saw,
   scored as MAPE of the surrogate against the true simulator. *)
let surrogate_mape cfg spec model blocks ~seed ~n =
  let rng = Rng.create seed in
  ignore cfg;
  let predicted = Array.make n 0.0 in
  let actual = Array.make n 0.0 in
  for i = 0 to n - 1 do
    let block = blocks.(Rng.int rng (Array.length blocks)) in
    let table = spec.Spec.sample rng in
    let per, global = Spec.normalize_block spec table block in
    let sample =
      { Model.bblock = block; bparams = Some (per, global); bfeatures = None }
    in
    predicted.(i) <- (Model.predict_batch_value model [| sample |]).(0);
    actual.(i) <- spec.Spec.timing table block
  done;
  Dt_eval.Metrics.mape ~predicted ~actual

let train_with sampling =
  let blocks = skewed_corpus ~easy:40 ~hard:8 in
  let cfg = { toy_cfg with sampling; seed = 5 } in
  let data = Engine.collect cfg toy_spec blocks in
  let model = Engine.make_model cfg toy_spec (Rng.create cfg.seed) in
  let loss = Engine.train_surrogate cfg toy_spec model data blocks in
  Alcotest.(check bool) "finite training loss" true (Float.is_finite loss);
  surrogate_mape cfg toy_spec model blocks ~seed:1234 ~n:200

let test_guided_beats_uniform_at_equal_budget () =
  let uniform = train_with Engine.Uniform in
  let guided = train_with (Engine.Guided Strata.default) in
  Alcotest.(check bool)
    (Printf.sprintf "guided %.4f <= uniform %.4f at equal budget" guided
       uniform)
    true
    (guided <= uniform)

(* ---- retrain path ---- *)

(* Two retrains of one model on the same traffic are bit-identical. *)
let test_retrain_deterministic () =
  let blocks = skewed_corpus ~easy:12 ~hard:4 in
  let train =
    Array.to_list
      (Array.map
         (fun b -> (b, toy_spec.Spec.timing (Spec.round_table toy_spec
                                               (toy_spec.Spec.sample (Rng.create 3))) b))
         blocks)
  in
  let cfg =
    { toy_cfg with surrogate_passes = 2.0; sim_multiplier = 2 }
  in
  let init = Engine.train_ithemal cfg ~features:None ~train in
  let a = Engine.retrain_ithemal cfg ~features:None ~init ~train in
  let b = Engine.retrain_ithemal cfg ~features:None ~init ~train in
  let blocks_arr = Array.of_list (List.map fst train) in
  let pa = Engine.ithemal_predict_batch ~features:None a blocks_arr in
  let pb = Engine.ithemal_predict_batch ~features:None b blocks_arr in
  Array.iteri
    (fun i v ->
      Alcotest.(check bool) "finite prediction" true (Float.is_finite v);
      Alcotest.(check bool) "retrain deterministic" true
        (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float pb.(i))))
    pa

(* [--racecheck] (the suite's second runtest rule) arms the dynamic
   race checker for every case. *)
let () =
  Testkit.run "sampler"
    [
      ( "strata",
        [
          Alcotest.test_case "partition" `Quick test_stratify_partition;
          Alcotest.test_case "deterministic" `Quick test_stratify_deterministic;
          Alcotest.test_case "separates chains" `Quick
            test_stratify_separates_chains;
          Alcotest.test_case "digest" `Quick test_strata_digest;
        ] );
      ( "allocate",
        [
          Alcotest.test_case "invariants" `Quick test_allocate_invariants;
          Alcotest.test_case "small budget" `Quick test_allocate_small_budget;
          Alcotest.test_case "zero cases" `Quick test_allocate_zero_cases;
          Alcotest.test_case "random invariants" `Quick
            test_allocate_random_invariants;
          Alcotest.test_case "pilot budget" `Quick test_pilot_budget;
          Alcotest.test_case "complexity" `Quick test_complexity;
        ] );
      ( "collect",
        [
          Alcotest.test_case "domain determinism" `Quick
            test_guided_domain_determinism;
          Alcotest.test_case "simcache capacity invariance" `Quick
            test_guided_simcache_capacity_invariance;
          Alcotest.test_case "pilot crash resume" `Quick
            test_pilot_crash_resume;
          Alcotest.test_case "pilot checkpoint resume" `Quick
            test_pilot_checkpoint_resume;
          Alcotest.test_case "strategy fingerprint isolation" `Quick
            test_strategy_fingerprint_isolation;
        ] );
      ( "fidelity",
        [
          Alcotest.test_case "guided <= uniform at equal budget" `Slow
            test_guided_beats_uniform_at_equal_budget;
          Alcotest.test_case "retrain deterministic" `Quick
            test_retrain_deterministic;
        ] );
    ]
