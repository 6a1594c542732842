module Uarch = Dt_refcpu.Uarch
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Model = Dt_surrogate.Model
module Metrics = Dt_eval.Metrics
module Stats = Dt_util.Stats
module Rng = Dt_util.Rng
module Tt = Dt_util.Text_table

type runner = Runner.t

let pct v = Printf.sprintf "%.1f%%" (100.0 *. v)
let tau3 v = Printf.sprintf "%.3f" v

let header title =
  Printf.printf "\n=== %s ===\n%!" title

(* The simulator under a fixed table, validated once for all blocks. *)
let mca_timing params =
  Dt_mca.Params.validate params;
  fun block -> Dt_mca.Pipeline.timing_unchecked params block

(* ------------------------------------------------------------------ *)

let table3 runner =
  header "Table III: dataset summary statistics";
  let hsw = Runner.dataset runner Uarch.Haswell in
  let s = Dt_bhive.Dataset.summarize hsw in
  let t = Tt.create [ "Statistic"; "Paper (BHive)"; "This repro" ] in
  Tt.add_row t [ "# Blocks train"; "230111"; string_of_int s.n_train ];
  Tt.add_row t [ "# Blocks valid"; "28764"; string_of_int s.n_valid ];
  Tt.add_row t [ "# Blocks test"; "28764"; string_of_int s.n_test ];
  Tt.add_separator t;
  Tt.add_row t [ "Block length min"; "1"; string_of_int s.min_len ];
  Tt.add_row t [ "Block length median"; "3"; Printf.sprintf "%.0f" s.median_len ];
  Tt.add_row t [ "Block length mean"; "4.93"; Printf.sprintf "%.2f" s.mean_len ];
  Tt.add_row t [ "Block length max"; "256"; string_of_int s.max_len ];
  Tt.add_separator t;
  List.iter
    (fun (u, paper) ->
      let ds = Runner.dataset runner u in
      let su = Dt_bhive.Dataset.summarize ds in
      Tt.add_row t
        [
          "Median timing " ^ Uarch.uarch_name u;
          paper;
          Printf.sprintf "%.0f" su.median_timing;
        ])
    [ (Uarch.Ivy_bridge, "132"); (Uarch.Haswell, "123");
      (Uarch.Skylake, "120"); (Uarch.Zen2, "114") ];
  Tt.add_separator t;
  Tt.add_row t [ "Unique opcodes train"; "814"; string_of_int s.unique_opcodes_train ];
  Tt.add_row t [ "Unique opcodes total"; "837"; string_of_int s.unique_opcodes_total ];
  Tt.print t

(* ------------------------------------------------------------------ *)

(* Paper Table IV values: (default err, default tau, difftune err,
   difftune tau, ithemal err, iaca err (option), opentuner err). *)
let paper_table4 = function
  | Uarch.Ivy_bridge -> (33.5, 0.788, 25.4, 0.735, 9.4, Some 15.7, 102.0)
  | Uarch.Haswell -> (25.0, 0.783, 23.7, 0.745, 9.2, Some 17.1, 105.4)
  | Uarch.Skylake -> (26.7, 0.776, 23.0, 0.748, 9.3, Some 14.3, 113.0)
  | Uarch.Zen2 -> (34.9, 0.794, 26.1, 0.689, 9.4, None, 131.3)

let table4 runner =
  header "Table IV: error of llvm-mca with default and learned parameters";
  let t =
    Tt.create
      [ "Architecture"; "Predictor"; "Paper error"; "Error"; "Paper tau"; "Tau" ]
  in
  List.iter
    (fun uarch ->
      let name = Uarch.uarch_name uarch in
      let ds = Runner.dataset runner uarch in
      let p_derr, p_dtau, p_terr, p_ttau, p_ierr, p_iaca, p_ot =
        paper_table4 uarch
      in
      (* Default *)
      let dflt = Runner.default_params uarch in
      let err, tau = Runner.evaluate ds (mca_timing dflt) in
      Tt.add_row t
        [ name; "Default"; pct (p_derr /. 100.); pct err; tau3 p_dtau; tau3 tau ];
      (* DiffTune (mean +- std over seeds) *)
      let spec = Spec.mca_full uarch in
      let runs = Runner.difftune runner uarch in
      let stats =
        List.map
          (fun (r : Engine.result) ->
            Runner.evaluate ds (spec.timing r.table))
          runs
      in
      let errs = Array.of_list (List.map fst stats) in
      let taus = Array.of_list (List.map snd stats) in
      let show_pm mean std =
        if Array.length errs > 1 then
          Printf.sprintf "%s+-%.1f%%" (pct mean) (100. *. std)
        else pct mean
      in
      Tt.add_row t
        [
          name; "DiffTune";
          Printf.sprintf "%.1f%%+-*" p_terr;
          show_pm (Stats.mean errs) (Stats.stddev errs);
          tau3 p_ttau;
          tau3 (Stats.mean taus);
        ];
      (* Ithemal *)
      let ierr, itau = Runner.evaluate ds (Runner.ithemal runner uarch) in
      Tt.add_row t
        [ name; "Ithemal"; pct (p_ierr /. 100.); pct ierr; "-"; tau3 itau ];
      (* IACA *)
      (match p_iaca with
      | Some p ->
          let ierr, itau =
            Runner.evaluate ds (fun b ->
                Option.get (Dt_iaca.Iaca.predict uarch b))
          in
          Tt.add_row t
            [ name; "IACA"; pct (p /. 100.); pct ierr; "-"; tau3 itau ]
      | None -> Tt.add_row t [ name; "IACA"; "N/A"; "N/A"; "-"; "-" ]);
      (* OpenTuner *)
      let ot = Runner.opentuner runner uarch in
      let oterr, ottau = Runner.evaluate ds (spec.timing ot) in
      Tt.add_row t
        [ name; "OpenTuner"; pct (p_ot /. 100.); pct oterr; "-"; tau3 ottau ];
      Tt.add_separator t)
    Uarch.all_uarchs;
  Tt.print t

(* ------------------------------------------------------------------ *)

let paper_table5 =
  [ ("OpenBLAS", 28.8, 29.0); ("Redis", 41.2, 22.5); ("SQLite", 32.8, 21.6);
    ("GZip", 40.6, 20.6); ("TensorFlow", 33.5, 22.1);
    ("Clang/LLVM", 22.0, 21.0); ("Eigen", 44.3, 23.8); ("Embree", 34.1, 21.3);
    ("FFmpeg", 30.9, 21.2); ("Scalar", 17.2, 18.9); ("Vec", 35.3, 39.6);
    ("Scalar/Vec", 53.6, 37.5); ("Ld", 27.2, 24.4); ("St", 24.7, 8.7);
    ("Ld/St", 27.9, 30.3) ]

let table5 runner =
  header "Table V: Haswell per-application and per-category error";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.mca_full uarch in
  let dflt = Runner.default_params uarch in
  let learned = (List.hd (Runner.difftune runner uarch)).table in
  let derrs = Runner.test_errors ds (mca_timing dflt) in
  let lerrs = Runner.test_errors ds (spec.timing learned) in
  let groups =
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> l.entry.apps @ [ l.entry.category ])
      ds.test
  in
  let by_group errs = Metrics.group_errors ~groups ~errors:errs in
  let dflt_groups = by_group derrs and learned_groups = by_group lerrs in
  let t =
    Tt.create
      [ "Block type"; "#"; "Paper default"; "Default"; "Paper learned"; "Learned" ]
  in
  List.iter
    (fun (label, p_d, p_l) ->
      match List.find_opt (fun (g, _, _) -> g = label) dflt_groups with
      | None -> Tt.add_row t [ label; "0"; Printf.sprintf "%.1f%%" p_d; "-";
                               Printf.sprintf "%.1f%%" p_l; "-" ]
      | Some (_, n, derr) ->
          let _, _, lerr =
            List.find (fun (g, _, _) -> g = label) learned_groups
          in
          Tt.add_row t
            [
              label; string_of_int n;
              Printf.sprintf "%.1f%%" p_d; pct derr;
              Printf.sprintf "%.1f%%" p_l; pct lerr;
            ])
    paper_table5;
  Tt.print t

(* ------------------------------------------------------------------ *)

let table6 runner =
  header "Table VI: default and learned global parameters (Haswell)";
  let uarch = Uarch.Haswell in
  let dflt = Runner.default_params uarch in
  let learned = (List.hd (Runner.difftune runner uarch)).table in
  let t =
    Tt.create [ "Parameters"; "DispatchWidth"; "ReorderBufferSize" ]
  in
  Tt.add_row t [ "Paper default"; "4"; "192" ];
  Tt.add_row t [ "Paper learned"; "4"; "144" ];
  Tt.add_row t
    [ "Default"; string_of_int dflt.dispatch_width;
      string_of_int dflt.reorder_buffer_size ];
  Tt.add_row t
    [ "Learned"; Printf.sprintf "%.0f" learned.global.(0);
      Printf.sprintf "%.0f" learned.global.(1) ];
  Tt.print t

(* ------------------------------------------------------------------ *)

let fig2 runner =
  header "Figure 2: llvm-mca vs surrogate while varying DispatchWidth";
  let uarch = Uarch.Haswell in
  let spec = Spec.mca_full uarch in
  let run = List.hd (Runner.difftune runner uarch) in
  let block = Dt_x86.Block.parse "shrq $5, 16(%rsp)" in
  let dflt_table = Spec.mca_table_of_params (Runner.default_params uarch) in
  let t = Tt.create [ "DispatchWidth"; "llvm-mca"; "Surrogate" ] in
  let ctx = Dt_autodiff.Ad.new_ctx () in
  for dw = 1 to 10 do
    let table = Spec.copy_table dflt_table in
    table.global.(0) <- float_of_int dw;
    let sim = spec.timing table block in
    let per, global = Spec.normalize_block spec table block in
    let surrogate =
      let bfeatures =
        if (Model.config run.model).feature_width > 0 then
          Spec.bound_values spec ctx block ~per ~global
        else None
      in
      (Model.predict_batch_value run.model
         [| { Model.bblock = block; bparams = Some (per, global); bfeatures } |]).(0)
    in
    Tt.add_row t
      [ string_of_int dw; Printf.sprintf "%.2f" sim;
        Printf.sprintf "%.2f" surrogate ]
  done;
  Tt.print t;
  Printf.printf
    "(the simulator is a step function; the surrogate interpolates smoothly)\n"

(* ------------------------------------------------------------------ *)

let fig4 runner =
  header "Figure 4: distributions of default and learned parameter values (Haswell)";
  let uarch = Uarch.Haswell in
  let dflt = Spec.mca_table_of_params (Runner.default_params uarch) in
  let learned = (List.hd (Runner.difftune runner uarch)).table in
  let hist column_values =
    Stats.int_histogram ~max_value:10
      (Array.map (fun v -> int_of_float (Float.round v)) column_values)
  in
  let column table j =
    Array.map (fun (row : float array) -> row.(j)) table.Spec.per
  in
  let multi table js =
    Array.concat (List.map (fun j -> column table j) js)
  in
  let show name js =
    let t = Tt.create
        ([ "Value" ] @ List.init 11 string_of_int) in
    let d = hist (multi dflt js) and l = hist (multi learned js) in
    Tt.add_row t ("Default" :: Array.to_list (Array.map string_of_int d));
    Tt.add_row t ("Learned" :: Array.to_list (Array.map string_of_int l));
    Printf.printf "-- %s --\n" name;
    Tt.print t
  in
  show "NumMicroOps (4a)" [ 0 ];
  show "WriteLatency (4b)" [ 1 ];
  show "ReadAdvanceCycles (4c)" [ 2; 3; 4 ];
  show "PortMap entries (4d)" (List.init 10 (fun q -> 5 + q));
  let wl_learned = column learned 1 in
  let zeros =
    Array.length (Array.of_list (List.filter (fun v -> v < 0.5) (Array.to_list wl_learned)))
  in
  Printf.printf
    "(paper: 251 of 837 learned WriteLatency values are 0 vs 1 in the default;\n\
    \ here: %d of %d learned zeros vs %d default zeros)\n"
    zeros (Array.length wl_learned)
    (Array.length
       (Array.of_list
          (List.filter (fun v -> v < 0.5) (Array.to_list (column dflt 1)))))

(* ------------------------------------------------------------------ *)

let fig5 runner =
  header "Figure 5: sensitivity to DispatchWidth and ReorderBufferSize (Haswell)";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.mca_full uarch in
  let dflt = Spec.mca_table_of_params (Runner.default_params uarch) in
  let learned = (List.hd (Runner.difftune runner uarch)).table in
  let eval table =
    fst (Runner.evaluate ds (spec.timing table))
  in
  let sweep base j values =
    List.map
      (fun v ->
        let t = Spec.copy_table base in
        t.global.(j) <- v;
        (v, eval t))
      values
  in
  let widths = List.init 10 (fun i -> float_of_int (i + 1)) in
  let t = Tt.create [ "DispatchWidth"; "Default table"; "Learned table" ] in
  List.iter2
    (fun (w, d) (_, l) ->
      Tt.add_row t
        [ Printf.sprintf "%.0f" w; pct d; pct l ])
    (sweep dflt 0 widths) (sweep learned 0 widths);
  Tt.print t;
  let robs = [ 10.; 25.; 50.; 70.; 100.; 150.; 200.; 250.; 300.; 400. ] in
  let t = Tt.create [ "ReorderBufferSize"; "Default table"; "Learned table" ] in
  List.iter2
    (fun (w, d) (_, l) ->
      Tt.add_row t [ Printf.sprintf "%.0f" w; pct d; pct l ])
    (sweep dflt 1 robs) (sweep learned 1 robs);
  Tt.print t;
  Printf.printf
    "(paper: sharp sensitivity to DispatchWidth, flat above a knee for\n\
    \ ReorderBufferSize -- the L1-resident assumption makes the ROB rarely bind)\n"

(* ------------------------------------------------------------------ *)

let ablation_wl runner =
  header "Section VI-B: learning WriteLatency only (Haswell)";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let wl_spec = Spec.mca_write_latency uarch in
  let full_spec = Spec.mca_full uarch in
  let wl = Runner.difftune_wl runner uarch in
  let full = List.hd (Runner.difftune runner uarch) in
  let dflt = Runner.default_params uarch in
  let werr, wtau = Runner.evaluate ds (wl_spec.timing wl.table) in
  let ferr, ftau = Runner.evaluate ds (full_spec.timing full.table) in
  let derr, dtau = Runner.evaluate ds (mca_timing dflt) in
  let t = Tt.create [ "Setting"; "Paper error"; "Error"; "Paper tau"; "Tau" ] in
  Tt.add_row t [ "Default"; "25.0%"; pct derr; "0.783"; tau3 dtau ];
  Tt.add_row t [ "Full parameter set"; "23.7%"; pct ferr; "0.745"; tau3 ftau ];
  Tt.add_row t [ "WriteLatency only"; "16.2%"; pct werr; "0.823"; tau3 wtau ];
  Tt.print t;
  Printf.printf
    "(learning a subset with expert defaults elsewhere beats learning\n\
    \ everything: the full-table optimum found by DiffTune is not global)\n"

(* ------------------------------------------------------------------ *)

let cases runner =
  header "Section VI-C case studies (Haswell, WriteLatency-only table)";
  let uarch = Uarch.Haswell in
  let cfg = Uarch.config uarch in
  let wl_spec = Spec.mca_write_latency uarch in
  let wl = Runner.difftune_wl runner uarch in
  let dflt = Runner.default_params uarch in
  let default_timing = mca_timing dflt in
  let learned_timing = wl_spec.timing wl.table in
  let get n = (Option.get (Dt_x86.Opcode.by_name n)).Dt_x86.Opcode.index in
  let t =
    Tt.create
      [ "Block"; "True"; "Default pred"; "Learned pred"; "Default WL"; "Learned WL" ]
  in
  List.iter
    (fun (label, block_text, opcode) ->
      let block = Dt_x86.Block.parse block_text in
      let truth = Dt_refcpu.Machine.timing cfg block in
      let dpred = default_timing block in
      let lpred = learned_timing block in
      Tt.add_row t
        [
          label;
          Printf.sprintf "%.2f" truth;
          Printf.sprintf "%.2f" dpred;
          Printf.sprintf "%.2f" lpred;
          string_of_int dflt.write_latency.(get opcode);
          Printf.sprintf "%.0f" wl.table.per.(get opcode).(0);
        ])
    [
      ("pushq+testl (PUSH64r)", "pushq %rbx\ntestl %r8d, %r8d", "PUSH64r");
      ("xorl r13,r13 (XOR32rr)", "xorl %r13d, %r13d", "XOR32rr");
      ("addl eax,16(rsp) (ADD32mr)", "addl %eax, 16(%rsp)", "ADD32mr");
    ];
  Tt.print t;
  Printf.printf
    "(paper: PUSH64r true 1.01, default 2.03 -> learned 1.03 with WL 2 -> 0;\n\
    \ XOR32rr true 0.31, default 1.03 -> learned 0.27;\n\
    \ ADD32mr true 5.97: no WriteLatency can model the memory chain, so the\n\
    \ learned value is degenerately high)\n"

(* ------------------------------------------------------------------ *)

let table8 runner =
  header "Table VIII (Appendix A): llvm_sim with default and learned parameters";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.usim_spec uarch in
  let run = Runner.difftune_usim runner uarch in
  let dflt = Dt_usim.Usim.default uarch in
  let derr, dtau = Runner.evaluate ds (fun b -> Dt_usim.Usim.timing dflt b) in
  let lerr, ltau = Runner.evaluate ds (spec.timing run.table) in
  let ierr, itau = Runner.evaluate ds (Runner.ithemal runner uarch) in
  let t =
    Tt.create [ "Predictor"; "Paper error"; "Error"; "Paper tau"; "Tau" ]
  in
  Tt.add_row t [ "Default"; "61.3%"; pct derr; "0.726"; tau3 dtau ];
  Tt.add_row t [ "DiffTune"; "44.1%"; pct lerr; "0.718"; tau3 ltau ];
  Tt.add_row t [ "Ithemal"; "9.2%"; pct ierr; "0.854"; tau3 itau ];
  Tt.print t

(* ------------------------------------------------------------------ *)

let random_tables runner =
  header "Section V-A: llvm-mca error under random parameter tables";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.mca_full uarch in
  let rng = Rng.create 2026 in
  let subset = Array.sub ds.test 0 (min 150 (Array.length ds.test)) in
  let errs =
    Array.init 10 (fun _ ->
        let timing = spec.timing (spec.sample rng) in
        let predicted =
          Array.map
            (fun (l : Dt_bhive.Dataset.labeled) -> timing l.entry.block)
            subset
        in
        let actual =
          Array.map (fun (l : Dt_bhive.Dataset.labeled) -> l.timing) subset
        in
        Metrics.mape ~predicted ~actual)
  in
  Printf.printf
    "paper: 171.4%% +- 95.7%% | here: %.1f%% +- %.1f%% (10 random tables)\n"
    (100. *. Stats.mean errs) (100. *. Stats.stddev errs)

(* ------------------------------------------------------------------ *)

let extension_idioms runner =
  header
    "Extension (Section VII): boolean zero-idiom parameters via relaxation";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.mca_full_idioms uarch in
  let train =
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      ds.train
  in
  let cfg = (Runner.scale runner).engine in
  let valid =
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      ds.valid
  in
  let result = Engine.learn ~valid cfg spec ~train in
  let err, tau = Runner.evaluate ds (spec.timing result.table) in
  let dflt = Runner.default_params uarch in
  let derr, dtau = Runner.evaluate ds (mca_timing dflt) in
  let t = Tt.create [ "Setting"; "Error"; "Tau" ] in
  Tt.add_row t [ "Default (idioms off)"; pct derr; tau3 dtau ];
  Tt.add_row t [ "Learned table + flags"; pct err; tau3 tau ];
  Tt.print t;
  (* How many learned flags land on truly idiom-capable opcodes? *)
  let hits = ref 0 and on = ref 0 in
  Array.iteri
    (fun i (row : float array) ->
      if row.(Spec.idiom_col) >= 0.5 then begin
        incr on;
        if Dt_x86.Opcode.database.(i).zero_idiom then incr hits
      end)
    result.table.per;
  Printf.printf
    "learned idiom flags ON: %d (of %d opcodes), %d on truly idiom-capable      opcodes (%d capable exist)
"
    !on Dt_x86.Opcode.count !hits
    (Array.fold_left
       (fun acc (o : Dt_x86.Opcode.t) -> if o.zero_idiom then acc + 1 else acc)
       0 Dt_x86.Opcode.database)

(* ------------------------------------------------------------------ *)

let measured_latency runner =
  header
    "Section II-B: llvm-mca instantiated with measured latencies \
     (uops.info-style methodology)";
  let uarch = Uarch.Haswell in
  let cfg = Uarch.config uarch in
  let ds = Runner.dataset runner uarch in
  let dflt = Runner.default_params uarch in
  let t =
    Tt.create [ "WriteLatency source"; "Paper error"; "Error"; "Tau" ]
  in
  let eval params = Runner.evaluate ds (mca_timing params) in
  let derr, dtau = eval dflt in
  Tt.add_row t [ "curated defaults"; "25.0%"; pct derr; tau3 dtau ];
  List.iter
    (fun (strategy, paper) ->
      let wl = Dt_measure.Measure.measured_write_latency cfg ~strategy in
      let p = { (Dt_mca.Params.copy dflt) with write_latency = wl } in
      let err, tau = eval p in
      Tt.add_row t
        [
          "measured (" ^ Dt_measure.Measure.strategy_name strategy ^ ")";
          paper; pct err; tau3 tau;
        ])
    [ (Dt_measure.Measure.Min, "103%"); (Dt_measure.Measure.Median, "150%");
      (Dt_measure.Measure.Max, "218%") ];
  Tt.print t;
  Printf.printf
    "(Paper: on real Haswell, min/median/max measured latencies give 103%% /\n\
    \ 150%% / 218%% error -- far worse than the defaults -- because hardware\n\
    \ latencies are input-dependent and multi-valued.  DEVIATION: on our\n\
    \ synthetic reference CPU the measured tables actually beat the defaults;\n\
    \ the machine has no input-dependent pathologies, so end-to-end\n\
    \ microbenchmarks act like a perfect mini-DiffTune.  The paper's weaker\n\
    \ claim does reproduce: min, median and max disagree, so measurement\n\
    \ does not define a unique WriteLatency value.)\n"

(* ------------------------------------------------------------------ *)

let ablation_surrogate runner =
  header
    "Ablation: pure-LSTM (paper architecture) vs physics-informed surrogate";
  let uarch = Uarch.Haswell in
  let ds = Runner.dataset runner uarch in
  let spec = Spec.mca_full uarch in
  let blocks =
    Array.map (fun (l : Dt_bhive.Dataset.labeled) -> l.entry.block) ds.train
  in
  let scale = Runner.scale runner in
  let cfg = { scale.engine with sim_multiplier = min 6 scale.engine.sim_multiplier } in
  let data = Engine.collect cfg spec blocks in
  let n = Array.length data in
  let train_data = Array.sub data 0 (n * 9 / 10) in
  let held = Array.sub data (n * 9 / 10) (n - (n * 9 / 10)) in
  let fidelity model =
    let with_features = (Model.config model).feature_width > 0 in
    let ctx = Dt_autodiff.Ad.new_ctx () in
    let errs =
      Array.map
        (fun (s : Engine.sim_sample) ->
          let block = blocks.(s.block_idx) in
          let sample =
            {
              Model.bblock = block;
              bparams = Some (s.per, s.global);
              bfeatures =
                (if with_features then
                   Spec.bound_values spec ctx block ~per:s.per
                     ~global:s.global
                 else None);
            }
          in
          let p = (Model.predict_batch_value model [| sample |]).(0) in
          Float.abs (p -. s.target) /. Float.max s.target 1e-3)
        held
    in
    Stats.mean errs
  in
  let t = Tt.create [ "Surrogate"; "Held-out fidelity (MAPE vs simulator)" ] in
  List.iter
    (fun (name, use_analytic) ->
      let rng = Rng.create 11 in
      let model =
        Engine.make_model { cfg with use_analytic } spec rng
      in
      let _ =
        Engine.train_surrogate { cfg with use_analytic } spec model train_data
          blocks
      in
      Tt.add_row t [ name; pct (fidelity model) ])
    [ ("physics-informed (bounds + LSTM correction)", true);
      ("pure LSTM (paper architecture, same budget)", false) ];
  Tt.print t;
  Printf.printf
    "(at CPU scale the analytic bounds are what make the surrogate faithful\n\
    \ enough for parameter gradients; see DESIGN.md)\n"

let all =
  [
    ("table3", table3);
    ("table4", table4);
    ("table5", table5);
    ("table6", table6);
    ("fig2", fig2);
    ("fig4", fig4);
    ("fig5", fig5);
    ("ablation_wl", ablation_wl);
    ("cases", cases);
    ("table8", table8);
    ("random_tables", random_tables);
    ("measured_latency", measured_latency);
    ("extension_idioms", extension_idioms);
    ("ablation_surrogate", ablation_surrogate);
  ]
