(* Tests for the fault-tolerance layer: fault injection, pool error
   capture, atomic table/checkpoint I/O, and engine checkpoint/resume
   with numeric-health guards. *)

module Faultsim = Dt_util.Faultsim
module Pool = Dt_util.Pool
module Rng = Dt_util.Rng
module Fault = Dt_difftune.Fault
module Checkpoint = Dt_difftune.Checkpoint
module Table_io = Dt_difftune.Table_io
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Uarch = Dt_refcpu.Uarch

let with_faults f =
  Faultsim.clear ();
  Fun.protect ~finally:Faultsim.clear f

(* Unique scratch directories, removed afterwards. *)
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
      (Printf.sprintf "dt_fault_%d_%d" (Unix.getpid ()) !dir_counter)
  in
  rm_rf dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ---- Faultsim ---- *)

let test_faultsim_arming () =
  with_faults (fun () ->
      Faultsim.configure "a@2;b,c@1";
      Alcotest.(check bool) "a hit 1" false (Faultsim.fire "a");
      Alcotest.(check bool) "a hit 2 armed" true (Faultsim.fire "a");
      Alcotest.(check bool) "a hit 3" false (Faultsim.fire "a");
      Alcotest.(check int) "a hits counted" 3 (Faultsim.hits "a");
      Alcotest.(check bool) "bare site is @1" true (Faultsim.fire "b");
      Alcotest.(check bool) "comma separator" true (Faultsim.fire "c");
      Alcotest.(check bool) "unknown site never fires" false (Faultsim.fire "z");
      Faultsim.clear ();
      Alcotest.(check bool) "clear disarms" false (Faultsim.fire "b");
      (* With nothing armed, [fire] takes the fast path and does not
         count hits. *)
      Alcotest.(check int) "clear resets hits" 0 (Faultsim.hits "b"))

let test_faultsim_bad_spec () =
  with_faults (fun () ->
      List.iter
        (fun spec ->
          Alcotest.(check bool)
            (Printf.sprintf "%S rejected" spec)
            true
            (match Faultsim.configure spec with
            | () -> false
            | exception Invalid_argument _ -> true))
        [ "a@"; "a@zero"; "@3"; "a@0"; "a@-1" ])

let test_faultsim_fire_exn () =
  with_faults (fun () ->
      Faultsim.arm "boom" ~at:1;
      Alcotest.check_raises "raises Injected" (Faultsim.Injected "boom")
        (fun () -> Faultsim.fire_exn "boom"))

(* ---- Pool error capture ---- *)

let test_pool_first_error_kept () =
  let pool = Pool.create ~domains:1 () in
  Fun.protect
    ~finally:(fun () -> Pool.shutdown pool)
    (fun () ->
      (match Pool.run pool 5 (fun i -> failwith (string_of_int i)) with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          Alcotest.(check string) "first task's error" "0" msg);
      Alcotest.(check int) "later errors suppressed and counted" 4
        (Pool.suppressed_errors pool);
      (* The pool survives a failed run. *)
      let total = ref 0 in
      Pool.run pool 3 (fun i -> total := !total + i);
      Alcotest.(check int) "usable after error" 3 !total)

let test_pool_worker_injection () =
  with_faults (fun () ->
      Faultsim.arm "pool.worker" ~at:3;
      let executed = Atomic.make 0 in
      let pool = Pool.create ~domains:2 () in
      Fun.protect
        ~finally:(fun () -> Pool.shutdown pool)
        (fun () ->
          match Pool.run pool 6 (fun _ -> Atomic.incr executed) with
          | () -> Alcotest.fail "expected Injected"
          | exception Faultsim.Injected site ->
              Alcotest.(check string) "site" "pool.worker" site;
              (* The injected task is skipped; every other task still ran
                 so the join is clean. *)
              Alcotest.(check int) "other tasks completed" 5
                (Atomic.get executed)))

let test_pool_shutdown_idempotent () =
  let pool = Pool.create ~domains:3 () in
  Pool.shutdown pool;
  Pool.shutdown pool;
  Pool.shutdown pool

(* ---- Pool lanes ---- *)

let with_pool3 f =
  let pool = Pool.create ~domains:3 () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* Spin (bounded) until [cond ()] holds; a lane that never shows up
   fails the test instead of hanging it. *)
let await what cond =
  let deadline = Unix.gettimeofday () +. 10.0 in
  while not (cond ()) do
    if Unix.gettimeofday () > deadline then Alcotest.failf "timed out: %s" what;
    Unix.sleepf 0.0005
  done

let test_pool_lanes () =
  with_pool3 (fun pool ->
      let size = Pool.size pool in
      Alcotest.(check int) "size" 3 size;
      (* One task per lane, each held until every lane has started one:
         no lane can finish early and take a second task, so every lane
         must report itself exactly once. *)
      let started = Array.init size (fun _ -> Atomic.make 0) in
      let bad_lane = Atomic.make 0 in
      Pool.run_lanes pool size (fun ~lane _ ->
          if lane < 0 || lane >= size then Atomic.incr bad_lane
          else begin
            Atomic.incr started.(lane);
            await "every lane started" (fun () ->
                Array.for_all (fun c -> Atomic.get c > 0) started)
          end);
      Alcotest.(check int) "lanes in [0, size)" 0 (Atomic.get bad_lane);
      Array.iteri
        (fun lane c ->
          Alcotest.(check int) (Printf.sprintf "lane %d ran once" lane) 1
            (Atomic.get c))
        started;
      (* Many short tasks: a per-lane busy flag must never be found set. *)
      let busy = Array.init size (fun _ -> Atomic.make false) in
      let overlaps = Atomic.make 0 in
      let ran = Atomic.make 0 in
      Pool.run_lanes pool 96 (fun ~lane _ ->
          if not (Atomic.compare_and_set busy.(lane) false true) then
            Atomic.incr overlaps
          else begin
            Unix.sleepf 0.0002;
            Atomic.set busy.(lane) false
          end;
          Atomic.incr ran);
      Alcotest.(check int) "no two tasks on one lane at once" 0
        (Atomic.get overlaps);
      Alcotest.(check int) "every task ran" 96 (Atomic.get ran))

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

let test_pool_lanes_errors () =
  let prev = Printexc.backtrace_status () in
  Printexc.record_backtrace true;
  Fun.protect ~finally:(fun () -> Printexc.record_backtrace prev) @@ fun () ->
  with_pool3 (fun pool ->
      (* Four failing tasks: the first to fail is re-raised with the
         backtrace of its raise point on whichever lane ran it; the
         other three are counted.  Backtrace recording is per domain,
         so every task switches it on for its own lane. *)
      let ran = Atomic.make 0 in
      (match
         Pool.run_lanes pool 12 (fun ~lane:_ i ->
             Printexc.record_backtrace true;
             Atomic.incr ran;
             if i mod 3 = 0 then failwith (Printf.sprintf "task %d" i))
       with
      | () -> Alcotest.fail "expected Failure"
      | exception Failure msg ->
          let bt =
            Printexc.raw_backtrace_to_string (Printexc.get_raw_backtrace ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "a failing task's error (%s)" msg)
            true
            (List.mem msg [ "task 0"; "task 3"; "task 6"; "task 9" ]);
          Alcotest.(check bool)
            (Printf.sprintf "task backtrace kept:\n%s" bt)
            true
            (contains ~affix:"Raised at Stdlib.failwith" bt));
      Alcotest.(check int) "later errors suppressed and counted" 3
        (Pool.suppressed_errors pool);
      Alcotest.(check int) "every task still ran" 12 (Atomic.get ran);
      (* The armed pool.worker site skips one task and surfaces as the
         job's error; the others run on their lanes. *)
      with_faults (fun () ->
          Faultsim.arm "pool.worker" ~at:3;
          let executed = Atomic.make 0 in
          match
            Pool.run_lanes pool 6 (fun ~lane _ ->
                if lane >= 0 && lane < Pool.size pool then
                  Atomic.incr executed)
          with
          | () -> Alcotest.fail "expected Injected"
          | exception Faultsim.Injected site ->
              Alcotest.(check string) "site" "pool.worker" site;
              Alcotest.(check int) "other tasks completed" 5
                (Atomic.get executed));
      Alcotest.(check int) "a single failure suppresses nothing" 3
        (Pool.suppressed_errors pool);
      let total = Atomic.make 0 in
      Pool.run_lanes pool 4 (fun ~lane:_ i ->
          ignore (Atomic.fetch_and_add total i));
      Alcotest.(check int) "usable after errors" 6 (Atomic.get total))

(* ---- Table_io hardening ---- *)

let spec = Spec.mca_full Uarch.Haswell

let test_table_save_atomic () =
  with_tmpdir (fun dir ->
      let table = spec.sample (Rng.create 3) in
      let path = Filename.concat dir "table.txt" in
      Table_io.save spec table path;
      Alcotest.(check bool) "file exists" true (Sys.file_exists path);
      Alcotest.(check bool) "no temp file left" false
        (Sys.file_exists (path ^ ".tmp"));
      let loaded = Table_io.load spec ~fallback:table path in
      Alcotest.(check bool) "round-trips" true (loaded = table))

let fails_to_parse text =
  match Table_io.of_string spec ~fallback:(spec.sample (Rng.create 4)) text with
  | _ -> false
  | exception Failure _ -> true

let test_table_rejects_non_finite () =
  Alcotest.(check bool) "nan rejected" true
    (fails_to_parse (Printf.sprintf "spec %s\nglobal nan 4\n" spec.name));
  Alcotest.(check bool) "inf rejected" true
    (fails_to_parse (Printf.sprintf "spec %s\nglobal 3 inf\n" spec.name))

let test_table_rejects_duplicates () =
  let table = spec.sample (Rng.create 5) in
  let text = Table_io.to_string spec table in
  let opcode_line =
    List.find
      (fun l -> String.length l > 7 && String.sub l 0 7 = "opcode ")
      (String.split_on_char '\n' text)
  in
  Alcotest.(check bool) "duplicate opcode rejected" true
    (fails_to_parse (text ^ opcode_line ^ "\n"));
  Alcotest.(check bool) "duplicate global rejected" true
    (fails_to_parse (Printf.sprintf "spec %s\nglobal 1 2\nglobal 1 2\n" spec.name));
  (* The intact rendering still parses. *)
  Alcotest.(check bool) "well-formed accepted" false (fails_to_parse text)

(* ---- Checkpoint container ---- *)

let test_checkpoint_roundtrip () =
  with_tmpdir (fun dir ->
      Checkpoint.save ~dir ~name:"rt" (fun b ->
          Checkpoint.Enc.int b (-42);
          Checkpoint.Enc.bool b true;
          Checkpoint.Enc.float b 0.1;
          Checkpoint.Enc.float b Float.nan;
          Checkpoint.Enc.string b "hello";
          Checkpoint.Enc.float_array b [| 1.5; -2.25; 0.0 |];
          Checkpoint.Enc.list b Checkpoint.Enc.int [ 1; 2; 3 ];
          Checkpoint.Enc.option b Checkpoint.Enc.string None);
      match
        Checkpoint.load ~dir ~name:"rt" (fun d ->
            let i = Checkpoint.Dec.int d in
            let fl = Checkpoint.Dec.bool d in
            let f = Checkpoint.Dec.float d in
            let n = Checkpoint.Dec.float d in
            let s = Checkpoint.Dec.string d in
            let a = Checkpoint.Dec.float_array d in
            let l = Checkpoint.Dec.list d Checkpoint.Dec.int in
            let o = Checkpoint.Dec.option d Checkpoint.Dec.string in
            (i, fl, f, n, s, a, l, o))
      with
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok (i, fl, f, n, s, a, l, o) ->
          Alcotest.(check int) "int" (-42) i;
          Alcotest.(check bool) "bool" true fl;
          Alcotest.(check (float 0.0)) "float bit-exact" 0.1 f;
          Alcotest.(check bool) "nan payload survives" true (Float.is_nan n);
          Alcotest.(check string) "string" "hello" s;
          Alcotest.(check bool) "array" true (a = [| 1.5; -2.25; 0.0 |]);
          Alcotest.(check (list int)) "list" [ 1; 2; 3 ] l;
          Alcotest.(check bool) "option" true (o = None))

let load_unit ~dir ~name =
  Checkpoint.load ~dir ~name (fun d -> ignore (Checkpoint.Dec.int d))

let test_checkpoint_missing () =
  with_tmpdir (fun dir ->
      match load_unit ~dir ~name:"absent" with
      | Error (Fault.Checkpoint_missing _) -> ()
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok () -> Alcotest.fail "expected missing")

let write_raw path bytes =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc bytes)

let test_checkpoint_bad_magic () =
  with_tmpdir (fun dir ->
      write_raw (Checkpoint.path ~dir ~name:"junk") (String.make 64 'J');
      match load_unit ~dir ~name:"junk" with
      | Error (Fault.Checkpoint_corrupt _) -> ()
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok () -> Alcotest.fail "expected corrupt")

let test_checkpoint_version_mismatch () =
  with_tmpdir (fun dir ->
      let b = Buffer.create 32 in
      Buffer.add_string b "DTCK";
      Checkpoint.Enc.int b (Checkpoint.version + 1);
      Buffer.add_string b (String.make 8 '\000');
      write_raw (Checkpoint.path ~dir ~name:"future") (Buffer.contents b);
      match load_unit ~dir ~name:"future" with
      | Error (Fault.Checkpoint_version { found; expected; _ }) ->
          Alcotest.(check int) "found" (Checkpoint.version + 1) found;
          Alcotest.(check int) "expected" Checkpoint.version expected
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok () -> Alcotest.fail "expected version mismatch")

let test_checkpoint_crc_detects_flip () =
  with_tmpdir (fun dir ->
      Checkpoint.save ~dir ~name:"bits" (fun b ->
          Checkpoint.Enc.float_array b (Array.init 16 float_of_int));
      let path = Checkpoint.path ~dir ~name:"bits" in
      let ic = open_in_bin path in
      let s =
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      let flipped = Bytes.of_string s in
      let mid = String.length s / 2 in
      Bytes.set flipped mid (Char.chr (Char.code (Bytes.get flipped mid) lxor 1));
      write_raw path (Bytes.to_string flipped);
      match
        Checkpoint.load ~dir ~name:"bits" (fun d ->
            ignore (Checkpoint.Dec.float_array d))
      with
      | Error (Fault.Checkpoint_corrupt { reason; _ }) ->
          Alcotest.(check string) "reason" "CRC mismatch" reason
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok () -> Alcotest.fail "expected corrupt")

let test_checkpoint_truncation_injected () =
  with_faults (fun () ->
      with_tmpdir (fun dir ->
          Faultsim.arm "ckpt.truncate" ~at:1;
          Checkpoint.save ~dir ~name:"torn" (fun b ->
              Checkpoint.Enc.float_array b (Array.make 64 1.0));
          match
            Checkpoint.load ~dir ~name:"torn" (fun d ->
                ignore (Checkpoint.Dec.float_array d))
          with
          | Error (Fault.Checkpoint_corrupt _) -> ()
          | Error f -> Alcotest.fail (Fault.to_string f)
          | Ok () -> Alcotest.fail "expected corrupt after truncation"))

let test_checkpoint_decoder_overrun () =
  with_tmpdir (fun dir ->
      Checkpoint.save ~dir ~name:"short" (fun b -> Checkpoint.Enc.int b 7);
      match
        Checkpoint.load ~dir ~name:"short" (fun d ->
            ignore (Checkpoint.Dec.string d);
            ignore (Checkpoint.Dec.float_array d))
      with
      | Error (Fault.Checkpoint_corrupt _) -> ()
      | Error f -> Alcotest.fail (Fault.to_string f)
      | Ok () -> Alcotest.fail "expected corrupt")

(* ---- Engine: checkpoint/resume and numeric-health guards ---- *)

let tiny_train =
  let c = Dt_bhive.Dataset.corpus ~seed:11 ~size:60 in
  let ds = Dt_bhive.Dataset.label c ~seed:2 ~uarch:Uarch.Haswell ~noise:0.0 in
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (Dt_bhive.Dataset.all ds)

let wl_spec = Spec.mca_write_latency Uarch.Haswell

let tiny_cfg =
  {
    Engine.fast_config with
    seed = 4;
    sim_multiplier = 2;
    surrogate_passes = 0.5;
    table_passes = 2.0;
  }

let tiny_valid = Array.sub tiny_train 0 16

let learn ?checkpoint_dir () =
  Engine.learn ~valid:tiny_valid ?checkpoint_dir tiny_cfg wl_spec
    ~train:tiny_train

(* Run to completion under repeated SIGKILL-style interruptions: every
   checkpoint install aborts the process (arming [engine.abort] at the
   next hit each time), and the run is restarted against the same
   directory until it finishes.  This kills the pipeline at {e every}
   resumable boundary — after the dataset write, after each mid-epoch
   segment of both phases, and after each phase-completion write. *)
let drive_to_completion dir =
  let rec go attempts =
    if attempts > 200 then Alcotest.fail "kill/resume loop did not terminate";
    Faultsim.clear ();
    Faultsim.arm "engine.abort" ~at:1;
    match learn ~checkpoint_dir:dir () with
    | r ->
        Faultsim.clear ();
        (r, attempts)
    | exception Faultsim.Injected _ -> go (attempts + 1)
  in
  go 0

let test_resume_bit_identical () =
  with_faults (fun () ->
      let baseline = learn () in
      (* An uninterrupted checkpointed run must not perturb results. *)
      with_tmpdir (fun dir ->
          let straight = learn ~checkpoint_dir:dir () in
          Alcotest.(check bool) "checkpointing alone is bit-neutral" true
            (straight.table = baseline.table
            && Float.equal straight.surrogate_loss baseline.surrogate_loss));
      with_tmpdir (fun dir ->
          let r, kills = drive_to_completion dir in
          Alcotest.(check bool) "was actually interrupted" true (kills > 3);
          Alcotest.(check bool) "table bit-identical after resume" true
            (r.table = baseline.table);
          Alcotest.(check bool)
            (Printf.sprintf "loss bit-identical (%.17g vs %.17g)"
               r.surrogate_loss baseline.surrogate_loss)
            true
            (Float.equal r.surrogate_loss baseline.surrogate_loss);
          (* The final (successful) attempt only skips phases completed by
             earlier attempts; the counters prove resume actually happened. *)
          Alcotest.(check bool) "phases were skipped on resume" true
            (r.health.skipped_phases > 0)))

let test_resume_completed_run () =
  with_faults (fun () ->
      with_tmpdir (fun dir ->
          let r1 = learn ~checkpoint_dir:dir () in
          let r2 = learn ~checkpoint_dir:dir () in
          Alcotest.(check bool) "same table" true (r1.table = r2.table);
          Alcotest.(check bool) "same loss" true
            (Float.equal r1.surrogate_loss r2.surrogate_loss);
          (* collect + surrogate (probe) + table all satisfied from disk. *)
          Alcotest.(check int) "all phases skipped" 3 r2.health.skipped_phases;
          Alcotest.(check int) "no training resumed" 0 r2.health.resumed_steps))

let test_corrupt_checkpoint_restarts_clean () =
  with_faults (fun () ->
      let baseline = learn () in
      with_tmpdir (fun dir ->
          ignore (learn ~checkpoint_dir:dir ());
          List.iter
            (fun name ->
              write_raw (Checkpoint.path ~dir ~name) "garbage garbage")
            [ "dataset"; "surrogate"; "table" ];
          let r = learn ~checkpoint_dir:dir () in
          Alcotest.(check bool) "bad checkpoints counted" true
            (r.health.bad_checkpoints > 0);
          Alcotest.(check int) "nothing skipped" 0 r.health.skipped_phases;
          Alcotest.(check bool) "fresh run matches baseline" true
            (r.table = baseline.table)))

let test_nan_gradient_rollback () =
  with_faults (fun () ->
      (* Poison the reduced gradient of the second minibatch in each
         training phase; the run must roll back, back off the learning
         rate, and still finish with a valid result. *)
      Faultsim.configure "grad.nan@2";
      let r = learn () in
      Alcotest.(check int) "one bad batch" 1 r.health.nan_batches;
      Alcotest.(check int) "one rollback" 1 r.health.rollbacks;
      Alcotest.(check int) "one lr backoff" 1 r.health.lr_backoffs;
      Alcotest.(check bool) "loss finite" true
        (Float.is_finite r.surrogate_loss);
      Array.iter
        (fun row ->
          Array.iteri
            (fun j v ->
              Alcotest.(check bool) "table still bounded" true
                (v >= wl_spec.per_lower.(j) && Float.is_finite v))
            row)
        r.table.per)

let test_divergence_budget_exhausted () =
  with_faults (fun () ->
      (* Poison every minibatch: after the bounded retry budget the run
         must fail with a structured fault, not a hang or a NaN table. *)
      for k = 1 to 64 do
        Faultsim.arm "grad.nan" ~at:k
      done;
      match learn () with
      | _ -> Alcotest.fail "expected Numeric_divergence"
      | exception Fault.Error (Fault.Numeric_divergence { retries; _ }) ->
          Alcotest.(check int) "full retry budget consumed" 4 retries
      | exception e -> Alcotest.fail (Printexc.to_string e))

let test_no_training_blocks_fault () =
  let cfg = { tiny_cfg with Engine.max_train_block_len = 0 } in
  match Engine.collect cfg wl_spec (Array.map fst tiny_train) with
  | _ -> Alcotest.fail "expected No_training_blocks"
  | exception Fault.Error (Fault.No_training_blocks { phase; _ }) ->
      Alcotest.(check string) "phase" "collect" (Fault.phase_name phase)

let test_worker_fault_propagates () =
  with_faults (fun () ->
      Faultsim.arm "pool.worker" ~at:1;
      match Engine.collect tiny_cfg wl_spec (Array.map fst tiny_train) with
      | _ -> Alcotest.fail "expected Injected"
      | exception Faultsim.Injected "pool.worker" -> ())

let () =
  Alcotest.run "fault"
    [
      ( "faultsim",
        [
          Alcotest.test_case "arming" `Quick test_faultsim_arming;
          Alcotest.test_case "bad spec" `Quick test_faultsim_bad_spec;
          Alcotest.test_case "fire_exn" `Quick test_faultsim_fire_exn;
        ] );
      ( "pool",
        [
          Alcotest.test_case "first error kept" `Quick
            test_pool_first_error_kept;
          Alcotest.test_case "worker injection" `Quick
            test_pool_worker_injection;
          Alcotest.test_case "shutdown idempotent" `Quick
            test_pool_shutdown_idempotent;
          Alcotest.test_case "lanes" `Quick test_pool_lanes;
          Alcotest.test_case "lanes errors" `Quick test_pool_lanes_errors;
        ] );
      ( "table_io",
        [
          Alcotest.test_case "atomic save" `Quick test_table_save_atomic;
          Alcotest.test_case "rejects non-finite" `Quick
            test_table_rejects_non_finite;
          Alcotest.test_case "rejects duplicates" `Quick
            test_table_rejects_duplicates;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "roundtrip" `Quick test_checkpoint_roundtrip;
          Alcotest.test_case "missing" `Quick test_checkpoint_missing;
          Alcotest.test_case "bad magic" `Quick test_checkpoint_bad_magic;
          Alcotest.test_case "version mismatch" `Quick
            test_checkpoint_version_mismatch;
          Alcotest.test_case "crc detects bit flip" `Quick
            test_checkpoint_crc_detects_flip;
          Alcotest.test_case "injected truncation" `Quick
            test_checkpoint_truncation_injected;
          Alcotest.test_case "decoder overrun" `Quick
            test_checkpoint_decoder_overrun;
        ] );
      ( "engine",
        [
          Alcotest.test_case "kill/resume bit-identical" `Slow
            test_resume_bit_identical;
          Alcotest.test_case "completed run reused" `Slow
            test_resume_completed_run;
          Alcotest.test_case "corrupt checkpoint restarts clean" `Slow
            test_corrupt_checkpoint_restarts_clean;
          Alcotest.test_case "nan gradient rollback" `Slow
            test_nan_gradient_rollback;
          Alcotest.test_case "divergence budget" `Slow
            test_divergence_budget_exhausted;
          Alcotest.test_case "no training blocks" `Quick
            test_no_training_blocks_fault;
          Alcotest.test_case "worker fault propagates" `Quick
            test_worker_fault_propagates;
        ] );
    ]
