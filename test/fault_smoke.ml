(* Fault-injection smoke driver for `make verify`.

   Runs a small checkpointed DiffTune pipeline with whatever faults
   DIFFTUNE_FAULTS arms (worker crashes, NaN gradients, checkpoint
   truncation, aborts at checkpoint boundaries), restarting against the
   same checkpoint directory whenever an injected abort escapes — the
   same recovery an operator would perform after a real crash.  The run
   must converge and its descent must move the table off the zero-pass
   table; when no numeric fault perturbed the trajectory, the result
   must be bit-identical to a clean, uncheckpointed run. *)

module Faultsim = Dt_util.Faultsim
module Fault = Dt_difftune.Fault
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Uarch = Dt_refcpu.Uarch

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let () =
  let faults = Option.value ~default:"" (Sys.getenv_opt "DIFFTUNE_FAULTS") in
  let domains = Option.value ~default:"" (Sys.getenv_opt "DIFFTUNE_DOMAINS") in
  Printf.printf "fault_smoke: faults=%S domains=%S\n%!" faults domains;
  let train =
    let c = Dt_bhive.Dataset.corpus ~seed:11 ~size:40 in
    let ds = Dt_bhive.Dataset.label c ~seed:2 ~uarch:Uarch.Haswell ~noise:0.0 in
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      (Dt_bhive.Dataset.all ds)
  in
  let spec = Spec.mca_write_latency Uarch.Haswell in
  (* Guided sampling: the pipeline under fault then exercises the
     stratify -> pilot fit -> adaptive allocation path too, so the
     [collect.pilot_crash] matrix cell (and pool/abort faults landing
     inside the pilot) hit real code.  [table_lr = 1.0]: at 0.05 one
     pass never moves a rounded entry, and the bit-identity check
     below would see only the surrogate loss. *)
  let cfg =
    {
      Engine.fast_config with
      seed = 7;
      sim_multiplier = 2;
      surrogate_passes = 0.5;
      table_lr = 1.0;
      table_passes = 1.0;
      sampling = Engine.Guided Dt_difftune.Strata.default;
    }
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_fault_smoke_%d" (Unix.getpid ()))
  in
  rm_rf dir;
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let rec drive attempts =
        if attempts > 200 then begin
          prerr_endline "fault_smoke: kill/resume loop did not terminate";
          exit 1
        end;
        match Engine.learn ~checkpoint_dir:dir cfg spec ~train with
        | r -> (r, attempts)
        | exception Faultsim.Injected site ->
            Printf.printf "fault_smoke: injected fault at %s; restarting\n%!"
              site;
            drive (attempts + 1)
      in
      let r, restarts = drive 0 in
      Printf.printf "fault_smoke: converged after %d restart(s); health: %s\n%!"
        restarts
        (Fault.health_summary r.health);
      if not (Float.is_finite r.surrogate_loss) then begin
        prerr_endline "fault_smoke: non-finite surrogate loss";
        exit 1
      end;
      Faultsim.clear ();
      let unmoved = Engine.learn { cfg with table_passes = 0.0 } spec ~train in
      if r.table = unmoved.table then begin
        prerr_endline "fault_smoke: learned table equals the zero-pass table";
        exit 1
      end;
      (* Aborts, worker crashes and torn checkpoints must not change the
         result; only a numeric fault (rollback + LR backoff) legitimately
         alters the trajectory. *)
      if r.health.nan_batches = 0 then begin
        let clean = Engine.learn cfg spec ~train in
        if r.table <> clean.table
           || not (Float.equal r.surrogate_loss clean.surrogate_loss)
        then begin
          prerr_endline "fault_smoke: result differs from a clean run";
          exit 1
        end;
        print_endline "fault_smoke: bit-identical to a clean run"
      end;
      print_endline "fault_smoke: ok")
