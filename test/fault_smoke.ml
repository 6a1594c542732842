(* Fault-injection matrix, run by `dune runtest`.

   Each cell runs a small checkpointed DiffTune pipeline with its faults
   armed (worker crashes, NaN gradients, checkpoint truncation, aborts
   at checkpoint boundaries, a crash mid-pilot), restarting against the
   cell's own checkpoint directory whenever an injected abort escapes —
   the same recovery an operator would perform after a real crash.
   Every armed fault must have been reached, the run must converge, and
   its descent must move the table off the zero-pass table; when no
   numeric fault perturbed the trajectory, the result must be
   bit-identical to a clean, uncheckpointed run.  A cell sets its domain
   count through DIFFTUNE_DOMAINS, as the engine tests do, and may arm
   the graph sanitizer. *)

module Faultsim = Dt_util.Faultsim
module Ad = Dt_autodiff.Ad
module Fault = Dt_difftune.Fault
module Spec = Dt_difftune.Spec
module Engine = Dt_difftune.Engine
module Uarch = Dt_refcpu.Uarch

type cell = {
  faults : (string * int) list; (* site, 1-based hit *)
  domains : int;
  sanitize : bool;
}

let combined = [ ("engine.abort", 2); ("grad.nan", 3) ]

(* Every site at one and four domains; then the combined spec with the
   graph sanitizer armed (poisoning and stamp checks must stay quiet on
   correct code while faults fire, and the bit-exact poison payload
   must not be confused with injected grad.nan values), and the
   combined spec at two domains with and without it. *)
let cells =
  List.concat_map
    (fun faults ->
      List.map (fun domains -> { faults; domains; sanitize = false }) [ 1; 4 ])
    [
      [ ("pool.worker", 2) ];
      [ ("grad.nan", 2) ];
      [ ("ckpt.truncate", 1) ];
      [ ("engine.abort", 2) ];
      [ ("collect.pilot_crash", 1) ];
      combined;
    ]
  @ [
      { faults = combined; domains = 4; sanitize = true };
      { faults = combined; domains = 2; sanitize = false };
      { faults = combined; domains = 2; sanitize = true };
    ]

let spec_of faults =
  String.concat ";" (List.map (fun (s, k) -> Printf.sprintf "%s@%d" s k) faults)

let name_of c =
  Printf.sprintf "faults=%s domains=%d%s" (spec_of c.faults) c.domains
    (if c.sanitize then " sanitize" else "")

exception Cell_failed of string

let fail fmt = Printf.ksprintf (fun s -> raise (Cell_failed s)) fmt

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let train =
  let c = Dt_bhive.Dataset.corpus ~seed:11 ~size:40 in
  let ds = Dt_bhive.Dataset.label c ~seed:2 ~uarch:Uarch.Haswell ~noise:0.0 in
  Array.map
    (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
    (Dt_bhive.Dataset.all ds)

let spec = Spec.mca_write_latency Uarch.Haswell

(* Guided sampling: the pipeline under fault then exercises the
   stratify -> pilot fit -> adaptive allocation path too, so the
   [collect.pilot_crash] cells (and pool/abort faults landing inside the
   pilot) hit real code.  [table_lr = 1.0]: at 0.05 one pass never moves
   a rounded entry, and the bit-identity check below would see only the
   surrogate loss. *)
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

let run_cell idx c =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dt_fault_smoke_%d_%d" (Unix.getpid ()) idx)
  in
  rm_rf dir;
  Testkit.with_domains c.domains @@ fun () ->
  Ad.set_sanitize c.sanitize;
  Fun.protect
    ~finally:(fun () ->
      Ad.set_sanitize false;
      Faultsim.clear ();
      rm_rf dir)
  @@ fun () ->
  Faultsim.configure (spec_of c.faults);
  let rec drive attempts =
    if attempts > 200 then fail "kill/resume loop did not terminate";
    match Engine.learn ~checkpoint_dir:dir cfg spec ~train with
    | r -> (r, attempts)
    | exception Faultsim.Injected site ->
        Printf.printf "fault_smoke: injected fault at %s; restarting\n%!" site;
        drive (attempts + 1)
  in
  let r, restarts = drive 0 in
  Printf.printf "fault_smoke: converged after %d restart(s); health: %s\n%!"
    restarts
    (Fault.health_summary r.health);
  (* A spec that never fires would pass every check below vacuously. *)
  List.iter
    (fun (site, k) ->
      let hits = Faultsim.hits site in
      if hits < k then fail "%s@%d never fired (%d hits)" site k hits)
    c.faults;
  if not (Float.is_finite r.surrogate_loss) then
    fail "non-finite surrogate loss";
  Faultsim.clear ();
  let unmoved = Engine.learn { cfg with table_passes = 0.0 } spec ~train in
  if r.table = unmoved.table then
    fail "learned table equals the zero-pass table";
  (* Aborts, worker crashes and torn checkpoints must not change the
     result; only a numeric fault (rollback + LR backoff) legitimately
     alters the trajectory. *)
  if r.health.nan_batches = 0 then begin
    let clean = Engine.learn cfg spec ~train in
    if
      r.table <> clean.table
      || not (Float.equal r.surrogate_loss clean.surrogate_loss)
    then fail "result differs from a clean run";
    print_endline "fault_smoke: bit-identical to a clean run"
  end

let () =
  let n = List.length cells in
  let failed =
    List.filteri
      (fun i c ->
        Printf.printf "== fault_smoke cell %d/%d: %s ==\n%!" (i + 1) n
          (name_of c);
        match run_cell i c with
        | () -> false
        | exception e ->
            let why =
              match e with Cell_failed why -> why | e -> Printexc.to_string e
            in
            Printf.printf "fault_smoke: FAIL %s: %s\n%!" (name_of c) why;
            true)
      cells
  in
  if failed <> [] then begin
    Printf.printf "fault_smoke: %d of %d cells failed:\n%s\n%!"
      (List.length failed) n
      (String.concat "\n" (List.map name_of failed));
    exit 1
  end;
  Printf.printf "fault_smoke: ok (%d cells)\n" n
