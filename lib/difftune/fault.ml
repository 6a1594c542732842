type phase = Collect | Surrogate | Table | Ithemal

type t =
  | Checkpoint_missing of { path : string }
  | Checkpoint_corrupt of { path : string; reason : string }
  | Checkpoint_version of { path : string; found : int; expected : int }
  | Checkpoint_mismatch of { path : string; expected : string; found : string }
  | Numeric_divergence of {
      phase : phase;
      step : int;
      retries : int;
      detail : string;
    }
  | No_training_blocks of { phase : phase; detail : string }
  (* ---- serving-side taxonomy (Dt_serve) ---- *)
  | Request_malformed of { detail : string }
  | Block_unparsable of { line : int; col : int; detail : string }
  | Deadline_exceeded of { backend : string; cycle_budget : int }
  | Backend_unavailable of { backend : string; reason : string }
  | All_backends_failed of { chain : (string * string) list }
  | Service_overloaded of { capacity : int }
  (* ---- surrogate-lifecycle taxonomy (Dt_serve.Lifecycle) ---- *)
  | Model_rejected of { version : int; reason : string }
  | Retrain_failed of { version : int; detail : string }
  (* ---- concurrency taxonomy (dt_race dynamic layer) ---- *)
  | Lock_cycle of { chain : string list }
  | Race of { structure : string; first : string; second : string }

exception Error of t

let phase_name = function
  | Collect -> "collect"
  | Surrogate -> "surrogate"
  | Table -> "table"
  | Ithemal -> "ithemal"

let to_string = function
  | Checkpoint_missing { path } -> Printf.sprintf "no checkpoint at %s" path
  | Checkpoint_corrupt { path; reason } ->
      Printf.sprintf "corrupt checkpoint %s: %s" path reason
  | Checkpoint_version { path; found; expected } ->
      Printf.sprintf "checkpoint %s has format version %d, expected %d" path
        found expected
  | Checkpoint_mismatch { path; expected; found } ->
      Printf.sprintf
        "checkpoint %s belongs to a different run (fingerprint %S, expected %S)"
        path found expected
  | Numeric_divergence { phase; step; retries; detail } ->
      Printf.sprintf
        "numeric divergence in %s phase at step %d (%s) after %d rollback \
         retries"
        (phase_name phase) step detail retries
  | No_training_blocks { phase; detail } ->
      Printf.sprintf "%s phase has no usable training blocks: %s"
        (phase_name phase) detail
  | Request_malformed { detail } -> Printf.sprintf "malformed request: %s" detail
  | Block_unparsable { line; col; detail } ->
      Printf.sprintf "unparsable block at line %d, column %d: %s" line col
        detail
  | Deadline_exceeded { backend; cycle_budget } ->
      Printf.sprintf "backend %s exceeded its %d-cycle budget" backend
        cycle_budget
  | Backend_unavailable { backend; reason } ->
      Printf.sprintf "backend %s unavailable: %s" backend reason
  | All_backends_failed { chain } ->
      Printf.sprintf "all backends failed: %s"
        (String.concat "; "
           (List.map (fun (b, r) -> Printf.sprintf "%s: %s" b r) chain))
  | Service_overloaded { capacity } ->
      Printf.sprintf "admission queue full (capacity %d)" capacity
  | Model_rejected { version; reason } ->
      Printf.sprintf "model v%d rejected before swap: %s" version reason
  | Retrain_failed { version; detail } ->
      Printf.sprintf "background retraining of model v%d failed: %s" version
        detail
  | Lock_cycle { chain } ->
      Printf.sprintf "lock-order cycle (potential deadlock): %s"
        (String.concat " -> " chain)
  | Race { structure; first; second } ->
      Printf.sprintf "unlocked concurrent access to %s (%s vs %s)" structure
        first second

let error t = raise (Error t)

let () =
  Printexc.register_printer (function
    | Error t -> Some ("Dt_difftune.Fault.Error: " ^ to_string t)
    | _ -> None)

type health = {
  mutable nan_batches : int;
  mutable rollbacks : int;
  mutable lr_backoffs : int;
  mutable resumed_steps : int;
  mutable skipped_phases : int;
  mutable bad_checkpoints : int;
}

let create_health () =
  {
    nan_batches = 0;
    rollbacks = 0;
    lr_backoffs = 0;
    resumed_steps = 0;
    skipped_phases = 0;
    bad_checkpoints = 0;
  }

let health_summary h =
  if
    h.nan_batches = 0 && h.rollbacks = 0 && h.lr_backoffs = 0
    && h.resumed_steps = 0 && h.skipped_phases = 0 && h.bad_checkpoints = 0
  then "clean"
  else
    Printf.sprintf
      "nan-batches %d, rollbacks %d, lr-backoffs %d, resumed-steps %d, \
       skipped-phases %d, bad-checkpoints %d"
      h.nan_batches h.rollbacks h.lr_backoffs h.resumed_steps h.skipped_phases
      h.bad_checkpoints
