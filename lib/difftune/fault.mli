(** Structured faults and per-run health accounting for the training
    runtime.

    The DiffTune pipeline is a long multi-phase run; when something goes
    wrong mid-flight — a torn checkpoint, a NaN blow-up that survives
    every retry — callers need a value they can match on and report, not
    a bare [Failure] string.  All recoverable incidents (rollbacks,
    learning-rate backoffs, checkpoints ignored as corrupt) are counted
    in a {!health} record carried in [Engine.result] so an operator can
    see what a "successful" run survived. *)

(** Pipeline phase in which a fault occurred: one of DiffTune's three,
    or the fit of the Ithemal baseline. *)
type phase = Collect | Surrogate | Table | Ithemal

type t =
  | Checkpoint_missing of { path : string }
      (** No checkpoint file; resume has nothing to start from. *)
  | Checkpoint_corrupt of { path : string; reason : string }
      (** Bad magic, CRC mismatch, truncation, or undecodable payload. *)
  | Checkpoint_version of { path : string; found : int; expected : int }
      (** Well-formed file written by an incompatible format version. *)
  | Checkpoint_mismatch of { path : string; expected : string; found : string }
      (** Valid checkpoint, but for a different run configuration
          (fingerprint mismatch). *)
  | Numeric_divergence of {
      phase : phase;
      step : int;     (** step index of the offending minibatch *)
      retries : int;  (** rollback attempts consumed before giving up *)
      detail : string;
    }
      (** Non-finite or exploding loss/gradients that persisted through
          the bounded rollback + learning-rate-backoff budget. *)
  | No_training_blocks of { phase : phase; detail : string }
      (** Every candidate block was filtered out (e.g. by the length
          limit); training cannot proceed. *)
  | Request_malformed of { detail : string }
      (** Serving: the request line failed protocol decoding (missing
          id/verb, unknown verb, bad argument). *)
  | Block_unparsable of { line : int; col : int; detail : string }
      (** Serving: the submitted assembly failed
          [Dt_x86.Parser.block_result]; positions are relative to the
          submitted text. *)
  | Deadline_exceeded of { backend : string; cycle_budget : int }
      (** Serving: a predictor hit its per-request cycle budget
          ([Dt_mca.Pipeline.Budget_exceeded] mapped to a value). *)
  | Backend_unavailable of { backend : string; reason : string }
      (** Serving: a backend was skipped (open circuit breaker) or
          exhausted its retry budget. *)
  | All_backends_failed of { chain : (string * string) list }
      (** Serving: every backend in the degradation chain failed;
          [(backend, reason)] in chain order. *)
  | Service_overloaded of { capacity : int }
      (** Serving: the bounded admission queue was full; the request was
          shed, not queued. *)
  | Model_rejected of { version : int; reason : string }
      (** Lifecycle: a candidate surrogate model failed validation before
          hot-swap — corrupt/truncated registry file (CRC, reusing the
          {!Checkpoint} container), config mismatch, or a failed
          self-check forward pass.  The previous model keeps serving. *)
  | Retrain_failed of { version : int; detail : string }
      (** Lifecycle: background retraining toward model [version] died;
          serving continues on the current model and drift tracking
          restarts. *)
  | Lock_cycle of { chain : string list }
      (** Concurrency (racecheck on): acquiring a lock would
          close a cycle in the observed lock-acquisition order — a
          potential deadlock, reported before blocking.  [chain] is the
          lock-name path closing the cycle. *)
  | Race of { structure : string; first : string; second : string }
      (** Concurrency (racecheck on): a guarded structure was
          accessed without its lock / owner discipline; [first] and
          [second] name the two conflicting sites. *)

(** Carrier for {!t} values crossing code that predates [result] types. *)
exception Error of t

val phase_name : phase -> string
val to_string : t -> string

(** [error f] raises {!Error}. *)
val error : t -> 'a

(** Counters of recoverable incidents during one pipeline run.  Mutable
    on purpose: the hot loops bump them in place. *)
type health = {
  mutable nan_batches : int;
      (** minibatches rejected for non-finite or exploding loss/grads *)
  mutable rollbacks : int;
      (** restores of weights/optimizer to the last good snapshot *)
  mutable lr_backoffs : int;  (** learning-rate halvings after rollback *)
  mutable resumed_steps : int;
      (** optimizer steps skipped because a checkpoint already covered
          them *)
  mutable skipped_phases : int;
      (** whole phases satisfied by a completed-phase checkpoint *)
  mutable bad_checkpoints : int;
      (** checkpoints ignored as corrupt/mismatched (run restarted the
          affected phase from scratch) *)
}

val create_health : unit -> health

(** One-line human-readable summary ("clean" when all counters are 0). *)
val health_summary : health -> string
