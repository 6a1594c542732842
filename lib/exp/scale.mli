(** Experiment scale presets.

    The paper trains on 230k blocks with a V100 for hours; this
    reproduction runs on one CPU, so every experiment is parameterized by
    a scale.  [quick] regenerates every table and figure in tens of
    minutes; [full] uses larger corpora and training budgets.  The
    harnesses run [quick] unless given [--full] ([difftune_cli learn],
    [difftune_cli experiment], [bench/main.exe]). *)

type t = {
  name : string;
  corpus_size : int;
  noise : float;            (** measurement noise applied to labels *)
  engine : Dt_difftune.Engine.config;
  opentuner_parity : int;   (** block evaluations per training sample of
                                DiffTune's budget (Section V-C parity) *)
  seeds : int list;         (** independent DiffTune runs (paper: 3) *)
}

(** Tiny budgets for validating the harness code paths. *)
val smoke : t

val quick : t
val full : t
