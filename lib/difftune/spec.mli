(** Parameter-space specification: the bridge between a concrete simulator
    (llvm-mca clone, llvm_sim clone) and the generic DiffTune engine.

    A spec fixes, for one learning task:
    - the {b layout}: [per_width] learnable values per opcode plus
      [global_width] global values, as a raw-valued {!table};
    - the {b constraints}: per-column lower bounds (all parameters are
      lower-bounded integers, Table II);
    - the {b sampling distribution} [D] used to draw tables for the
      simulated dataset (paper Section V-A);
    - the {b normalization} applied before values enter the surrogate
      (subtract the lower bound, then a per-column scale); and
    - the {b simulator} itself, [timing], which validates/rounds a raw
      table and runs the original non-differentiable program. *)

type table = {
  per : float array array;  (** [Opcode.count] rows of [per_width] raw values *)
  global : float array;     (** [global_width] raw values *)
}

type t = {
  name : string;
  per_width : int;
  global_width : int;
  per_lower : float array;
  global_lower : float array;
  per_upper : float array;   (** support of the sampling distribution —
                                 the region where the surrogate is
                                 trustworthy (Section VII) *)
  global_upper : float array;
  per_scale : float array;
  global_scale : float array;
  sample : Dt_util.Rng.t -> table;
  timing : table -> Dt_x86.Block.t -> float;
      (** [timing table] converts [table] to simulator parameters once
          and returns the simulator for it, so apply it to the table
          outside a loop over blocks.  It keeps the converted copy:
          later edits to [table] do not reach it. *)
  bounds :
    (Dt_autodiff.Ad.ctx ->
     Dt_x86.Block.t ->
     per:Dt_autodiff.Ad.node array ->
     global:Dt_autodiff.Ad.node option ->
     Dt_autodiff.Ad.node)
    option;
      (** Differentiable analytic throughput bounds (frontend, port
          pressure, dependency chain) computed from the {e normalized}
          parameter input nodes.  The physics-informed surrogate takes
          the bound vector as an extra input and predicts a learned
          multiplicative correction of its maximum; gradients flow to the
          parameter table through both paths.  This is the scaled-down
          substitute for the paper's 13.8M-sample Ithemal surrogate
          (see DESIGN.md); [None] falls back to the pure-LSTM surrogate. *)
}

(** Width of the bound vector produced by the [bounds] builders. *)
val n_bounds : int

val copy_table : table -> table

(** [round_table spec t] — extraction (paper Section IV): each value
    becomes [round |v - lb| + lb] … i.e. raw values are clamped to their
    bound and rounded to integers, in place of the relaxation. *)
val round_table : t -> table -> table

(** Normalized surrogate inputs for a block under a table:
    per-instruction vectors (one per instruction position, row of its
    opcode) and the global vector. *)
val normalize_block :
  t -> table -> Dt_x86.Block.t -> float array array * float array

(** [bound_values spec ctx block ~per ~global] — the [bounds] vector at
    constant normalized inputs (as from {!normalize_block}), read back
    as floats; [None] when the spec has no [bounds].  Resets and reuses
    [ctx] rather than allocating a context, so per-sample callers pass
    one they own. *)
val bound_values :
  t -> Dt_autodiff.Ad.ctx -> Dt_x86.Block.t -> per:float array array ->
  global:float array -> float array option

(** Flatten/unflatten to a single vector (for the black-box baseline).
    Layout: globals first, then per-opcode rows in opcode order. *)
val flatten : t -> table -> float array

val unflatten : t -> float array -> table

(** Flat-vector bounds for black-box search, mirroring Section V-C's
    search ranges. *)
val search_bounds : t -> float array * float array

(* ---- concrete specs ---- *)

(** Full llvm-mca parameter set (Table II): 15 per-instruction values
    [NumMicroOps, WriteLatency, ReadAdvance x3, PortMap x10] and 2 global
    [DispatchWidth, ReorderBufferSize]. *)
val mca_full : Dt_refcpu.Uarch.uarch -> t

(** Section VI-B ablation: learn only WriteLatency, keep every other
    parameter at its default value.  Sampling: WriteLatency ~ U{0..10}. *)
val mca_write_latency : Dt_refcpu.Uarch.uarch -> t

(** llvm_sim parameter set (Table VII): WriteLatency + PortMap (micro-op
    counts per port); no globals. *)
val usim_spec : Dt_refcpu.Uarch.uarch -> t

(** Boolean-parameter extension (paper Section VII): {!mca_full} plus a
    relaxed 0/1 flag per opcode marking it a dependency-breaking zero
    idiom.  Row layout: the 15 Table II values followed by the flag.
    The flag is sampled Bernoulli(0.3), passes to the surrogate as a
    float in [0,1], scales the zero-idiom chain latency by (1 - flag) in
    the analytic bounds, and is rounded to a boolean at extraction. *)
val mca_full_idioms : Dt_refcpu.Uarch.uarch -> t

(** Column index of the idiom flag in {!mca_full_idioms} rows. *)
val idiom_col : int

(** Conversions between the mca parameter record and the {!mca_full}
    table layout (used to compare default vs learned tables). *)
val mca_table_of_params : Dt_mca.Params.t -> table

val mca_params_of_table : table -> Dt_mca.Params.t
