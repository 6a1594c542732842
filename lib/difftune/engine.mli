(** The DiffTune algorithm (paper Section III, Figure 1):

    1. {!collect} a simulated dataset by sampling parameter tables from
       the spec's distribution and recording the original simulator's
       outputs (Equation for D̂);
    2. {!train_surrogate} — fit the differentiable surrogate to mimic
       the simulator over (θ, x) pairs (Equation 2);
    3. {!optimize_table} — freeze the surrogate, relax the table to
       floats, and run gradient descent on the table against the true
       measurements (Equation 3);
    4. extract integer parameters (abs + lower bound + round) and plug
       them back into the original simulator ({!Spec.round_table}).

    {!learn} runs the full pipeline.

    {2 Fault tolerance}

    Every phase accepts [?checkpoint_dir].  When given, phase state is
    periodically persisted through {!Checkpoint} (atomic rename +
    CRC-32), and a re-run with the same configuration resumes from the
    last installed checkpoint — skipping completed phases outright and
    re-entering an interrupted phase mid-epoch — with {e bit-identical}
    results to an uninterrupted run.  Checkpoints embed a fingerprint of
    the run configuration; stale or corrupt files are ignored (counted
    in {!Fault.health}) and the phase restarts cleanly.

    The two training loops also carry numeric-health guards: a
    minibatch producing non-finite or exploding losses/gradients is
    rejected, the weights/optimizer roll back to the last good
    in-memory snapshot, and the learning rate is halved — at most a
    bounded number of times before the run fails with
    [Fault.Error (Numeric_divergence _)].  All incidents are counted in
    the {!Fault.health} record returned in {!result}. *)

module Model = Dt_surrogate.Model

(** How {!collect} spends its simulation budget.  [Uniform] draws
    (θ, x) i.i.d. (the paper's scheme).  [Guided] is Turaco-style
    complexity-guided collection (DESIGN.md §6j): stratify the corpus
    with {!Strata.stratify}, estimate per-stratum learning complexity
    from short pilot fits on a uniform pilot prefix, then spend the
    rest of the {e same} budget via {!Sampler.allocate} — complex
    strata get more fresh samples, cheap strata re-draw from small
    table pools that resolve through the simcache.  Either way the
    dataset is bit-identical across [DIFFTUNE_DOMAINS] and resumes.
    The [DIFFTUNE_SAMPLING=uniform|guided] environment variable
    overrides the config at {!collect} time. *)
type sampling = Uniform | Guided of Strata.config

type config = {
  seed : int;
  sim_multiplier : int;      (** simulated dataset size = this x |train| *)
  surrogate_passes : float;  (** epochs over the simulated dataset *)
  surrogate_lr : float;      (** paper: 0.001 (Adam) *)
  table_lr : float;          (** paper: 0.05 (Adam) *)
  table_passes : float;      (** paper: 1 epoch *)
  batch : int;               (** paper: 256 *)
  table_batch : int;
      (** minibatch for the parameter-table phase; smaller than [batch]
          so small corpora still yield enough optimizer updates *)
  embed_dim : int;
  token_hidden : int;
  instr_hidden : int;
  token_layers : int;        (** paper: 4 *)
  instr_layers : int;
  max_train_block_len : int; (** skip longer blocks during training *)
  grad_clip : float;
  use_analytic : bool;
      (** physics-informed surrogate (differentiable analytic bounds +
          learned correction) instead of the pure-LSTM surrogate; see
          {!Spec.t.bounds} and DESIGN.md *)
  head_hidden : int;  (** hidden width of the prediction head (0 = linear) *)
  sampling : sampling;       (** data-collection strategy for {!collect} *)
  simcache_capacity : int;
      (** LRU capacity of the simulation memo cache used during
          {!collect} *)
  log : string -> unit;
}

(** Paper-shaped hyperparameters at CPU scale. *)
val default_config : config

(** Small, fast settings for tests. *)
val fast_config : config

type sim_sample = {
  block_idx : int;
  per : float array array;   (** normalized per-instruction inputs *)
  global : float array;      (** normalized global inputs *)
  target : float;            (** simulator output under the sampled table *)
}

(** The sampling strategy {!collect} will actually use: [config.sampling]
    unless [DIFFTUNE_SAMPLING] overrides it. *)
val effective_sampling : config -> sampling

(** Fingerprint tag of a strategy ([uniform] or [guided:<digest>]);
    part of the dataset checkpoint fingerprint, so switching strategies
    can never silently resume the other strategy's dataset. *)
val sampling_tag : sampling -> string

(** [collect config spec blocks] builds the simulated dataset under
    {!effective_sampling}: per sample, a table from [spec.sample] and a
    block drawn from [blocks] (uniformly, or per the guided
    allocation).  With [?checkpoint_dir] the dataset is persisted after
    collection and restored wholesale on a matching re-run; guided
    collection additionally checkpoints the pilot phase (samples +
    complexity scores), so a run killed mid-pilot — the
    [collect.pilot_crash] fault site — resumes bit-identically.  Raises
    [Fault.Error (No_training_blocks _)] when every block exceeds
    [max_train_block_len]. *)
val collect :
  ?checkpoint_dir:string ->
  ?health:Fault.health ->
  config -> Spec.t -> Dt_x86.Block.t array -> sim_sample array

(** [make_model config spec rng] builds a surrogate sized for the spec. *)
val make_model : config -> Spec.t -> Dt_util.Rng.t -> Model.t

(** [train_surrogate config spec model data blocks] — SGD/Adam over the
    simulated dataset; returns the final average training loss.  Each
    shard trains on length-bucketed minibatches through the batched
    surrogate path ({!Model.train_batch}); work is still split into a
    fixed number of shards reduced in shard order, so results are
    bit-identical whatever [DIFFTUNE_DOMAINS] says.  With
    [?checkpoint_dir] the phase checkpoints periodically and resumes
    mid-epoch; numeric-health incidents are counted in [?health]. *)
val train_surrogate :
  ?checkpoint_dir:string ->
  ?health:Fault.health ->
  config -> Spec.t -> Model.t -> sim_sample array -> Dt_x86.Block.t array ->
  float

(** [optimize_table config spec model ~train] — frozen-surrogate gradient
    descent on the table; returns the extracted (rounded, bounded) raw
    table.  [?init] warm-starts from an existing raw table instead of a
    random draw (iterative refinement).  [?valid] enables
    validation-gated extraction: the integer table is snapshotted
    periodically and the snapshot with the lowest {e true-simulator}
    error on the validation blocks is returned (capped at 256 blocks;
    the validation split is the one the paper reserves for development
    decisions).

    Each minibatch is split into the same fixed shards as
    {!train_surrogate}.  Every pool lane keeps one surrogate replica,
    autodiff context and 64-plan cache, and runs whichever shards it
    takes; a shard's theta gradients go to that shard's own slot, and
    the slots are summed in shard order.  The table is therefore
    bit-identical whatever [DIFFTUNE_DOMAINS] says, and a block that
    recurs on a lane is recorded twice, sealed once and replayed from
    then on. *)
val optimize_table :
  ?init:Spec.table ->
  ?valid:(Dt_x86.Block.t * float) array ->
  ?checkpoint_dir:string ->
  ?health:Fault.health ->
  config -> Spec.t -> Model.t -> train:(Dt_x86.Block.t * float) array ->
  Spec.table

type result = {
  table : Spec.table;     (** extracted parameters, pluggable into [spec.timing] *)
  model : Model.t;        (** the trained surrogate *)
  surrogate_loss : float; (** final surrogate training loss *)
  health : Fault.health;  (** recoverable incidents survived by the run *)
}

val learn :
  ?valid:(Dt_x86.Block.t * float) array ->
  ?checkpoint_dir:string ->
  config -> Spec.t -> train:(Dt_x86.Block.t * float) array -> result

(** Iterative local refinement (paper Section VII, after Shirobokov et
    al. [16]): alternates re-collecting the simulated dataset in a
    shrinking neighbourhood of the current parameter estimate with
    continued surrogate training and warm-started parameter descent.
    Removes the reliance on a well-chosen global sampling distribution.
    With [?checkpoint_dir], each round checkpoints into its own
    [round<k>] subdirectory, so a killed run resumes inside the round it
    was interrupted in. *)
val learn_iterative :
  ?valid:(Dt_x86.Block.t * float) array ->
  ?checkpoint_dir:string ->
  config -> ?rounds:int -> Spec.t -> train:(Dt_x86.Block.t * float) array ->
  result

(** Static per-block analytic features from a spec's bound builder
    evaluated at a fixed [reference] table (e.g. the defaults) — a
    convenient feature function for {!train_ithemal}. *)
val spec_features :
  Spec.t -> reference:Spec.table -> Dt_x86.Block.t -> float array

(** The Ithemal baseline (paper Table IV): the same network with no
    parameter inputs, trained directly on ground-truth measurements.  For
    compute parity with the physics-informed surrogate it may receive
    static analytic features per block (e.g. {!spec_features}, or the
    IACA bound decomposition); pass [None] for the pure paper
    architecture. *)
val train_ithemal :
  config -> features:(Dt_x86.Block.t -> float array) option ->
  train:(Dt_x86.Block.t * float) list -> Model.t

(** [retrain_ithemal config ~features ~init ~train] — continual
    retraining for the serving lifecycle: fine-tunes a {e clone} of
    [init] (never [init] itself, which may be live in a degradation
    chain) on freshly collected traffic, reusing the same fitting loop
    (and compiled-plan replay) as {!train_ithemal}.  [train] is
    typically the lifecycle's shadow-score reservoir — (block,
    reference-simulator timing) pairs harvested from live requests, the
    Turaco-style reuse of traffic as training data.  The optimization
    budget follows [config] ([surrogate_passes] x [sim_multiplier] x
    usable blocks), so callers shrink [surrogate_passes] for cheap
    incremental refreshes.  Under {!Guided} sampling (or
    [DIFFTUNE_SAMPLING=guided]) the first epoch stays uniform and the
    remaining step budget is reallocated across strata by observed
    loss — the same {!Sampler.allocate} rule as guided collection.
    Raises [Invalid_argument] when every block exceeds
    [max_train_block_len]. *)
val retrain_ithemal :
  config -> features:(Dt_x86.Block.t -> float array) option ->
  init:Model.t -> train:(Dt_x86.Block.t * float) list -> Model.t

(** Prediction with a model produced by {!train_ithemal}; [features] must
    be the same function used at training time. *)
val ithemal_predict :
  features:(Dt_x86.Block.t -> float array) option -> Model.t ->
  Dt_x86.Block.t -> float

(** Batched {!ithemal_predict}: one {!Model.predict_batch_value} call
    over all blocks (each block's prediction is bit-identical to the
    scalar path).  Not thread-safe — uses the model's scratch
    workspace. *)
val ithemal_predict_batch :
  features:(Dt_x86.Block.t -> float array) option -> Model.t ->
  Dt_x86.Block.t array -> float array
