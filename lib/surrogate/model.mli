(** The differentiable surrogate: a modified Ithemal (paper Figure 3).

    Architecture, following Mendis et al. with the paper's two changes:
    - a token-level stacked LSTM turns each instruction's canonicalized
      token embeddings into an instruction vector;
    - {b change 1}: both LSTMs are stacks (the paper uses 4; depth is a
      config knob and an ablation axis);
    - {b change 2}: the proposed simulator parameters are concatenated to
      each instruction vector (per-instruction parameters) and to every
      instruction (global parameters) before the instruction-level LSTM;
    - a fully connected head maps the block vector to a timing.

    With [with_params = false] the same network is exactly an Ithemal
    model — the paper's learned baseline — trained directly on ground
    truth. *)

type config = {
  embed_dim : int;
  token_hidden : int;
  instr_hidden : int;
  token_layers : int;
  instr_layers : int;
  with_params : bool;
  per_instr_params : int;  (** width of the per-instruction parameter vector *)
  global_params : int;     (** width of the global parameter vector *)
  feature_width : int;
      (** width of the differentiable analytic-bound vector; 0 selects the
          pure-LSTM (paper-architecture) surrogate, > 0 the
          physics-informed surrogate whose prediction is
          [max(bounds) * exp(correction)] with the correction produced by
          the network (see DESIGN.md on this scaled-compute
          substitution) *)
  head_hidden : int;
      (** hidden width of the prediction head; 0 = a single linear layer
          (the paper's fully connected layer), > 0 = a two-layer MLP *)
}

(** Paper-shaped configuration scaled for CPU training: 4-stack LSTMs,
    llvm-mca's 15 per-instruction + 2 global parameters. *)
val default_config : config

(** Ithemal-baseline configuration (no parameter inputs). *)
val ithemal_config : config

type t

val create : ?config:config -> Dt_util.Rng.t -> t
val config : t -> config
val store : t -> Dt_nn.Nn.Store.t

(** [clone t] — a model of [t]'s shape holding [t]'s parameter values,
    with its own gradients, scratch workspace and owner: training or
    predicting through the clone never touches [t].  Its store pairs
    with [t]'s under {!Dt_nn.Nn.Store.copy_values} and
    {!Dt_nn.Nn.Store.accum_grads}. *)
val clone : t -> t

(** Parameter inputs for one block: [per_instr.(i)] is the (normalized)
    parameter vector node for instruction [i]; [global] the global
    vector node.  Built from constants during surrogate training and from
    the learnable parameter-table leaves during parameter optimization. *)
type param_inputs = {
  per_instr : Dt_autodiff.Ad.node array;
  global : Dt_autodiff.Ad.node option;  (** [None] when [global_params = 0] *)
}

(** [predict t ctx block ~params ~features] — the predicted timing node.
    [params] must be [Some] iff the config has [with_params]; [features]
    must be [Some] (a [feature_width] vector node of analytic bounds) iff
    [feature_width > 0].  It is exactly
    [instr_stage t ctx (token_stage t ctx block) ~params ~features]. *)
val predict :
  t -> Dt_autodiff.Ad.ctx -> Dt_x86.Block.t -> params:param_inputs option ->
  features:Dt_autodiff.Ad.node option -> Dt_autodiff.Ad.node

(** The per-sequence forward runs in two stages, and the parameter
    inputs join only in the second, so the first stage's output for a
    block does not depend on them.

    [token_stage t ctx block] — the token stage: the token LSTM's final
    hidden state for each instruction of [block], in block order (one
    [token_hidden] vector node per instruction). *)
val token_stage :
  t -> Dt_autodiff.Ad.ctx -> Dt_x86.Block.t -> Dt_autodiff.Ad.node array

(** [instr_stage t ctx instr_h ~params ~features] — the instruction
    stage: the parameter inputs are appended to each vector of
    [instr_h], the instruction LSTM runs over them, and the head (with
    the analytic bounds, if any) gives the predicted timing node.
    [params] and [features] are checked as for {!predict}, with one
    per-instruction parameter vector per element of [instr_h].  Fed
    {!token_stage}'s values as {!Dt_autodiff.Ad.constant}s, it yields
    {!predict}'s value and its gradients into [params] and [features]
    bit for bit; gradients into the token LSTM and the embedding stop
    there.  A frozen surrogate's table descent uses this: it computes
    each block's token stage once and traces only this stage on every
    step. *)
val instr_stage :
  t -> Dt_autodiff.Ad.ctx -> Dt_autodiff.Ad.node array ->
  params:param_inputs option -> features:Dt_autodiff.Ad.node option ->
  Dt_autodiff.Ad.node

(* ---- batched path ---- *)

(** One element of a batched forward: the block plus the plain-float
    parameter and feature vectors the per-sequence path would have fed
    as constants.  (Parameter-table optimization, where gradients flow
    {e into} the parameters, runs the per-sequence path instead: its
    token stage once per block, then {!instr_stage} on every step.) *)
type batch_sample = {
  bblock : Dt_x86.Block.t;
  bparams : (float array array * float array) option;
      (** per-instruction rows and the global vector; [Some] iff the
          config has [with_params] *)
  bfeatures : float array option;
      (** analytic bounds; [Some] iff [feature_width > 0] *)
}

(** The power-of-two length bucket (at least 1) that the batched path
    packs a sequence of length [n] into. *)
val bucket_len : int -> int

(** [forward_batch t ctx samples] — predicted timings for B blocks as a
    [B x 1] node (row [i] is sample [i]).  Token and instruction
    sequences are packed into power-of-two length buckets so every LSTM
    timestep is one [B x hidden] gemm; padding masks make row [i]'s
    value bit-identical to {!predict} on sample [i] alone.  Does not
    reset [ctx]. *)
val forward_batch : t -> Dt_autodiff.Ad.ctx -> batch_sample array -> Dt_autodiff.Ad.node

(** [train_batch t ctx samples ~targets] resets [ctx], runs
    {!forward_batch}, sums the per-sample MAPE losses ([targets] must be
    positive) and runs backward, accumulating weight gradients — exactly
    the sum of the per-sequence gradients.  Returns the per-sample
    losses.  One domain at a time may train or predict through [t]; with
    [DIFFTUNE_RACECHECK=1] an overlap raises {!Dt_util.Sync.Race}. *)
val train_batch :
  t -> Dt_autodiff.Ad.ctx -> batch_sample array -> targets:float array ->
  float array

(** [predict_batch_value t samples] — gradient-free batched prediction
    on the interpreter, in the model's scratch workspace (one caller at
    a time, checked as for {!train_batch}).  A one-sample batch
    [[| s |]] is the scalar prediction: there is no other gradient-free
    forward, and row [i] is bit-identical to {!predict} on sample [i]
    alone. *)
val predict_batch_value : t -> batch_sample array -> float array
