(** Neural-network layers and optimizers over the autodiff substrate.

    Provides exactly what the Ithemal-style surrogate needs (paper
    Section IV): embedding lookup tables, stacked LSTMs, fully connected
    layers, and the Adam/SGD optimizers used to train both the surrogate
    and the parameter table. *)

module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad

(** A parameter store: named tensors with gradient buffers.  Layers
    register their weights here; optimizers walk the store. *)
module Store : sig
  type t

  val create : unit -> t

  (** [param store ~name tensor] registers a tensor and returns the leaf
      node sharing its gradient buffer. *)
  val param : t -> name:string -> T.t -> Ad.node

  val zero_grads : t -> unit

  (** Total parameter count. *)
  val size : t -> int

  (** Global gradient L2 norm (diagnostics / clipping). *)
  val grad_norm : t -> float

  (** [clip_grads store ~max_norm] rescales all gradients if the global
      norm exceeds [max_norm]. *)
  val clip_grads : t -> max_norm:float -> unit

  val iter : t -> (string -> value:T.t -> grad:T.t -> unit) -> unit

  (** [copy_values ~src ~dst] overwrites [dst]'s parameter values with
      [src]'s.  Both stores must have been built by the same construction
      path (same parameters in the same order); used to sync per-domain
      model replicas. *)
  val copy_values : src:t -> dst:t -> unit

  (** [accum_grads ~src ~dst] adds [src]'s gradients into [dst]'s.
      Reduction of per-domain replica gradients; same pairing rules as
      {!copy_values}. *)
  val accum_grads : src:t -> dst:t -> unit

  (** [copy_grads ~src ~dst] overwrites [dst]'s gradients with [src]'s,
      bit for bit; same pairing rules as {!copy_values}. *)
  val copy_grads : src:t -> dst:t -> unit

  (** Parameter values as [(name, rows, cols, row-major data)] in store
      order — the checkpoint serialization of a model.  Round-tripping
      through {!import_values} is bit-exact. *)
  val export_values : t -> (string * int * int * float array) list

  (** Overwrite this store's parameter values with an {!export_values}
      dump from an identically-constructed store.  Raises
      [Invalid_argument] on a name, shape, or count mismatch. *)
  val import_values : t -> (string * int * int * float array) list -> unit
end

(** Fully connected layer [y = W x + b]. *)
module Linear : sig
  type t

  val create : Store.t -> Dt_util.Rng.t -> name:string -> input:int -> output:int -> t
  val forward : t -> Ad.ctx -> Ad.node -> Ad.node

  (** [forward_batch t ctx x] applies the layer to every row of a
      [B x input] node; row [i] equals [forward] on row [i] bit for
      bit. *)
  val forward_batch : t -> Ad.ctx -> Ad.node -> Ad.node
end

(** Embedding lookup table: vocabulary of [count] vectors of size [dim]. *)
module Embedding : sig
  type t

  val create : Store.t -> Dt_util.Rng.t -> name:string -> count:int -> dim:int -> t
  val forward : t -> Ad.ctx -> int -> Ad.node

  (** [forward_batch t ctx indices] gathers the indexed rows into one
      [B x dim] node (a single tape op instead of B lookups). *)
  val forward_batch : t -> Ad.ctx -> int array -> Ad.node
end

(** A stack of LSTM layers processing a sequence of vector nodes and
    returning the top layer's final hidden state — the sequence
    summarizer used twice in the surrogate (token level and instruction
    level). *)
module Lstm : sig
  type t

  (** [create store rng ~name ~input ~hidden ~layers] — [layers] stacked
      cells; layer 0 consumes [input]-sized vectors, the rest consume
      [hidden]-sized ones. *)
  val create :
    Store.t -> Dt_util.Rng.t -> name:string -> input:int -> hidden:int ->
    layers:int -> t

  val hidden_size : t -> int

  (** [forward t ctx inputs] runs the stack over the sequence (empty
      input is invalid) and returns the final top hidden state. *)
  val forward : t -> Ad.ctx -> Ad.node list -> Ad.node

  (** [forward_batch t ctx ~batch inputs] runs the stack over B
      right-padded sequences at once.  Each list element is one
      timestep: a [batch x input] node whose row [i] is sequence [i]'s
      input at that step, plus an optional mask ([None] means all rows
      live).  Rows with mask 0 are padding: the previous h/c are carried
      through by copy, so each sequence's final state is bit-identical
      to {!forward} on that sequence alone, and padded rows contribute
      exactly zero gradient.  Padded input rows must still hold defined
      values (zeros).  Returns the top layer's final [batch x hidden]
      state; the whole stack is one {!Ad.lstm_batch} node. *)
  val forward_batch :
    t -> Ad.ctx -> batch:int -> (Ad.node * float array option) list -> Ad.node
end

(** Optimizers.  Gradients are expected to be *sums* over a minibatch;
    [step] divides by [batch] before updating and then clears them. *)
module Optimizer : sig
  type t

  val sgd : Store.t -> lr:float -> t
  val adam : Store.t -> lr:float -> t

  val step : t -> batch:int -> unit

  (** Change the learning rate (schedules). *)
  val set_lr : t -> float -> unit

  val get_lr : t -> float

  (** Optimizer state beyond the parameters themselves: the Adam
      timestep and first/second-moment estimates (empty for SGD), in
      store order.  Together with [Store.export_values] this is a
      complete mid-training snapshot: restoring both and replaying the
      same minibatches is bit-identical to never having stopped. *)
  type state = {
    algo_step : int;
    moments : (string * float array * float array) list;
  }

  val export_state : t -> state

  (** Restore an {!export_state} snapshot (no-op for SGD).  Raises
      [Invalid_argument] if a moment names an unknown parameter. *)
  val import_state : t -> state -> unit
end
