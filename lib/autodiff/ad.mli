(** Reverse-mode automatic differentiation over {!Dt_tensor.Tensor}
    values.

    Define-by-run tape over a {e reusable workspace}: a context owns one
    growable float64 arena out of which every node's value and adjoint
    buffers are carved, plus a flat tape array of nodes.  Nodes carry an
    op tag and references to their operands instead of a captured
    closure; {!backward} walks the tape array in reverse and dispatches
    on the tag.  {!reset} rewinds the arena and tape so the next forward
    pass reuses the same memory — after the first few passes a training
    loop performs no per-sample buffer allocation at all.

    This is the machinery that makes the surrogate differentiable — and
    hence the whole point of DiffTune: gradients flow both into network
    weights (surrogate training, Eq. 2) and into the parameter-table
    inputs (simulator parameter optimization, Eq. 3).  It is the only
    executor: every trace, from a one-block descent step to a batched
    training step, runs on this interpreter, and an LSTM stack of any
    batch size is one {!lstm_batch} node. *)

type ctx
type node

(* ---- sanitize mode ----

   A debug mode (off by default) that turns silent workspace-corruption
   bugs into immediate exceptions.  Enabled by {!set_sanitize}[ true].
   When on:

   - every op validates operand shapes and raises {!Shape_error} with
     the op name and the offending shapes — including cases the fast
     path accepts silently (e.g. concatenating or slicing a matrix,
     which flattens it row-major);
   - every node carries a context/generation stamp; feeding a node
     created before the last {!reset} (or belonging to another context)
     to any op raises {!Use_after_reset} instead of silently reading
     recycled arena memory;
   - {!reset} fills the arena's high-water region with a recognizable
     quiet-NaN payload ({!Dt_tensor.Tensor.poison}) and every op scans
     its output for it, so reads of never-written workspace memory (the
     gemv beta-accumulate class) raise {!Uninitialized_read} at the op
     that performed them;
   - {!backward} runs a gradient-flow audit afterwards, recording tape
     nodes that cannot receive gradient from the loss (detached
     subgraphs); see {!last_flow_report}.

   Correct programs behave identically with sanitize on or off, just
   slower; see BENCH_PR25.json for the measured overhead. *)

exception Shape_error of string
exception Use_after_reset of string
exception Uninitialized_read of string

val set_sanitize : bool -> unit
val sanitize_enabled : unit -> bool

(** Result of a gradient-flow audit: [dead] tape nodes are recorded ops
    that gradient from the audited loss can never reach, aggregated per
    op name in [dead_ops] (sorted, deterministic). *)
type flow_report = {
  tape_nodes : int;
  live : int;
  dead : int;
  dead_ops : (string * int) list;
}

(** [flow_audit ctx root] audits reachability of every tape node from
    [root] through operand edges.  Pure reporting; never raises. *)
val flow_audit : ctx -> node -> flow_report

(** Report stored by the last {!backward} run with sanitize mode on;
    [None] before any such run or with sanitize off. *)
val last_flow_report : ctx -> flow_report option

val new_ctx : unit -> ctx

(** [reset ctx] rewinds the workspace: the tape empties and the arena's
    high-water mark returns to zero, retaining capacity.  Nodes created
    before the reset must no longer be used (their buffers will be
    overwritten by subsequent allocations).  Leaves are unaffected — they
    own external buffers. *)
val reset : ctx -> unit

(** Number of nodes currently on the tape (diagnostics). *)
val tape_size : ctx -> int

(** Current arena capacity in floats (diagnostics). *)
val arena_capacity : ctx -> int

val value : node -> Dt_tensor.Tensor.t
val grad : node -> Dt_tensor.Tensor.t

(** A scalar node's value (shape 1x1 or 1-element vector). *)
val scalar_value : node -> float

(** [leaf ~value ~grad] wraps a parameter tensor with an externally owned
    gradient buffer; adjoints accumulate into [grad] across backward
    passes until the optimizer clears it.  Leaves are not recorded on any
    tape and may be shared across contexts. *)
val leaf : value:Dt_tensor.Tensor.t -> grad:Dt_tensor.Tensor.t -> node

(** [constant ctx t] — input node; [t] is copied into the workspace and
    its gradient buffer is discarded at {!reset}. *)
val constant : ctx -> Dt_tensor.Tensor.t -> node

(** [scalar ctx v] — a 1x1 constant. *)
val scalar : ctx -> float -> node

(* ---- operations (all record onto the tape) ---- *)

(** [matvec ctx ~m ~x] — [m] (rows x cols) applied to vector [x]. *)
val matvec : ctx -> m:node -> x:node -> node

(** [row ctx ~m i] — row [i] of matrix [m] as a vector (embedding
    lookup; the value is a zero-copy view and the backward pass
    scatter-adds into row [i]). *)
val row : ctx -> m:node -> int -> node

val add : ctx -> node -> node -> node
val mul : ctx -> node -> node -> node
val concat : ctx -> node list -> node

(** [slice ctx v ~pos ~len] — contiguous sub-vector (zero-copy view). *)
val slice : ctx -> node -> pos:int -> len:int -> node

val sigmoid : ctx -> node -> node
val tanh_ : ctx -> node -> node
val relu : ctx -> node -> node

(** Elementwise exponential (clamped to exp(30) to avoid overflow). *)
val exp_ : ctx -> node -> node

(** [affine ctx v ~mul ~add] — elementwise [mul * x + add]. *)
val affine : ctx -> node -> mul:float -> add:float -> node

(** Elementwise maximum of two same-shape nodes (subgradient to the
    winner; ties favour the first argument). *)
val max2 : ctx -> node -> node -> node

(** Elementwise quotient [a / b]; [b] must be nonzero. *)
val div : ctx -> node -> node -> node

(** Sum of all elements, as a 1x1 node. *)
val sum_all : ctx -> node -> node

(** Maximum element, as a 1x1 node (subgradient to the argmax). *)
val reduce_max : ctx -> node -> node

(** Elementwise absolute value, with sign-function gradient (paper
    Section IV: lower-bounded parameters pass through |.| during
    parameter-table training). *)
val abs_ : ctx -> node -> node

val scale : ctx -> node -> float -> node

(** [mape ctx pred ~target] — scalar loss [|pred - target| / target].
    Requires [target > 0]. *)
val mape : ctx -> node -> target:float -> node

(* ---- batched (matmul-class) ops ----

   Matrix analogues of matvec / add / slice / concat / mape for the
   batched LSTM path: rows index sequences within a minibatch.  All of
   them carry the same sanitizer support as the vector ops (shape
   inference, context/generation stamps, post-op poison scan, flow
   audit), and both matmul gradient paths are expressed as gemm calls
   into existing gradient buffers (the beta-accumulate class; the
   [ad.gemm_beta] fault site reintroduces the fresh-slot-accumulate bug
   for the poison detector). *)

(** [matmul ctx ~x ~w] — [x w^T] with [x : B x k] and [w : n x k]
    ([w] laid out exactly as {!matvec}'s matrix, so the same weight leaf
    serves both paths).  Backward: [dX += dOut w], [dW += dOut^T x]. *)
val matmul : ctx -> x:node -> w:node -> node

(** [add_row ctx a ~bias] — broadcast-add a [1 x n] bias row to every
    row of [a].  Backward accumulates the bias gradient as ordered
    column sums (ascending row index, deterministic). *)
val add_row : ctx -> node -> bias:node -> node

(** [stack_rows ctx parts] — gather: output row [r] is row [i] of source
    [p] where [parts.(r) = (p, i)].  Sources may be leaves (embedding
    tables) or tape nodes; backward scatter-adds each output row's
    gradient into its source row. *)
val stack_rows : ctx -> (node * int) array -> node

(** [cols ctx v ~pos ~len] — copy of the column window
    [pos, pos + len) of every row (the batched analogue of {!slice};
    a copy rather than a view because rows are not contiguous). *)
val cols : ctx -> node -> pos:int -> len:int -> node

(** [concat_cols ctx parts] — horizontal concatenation of same-height
    blocks (the batched analogue of {!concat}). *)
val concat_cols : ctx -> node list -> node

(** [row_blend ctx ~mask a b] — row [i] of the result is row [i] of [a]
    where [mask.(i) <> 0.0] and of [b] otherwise; gradients flow only to
    the selected side.  This is how padded timesteps keep the previous
    LSTM state bit-for-bit: values are copied, never recomputed. *)
val row_blend : ctx -> mask:float array -> node -> node -> node

(** [mape_batch ctx pred ~targets] — per-row relative error
    [|pred_i - t_i| / t_i] as a [B x 1] node; sum it with {!sum_all} for
    a batch loss whose gradient equals the sum of per-sequence {!mape}
    losses.  Every target must be positive. *)
val mape_batch : ctx -> node -> targets:float array -> node

(** [lstm_batch ctx ~cells ~batch steps] — a stacked LSTM over [batch]
    right-padded sequences, recorded as one node whose value is the top
    layer's final [batch x hidden] state.  At [batch = 1] with no masks
    it is the per-sequence LSTM.  [cells.(l) = (wx, wh, b)] are
    layer [l]'s weights ([4h x input], [4h x h], [1 x 4h]; gates in
    [i f g o] order; every node distinct); each step is a
    [batch x input] node and an optional mask, where a row whose mask
    is 0 is padding and keeps its previous h and c.

    Values and gradients are bit for bit those of the per-step
    composition — per layer and step [matmul] x wx and h wh, [add],
    [add_row] b, four column slices through sigmoid/tanh,
    [f c + i g], [o tanh c'], and [row_blend]s (none for the final c) —
    but each weight is packed once per call, a step's elementwise work
    is one pass, and each weight gradient is summed in one pass after
    the reverse sweep.  Its forward gemms consult the [ad.gemm_beta]
    fault site; sanitize mode reports a malformed input width, mask
    length or batch as {!Shape_error}. *)
val lstm_batch :
  ctx ->
  cells:(node * node * node) array ->
  batch:int ->
  (node * float array option) list ->
  node

(** [backward ctx loss] seeds the loss adjoint with 1 and runs the tape in
    reverse, accumulating into every reachable gradient buffer. *)
val backward : ctx -> node -> unit

(** Counters of a compiled plan executor that no longer exists: every
    field always reads 0.  The record stays because the end-to-end
    benchmark's per-phase [ad.*] rows read these four fields, and only a
    change to that benchmark may drop them. *)
type plan_stats = {
  plans_compiled : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
}

val plan_stats : unit -> plan_stats
