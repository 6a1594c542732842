(** Matrix-matrix kernels for the batched compute path.

    All kernels follow the gemv family's conventions: shapes are
    checked up front ([Invalid_argument] on mismatch), strides ([rs])
    are honored on every operand, and [beta = 0.0] overwrites the
    destination without reading it, so the destination may be an
    uninitialized (or sanitize-poisoned) arena slot.  The destination
    must not alias either source.

    The inner loops are vectorized C stubs (gemm_stubs.c, built with
    [-ffp-contract=off] and no [-ffast-math]); shape checks, beta
    handling and scratch live here in OCaml.

    Bit-compatibility: every output element of {!gemm_nt} is reduced in
    exactly {!Tensor.gemv}'s order, and {!gemm} / {!gemm_tn} accumulate
    each destination row in exactly {!Tensor.gemv_t}'s order (including
    the skip rule for all-zero coefficient blocks); {!gemm_nt_packed}
    and {!gemm_tn_sum} keep those orders.  Vector lanes and
    register tiles span only independent output elements, so the
    batched LSTM forward is bit-identical per sequence to the
    per-sequence gemv path. *)

(** [gemm ~a ~b ~c ~beta] computes [c <- a b + beta * c] with
    [a : m x k], [b : k x n], [c : m x n]. *)
val gemm : a:Tensor.t -> b:Tensor.t -> c:Tensor.t -> beta:float -> unit

(** [gemm_tn ~a ~b ~c ~beta] computes [c <- a^T b + beta * c] with
    [a : k x m], [b : k x n], [c : m x n].  Reads [a] through its
    column stride; no packing pass (the streaming loops run over [b]
    and [c] rows, which are contiguous either way). *)
val gemm_tn : a:Tensor.t -> b:Tensor.t -> c:Tensor.t -> beta:float -> unit

(** [gemm_nt ~a ~b ~c ~beta] computes [c <- a b^T + beta * c] with
    [a : m x k], [b : n x k], [c : m x n].  Row [i] of the result equals
    [Tensor.gemv ~m:b ~x:(row i of a)] bit for bit. *)
val gemm_nt : a:Tensor.t -> b:Tensor.t -> c:Tensor.t -> beta:float -> unit

(** [gemm_tn_sum ~c ~terms] computes [c <- c + sum_t a_t^T b_t] over
    [terms = [| (a_0, b_0); ... |]], every [a_t : k x m] and
    [b_t : k x n], [c : m x n].  Bit for bit the same as one
    [gemm_tn ~a:a_t ~b:b_t ~c ~beta:1.0] call per term in array order:
    each element accumulates term after term in {!Tensor.gemv_t}'s
    order, but its running sum stays in a register across terms.  An
    empty [terms] leaves [c] untouched. *)
val gemm_tn_sum : c:Tensor.t -> terms:(Tensor.t * Tensor.t) array -> unit

(** [transpose_into ~src ~dst] writes [src^T] into [dst] ([dst] must be
    contiguous): the packed operand of {!gemm_nt_packed}. *)
val transpose_into : src:Tensor.t -> dst:Tensor.t -> unit

(** [gemm_nt_packed ~a ~bt ~c ~beta] is [gemm_nt ~a ~b ~c ~beta] with
    [b] already packed as [bt = b^T] ([k x n], contiguous) by
    {!transpose_into}: the same kernel, so the same bits, without the
    per-call transpose. *)
val gemm_nt_packed : a:Tensor.t -> bt:Tensor.t -> c:Tensor.t -> beta:float -> unit

(** [pack_buffer n] returns this domain's kernel scratch buffer, grown
    geometrically to at least [n] elements.  Exposed for tests. *)
val pack_buffer : int -> Tensor.buf
