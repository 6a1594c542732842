(** Dense float64 tensors backed by {!Bigarray.Array1} buffers with
    explicit shape/stride metadata.  Only the ranks the neural substrate
    needs: vectors and matrices.

    A tensor is a window into a flat [c_layout] buffer: element [(i, j)]
    lives at flat position [off + i * rs + j].  All tensors built by the
    constructors below are contiguous ([rs = cols]); {!sub} and
    {!row_view} return zero-copy views into the same buffer, which is how
    the autodiff layer carves per-node value/grad slots out of one shared
    arena.  All binary operations check shapes and raise
    [Invalid_argument] on mismatch. *)

type buf = (float, Bigarray.float64_elt, Bigarray.c_layout) Bigarray.Array1.t

type t = {
  data : buf;  (** backing buffer, possibly shared with other tensors *)
  off : int;   (** flat offset of element (0, 0) *)
  rs : int;    (** row stride; [cols] for contiguous tensors *)
  rows : int;
  cols : int;
}

(** Vectors are represented as [rows = 1] tensors. *)

val create : rows:int -> cols:int -> float -> t
val zeros : rows:int -> cols:int -> t

(** [vector data] copies a float array into a fresh 1 x n tensor. *)
val vector : float array -> t

(** [of_array ~rows ~cols data] copies a flat row-major array. *)
val of_array : rows:int -> cols:int -> float array -> t

(** [of_buf buf ~off ~rows ~cols] wraps (not copies) a contiguous window
    of an existing buffer. *)
val of_buf : buf -> off:int -> rows:int -> cols:int -> t

(** [scalar v] is a fresh 1 x 1 tensor holding [v]. *)
val scalar : float -> t

(** Deep copy into a fresh contiguous buffer. *)
val copy : t -> t

(** Contents as a fresh row-major float array. *)
val to_array : t -> float array

val size : t -> int
val same_shape : t -> t -> bool

(** [contiguous t] — whether flat indexing covers exactly the elements. *)
val contiguous : t -> bool

val get : t -> int -> int -> float
val set : t -> int -> int -> float -> unit

(** Flat (row-major) element access; the tensor must be contiguous. *)
val get1 : t -> int -> float

val set1 : t -> int -> float -> unit

(** Unchecked flat access for hot inner loops: no bounds or contiguity
    checks. *)
val unsafe_get1 : t -> int -> float

val unsafe_set1 : t -> int -> float -> unit

(* ---- zero-copy views ---- *)

(** [sub t ~pos ~len] — a 1 x len view of the contiguous flat range
    [pos, pos + len) of [t]'s elements (shares the buffer). *)
val sub : t -> pos:int -> len:int -> t

(** [row_view t i] — row [i] of a matrix as a 1 x cols view (shares the
    buffer). *)
val row_view : t -> int -> t

(* ---- in-place fills and copies ---- *)

(** In-place fill with zeros. *)
val zero_ : t -> unit

val fill : t -> float -> unit

(** [blit ~src ~dst] copies [src] into the same-shaped [dst]. *)
val blit : src:t -> dst:t -> unit

(** [blit_sub ~src ~spos ~dst ~dpos ~len] copies [len] flat elements from
    [src] starting at [spos] into [dst] starting at [dpos]. *)
val blit_sub : src:t -> spos:int -> dst:t -> dpos:int -> len:int -> unit

(** [randn rng ~rows ~cols ~sigma] — Gaussian initialization. *)
val randn : Dt_util.Rng.t -> rows:int -> cols:int -> sigma:float -> t

(* In-place kernels used by the autodiff layer.  The destination is the
   first argument. *)

(** [gemv ~m ~x ~y ~beta] computes [y <- m x + beta * y] for a vector [x]. *)
val gemv : m:t -> x:t -> y:t -> beta:float -> unit

(** [gemv_t ~m ~x ~y ~beta] computes [y <- m^T x + beta * y]. *)
val gemv_t : m:t -> x:t -> y:t -> beta:float -> unit

(** [ger ~m ~x ~y] computes the rank-1 update [m <- m + x y^T] where [x]
    indexes rows of [m]. *)
val ger : m:t -> x:t -> y:t -> unit

(** [axpy ~alpha ~x ~y] computes [y <- alpha * x + y]. *)
val axpy : alpha:float -> x:t -> y:t -> unit

(** [axpy_at ~alpha ~x ~y ~ypos] computes
    [y.(ypos + i) <- y.(ypos + i) + alpha * x.(i)] over all of [x] —
    scatter-accumulate into a flat window of [y]. *)
val axpy_at : alpha:float -> x:t -> y:t -> ypos:int -> unit

(** [axpy_from ~alpha ~x ~xpos ~len ~y] computes
    [y.(i) <- y.(i) + alpha * x.(xpos + i)] for [i < len] —
    gather-accumulate from a flat window of [x]. *)
val axpy_from : alpha:float -> x:t -> xpos:int -> len:int -> y:t -> unit

(** [add_ ~dst ~a ~b], [mul_ ~dst ~a ~b]: elementwise, any matching shapes. *)
val add_ : dst:t -> a:t -> b:t -> unit

val mul_ : dst:t -> a:t -> b:t -> unit

val scale_ : t -> float -> unit
val dot : t -> t -> float

(** Map into a fresh tensor / in place. *)
val map : (float -> float) -> t -> t

val map_ : (float -> float) -> t -> unit

val sum : t -> float
val to_string : t -> string

(* ---- debug poison (sanitize mode support) ---- *)

(** A quiet NaN with a recognizable bit payload.  The autodiff sanitizer
    fills recycled arena memory with it so use-before-write bugs trip a
    post-op scan instead of silently corrupting results. *)
val poison : float

(** [is_poison x] — bit-exact test against {!poison}.  Legitimate NaNs
    (injected faults, divergent arithmetic) have different payloads and
    do not match. *)
val is_poison : float -> bool

(** [fill_poison_buf b ~pos ~len] fills a raw buffer window with
    {!poison}; used by the autodiff arena on reset. *)
val fill_poison_buf : buf -> pos:int -> len:int -> unit

(** [find_poison t] — flat index of the first poisoned element, if any. *)
val find_poison : t -> int option
