(* Matrix-matrix kernels for the batched compute path.

   Shape checking, beta handling, and scratch management live here in
   OCaml; the inner kernels live in gemm_stubs.c, compiled with
   auto-vectorization enabled but floating-point contraction and
   reassociation disabled (-O3 -ffp-contract=off, no -ffast-math in
   lib/tensor/dune).  ocamlopt emits only scalar float code, which caps
   the pure-OCaml versions of these loops at roughly one multiply-add
   per cycle; the C kernels vectorize across *independent output
   elements*, multiplying throughput by the SIMD width without touching
   any single element's reduction order.

   Bit-compatibility contract, relied on by the batched LSTM oracle
   tests: for every output element, [gemm_nt] performs the reduction in
   exactly the order of [Tensor.gemv] (four independent accumulators
   over the inner dimension, tail into the first, tree-summed as
   (s0 + s1) + (s2 + s3)), and [gemm] / [gemm_tn] accumulate in exactly
   the order of [Tensor.gemv_t] (ascending inner index, four-wide
   blocks contributing a tree-summed term only when some coefficient in
   the block is nonzero -- the skip rule is observable when b holds
   infinities or NaNs -- then singles, each added only when its
   coefficient is nonzero).  Vector lanes only ever span independent
   output elements, so no result bit differs from the scalar reference
   the tests check against.

   The per-sequence gemv family in tensor.ml stays pure OCaml and
   serves as the oracle for all of this.

   The destination must not alias either source. *)

open Tensor

external acc_stub :
  buf ->
  int ->
  int ->
  buf ->
  int ->
  int ->
  int ->
  buf ->
  int ->
  int ->
  int ->
  int ->
  int ->
  unit = "caml_dt_gemm_acc_bc" "caml_dt_gemm_acc"
[@@noalloc]

external pack_stub : buf -> int -> int -> int -> int -> buf -> int -> unit
  = "caml_dt_pack_t_bc" "caml_dt_pack_t"
[@@noalloc]

external nt_packed_stub :
  buf ->
  int ->
  int ->
  buf ->
  int ->
  buf ->
  int ->
  int ->
  int ->
  int ->
  int ->
  float ->
  unit = "caml_dt_gemm_nt_packed_bc" "caml_dt_gemm_nt_packed"
[@@noalloc]

external tn_sum_stub :
  buf ->
  int ->
  int ->
  buf array ->
  int array ->
  buf array ->
  int array ->
  int ->
  int ->
  int ->
  unit = "caml_dt_gemm_tn_sum_bc" "caml_dt_gemm_tn_sum"
[@@noalloc]

let bad name = invalid_arg ("Gemm." ^ name ^ ": shape mismatch")

(* beta pre-scaling for the accumulate-style kernels, mirroring gemv_t:
   beta = 0 zero-fills without reading (the uninitialized-arena rule),
   beta = 1 leaves the destination as the accumulator. *)
let prescale c beta =
  if beta = 0.0 then
    for i = 0 to c.rows - 1 do
      let b = c.off + (i * c.rs) in
      for j = 0 to c.cols - 1 do
        Bigarray.Array1.unsafe_set c.data (b + j) 0.0
      done
    done
  else if beta <> 1.0 then
    for i = 0 to c.rows - 1 do
      let b = c.off + (i * c.rs) in
      for j = 0 to c.cols - 1 do
        Bigarray.Array1.unsafe_set c.data (b + j)
          (beta *. Bigarray.Array1.unsafe_get c.data (b + j))
      done
    done

(* Per-domain scratch for gemm_nt's transposed pack plus accumulator
   rows (training shards run kernels concurrently); grows geometrically
   so steady-state training never reallocates. *)

let pack_key =
  Domain.DLS.new_key (fun () ->
      ref (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0))

let pack_buffer n =
  let r = Domain.DLS.get pack_key in
  if Bigarray.Array1.dim !r < n then begin
    let cap = ref (max 256 (Bigarray.Array1.dim !r)) in
    while !cap < n do
      cap := !cap * 2
    done;
    r := Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout !cap
  end;
  !r

(* The acc kernel reads coefficient (i, l) at coefo + i*ci + l*cl, so
   the row-major (gemm) and transposed (gemm_tn) cases share it with no
   packing pass: the coefficient loads are four scalars per inner block
   regardless of stride, while the streaming j-loops run over b and c
   rows, which are contiguous in both cases. *)

let gemm ~a ~b ~c ~beta =
  if a.cols <> b.rows then bad "gemm (inner)";
  if c.rows <> a.rows || c.cols <> b.cols then bad "gemm (output)";
  prescale c beta;
  acc_stub c.data c.off c.rs a.data a.off a.rs 1 b.data b.off b.rs a.rows
    b.cols b.rows

let gemm_tn ~a ~b ~c ~beta =
  if a.rows <> b.rows then bad "gemm_tn (inner)";
  if c.rows <> a.cols || c.cols <> b.cols then bad "gemm_tn (output)";
  prescale c beta;
  acc_stub c.data c.off c.rs a.data a.off 1 a.rs b.data b.off b.rs a.cols
    b.cols a.rows

(* Multi-term gemm_tn: c += sum_t a_t^T b_t, each element accumulating
   the terms in array order exactly as one [gemm_tn ~beta:1.0] call per
   term would, with the running sums held in registers across terms. *)
let gemm_tn_sum ~c ~terms =
  let nt = Array.length terms in
  if nt > 0 then begin
    let k = (fst terms.(0)).rows in
    Array.iter
      (fun (a, b) ->
        if a.rows <> k || b.rows <> k then bad "gemm_tn_sum (inner)";
        if c.rows <> a.cols || c.cols <> b.cols then bad "gemm_tn_sum (output)")
      terms;
    let geo pick =
      Array.init (2 * nt) (fun i ->
          let t = pick terms.(i / 2) in
          if i land 1 = 0 then t.off else t.rs)
    in
    tn_sum_stub c.data c.off c.rs
      (Array.map (fun (a, _) -> a.data) terms)
      (geo fst)
      (Array.map (fun (_, b) -> b.data) terms)
      (geo snd) c.rows c.cols k
  end

(* gemm_nt streams over b^T; [transpose_into] packs it once for callers
   that multiply against the same b many times ([gemm_nt_packed]), and
   [gemm_nt] packs into this domain's scratch on every call. *)
let transpose_into ~src ~dst =
  if dst.rows <> src.cols || dst.cols <> src.rows then bad "transpose_into";
  if dst.rs <> dst.cols then bad "transpose_into (strided destination)";
  pack_stub src.data src.off src.rs src.rows src.cols dst.data dst.off

let gemm_nt_packed ~a ~bt ~c ~beta =
  if a.cols <> bt.rows then bad "gemm_nt_packed (inner)";
  if c.rows <> a.rows || c.cols <> bt.cols then bad "gemm_nt_packed (output)";
  if bt.rs <> bt.cols then bad "gemm_nt_packed (strided packed operand)";
  nt_packed_stub a.data a.off a.rs bt.data bt.off c.data c.off c.rs a.rows
    bt.cols a.cols beta

let gemm_nt ~a ~b ~c ~beta =
  if a.cols <> b.cols then bad "gemm_nt (inner)";
  if c.rows <> a.rows || c.cols <> b.rows then bad "gemm_nt (output)";
  let k = a.cols and m = a.rows and n = b.rows in
  let scratch = pack_buffer (k * n) in
  pack_stub b.data b.off b.rs n k scratch 0;
  nt_packed_stub a.data a.off a.rs scratch 0 c.data c.off c.rs m n k beta
