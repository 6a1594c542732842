/* Inner kernels for the batched gemm family (lib/tensor/gemm.ml).
 *
 * Why C: ocamlopt emits scalar float code only, which caps the OCaml
 * kernels at roughly one multiply-add per cycle; these loops vectorize
 * across *independent output elements*, multiplying throughput by the
 * SIMD width without touching any individual element's reduction order.
 *
 * Bit-compatibility contract (mirrors gemm.ml / the gemv family):
 *   - every output element's floating-point operation sequence is
 *     exactly the one the documented OCaml reference performs — same
 *     products, same tree shape, same ascending inner order, same
 *     skip rule for all-zero coefficient blocks;
 *   - the build must NOT fuse multiply-adds or reassociate: compiled
 *     with -ffp-contract=off and without -ffast-math (see lib/tensor/
 *     dune).  Vector lanes and the W-wide register tiles below only
 *     group independent output elements, which cannot change any
 *     lane's result.
 *
 * Structure shared by the gemm kernels: output columns are processed in
 * chunks of W = 16, each chunk's running sums held in fixed-size
 * locals for the entire inner reduction.  The chunk bodies take the
 * chunk width as a compile-time constant so gcc fully unrolls the
 * lane loops and keeps the accumulators in vector registers — with a
 * runtime-variable width they spill to the stack and the kernel
 * becomes store-bound at scalar speed.  The sub-W trailing chunk runs
 * the same per-element order through the variable-width fallback.
 *
 * Every stub is [@@noalloc]: none allocates, raises, or calls back into
 * the runtime, and all operands are float64 c_layout Bigarrays.
 */

#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define W 16

/* One W-or-narrower chunk of destination row cr[jb .. jb+w): the acc
 * (gemv_t-order) accumulation c[j] += sum_l coef(l) * b[l][j] with the
 * all-zero-block / zero-single skip rule.  Coefficient l is read at
 * xr[l * cl]. */
static inline void acc_chunk(double *restrict cr, const double *xr, long cl,
                             const double *b, long boff, long brs, long k,
                             long w)
{
  double t[W];
  long l, u;
  for (u = 0; u < w; u++)
    t[u] = cr[u];
  for (l = 0; l + 4 <= k; l += 4) {
    double x0 = xr[l * cl];
    double x1 = xr[(l + 1) * cl];
    double x2 = xr[(l + 2) * cl];
    double x3 = xr[(l + 3) * cl];
    if (x0 != 0.0 || x1 != 0.0 || x2 != 0.0 || x3 != 0.0) {
      const double *restrict b0 = b + boff + l * brs;
      const double *restrict b1 = b0 + brs;
      const double *restrict b2 = b0 + 2 * brs;
      const double *restrict b3 = b0 + 3 * brs;
      for (u = 0; u < w; u++)
        t[u] += ((x0 * b0[u]) + (x1 * b1[u])) + ((x2 * b2[u]) + (x3 * b3[u]));
    }
  }
  for (; l < k; l++) {
    double xi = xr[l * cl];
    if (xi != 0.0) {
      const double *restrict bb = b + boff + l * brs;
      for (u = 0; u < w; u++)
        t[u] += xi * bb[u];
    }
  }
  for (u = 0; u < w; u++)
    cr[u] = t[u];
}

/* c[i, 0..n) += sum_l coef(i, l) * b[l, 0..n), with coef(i, l) read at
 * coefo + i*ci + l*cl so the same kernel serves gemm (row-major
 * coefficients: ci = a.rs, cl = 1) and gemm_tn (transposed
 * coefficients: ci = 1, cl = a.rs) without a packing pass. */
CAMLprim value caml_dt_gemm_acc(value vc, value vco, value vcrs, value vcoef,
                                value vcoefo, value vci, value vcl, value vb,
                                value vbo, value vbrs, value vm, value vn,
                                value vk)
{
  double *c = (double *)Caml_ba_data_val(vc);
  const double *coef = (const double *)Caml_ba_data_val(vcoef);
  const double *b = (const double *)Caml_ba_data_val(vb);
  long co = Long_val(vco), crs = Long_val(vcrs);
  long coefo = Long_val(vcoefo), ci = Long_val(vci), cl = Long_val(vcl);
  long bo = Long_val(vbo), brs = Long_val(vbrs);
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  long nW = n - (n % W);
  long i, jb;

  for (i = 0; i < m; i++) {
    double *cr = c + co + i * crs;
    const double *xr = coef + coefo + i * ci;
    for (jb = 0; jb < nW; jb += W)
      acc_chunk(cr + jb, xr, cl, b, bo + jb, brs, k, W);
    if (nW < n)
      acc_chunk(cr + nW, xr, cl, b, bo + nW, brs, k, n - nW);
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemm_acc_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemm_acc(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                          argv[6], argv[7], argv[8], argv[9], argv[10],
                          argv[11], argv[12]);
}

/* One chunk of a gemm_nt destination row: each of the w output columns
 * keeps its own four partial sums over the packed transpose bt —
 * independent instances of gemv's four-accumulator pattern (ascending
 * blocks, trailing singles into the first accumulator, final tree
 * (s0 + s1) + (s2 + s3), gemv's beta rule). */
static inline void nt_chunk(const double *ar, const double *bt, long n,
                            long k, double *restrict cr, double beta, long w)
{
  double t0[W], t1[W], t2[W], t3[W];
  long l, u;
  for (u = 0; u < w; u++)
    t0[u] = t1[u] = t2[u] = t3[u] = 0.0;
  for (l = 0; l + 4 <= k; l += 4) {
    double a0 = ar[l], a1 = ar[l + 1], a2 = ar[l + 2], a3 = ar[l + 3];
    const double *restrict b0 = bt + l * n;
    const double *restrict b1 = b0 + n;
    const double *restrict b2 = b1 + n;
    const double *restrict b3 = b2 + n;
    for (u = 0; u < w; u++) {
      t0[u] += a0 * b0[u];
      t1[u] += a1 * b1[u];
      t2[u] += a2 * b2[u];
      t3[u] += a3 * b3[u];
    }
  }
  for (; l < k; l++) {
    double av = ar[l];
    const double *restrict bb = bt + l * n;
    for (u = 0; u < w; u++)
      t0[u] += av * bb[u];
  }
  if (beta == 0.0)
    for (u = 0; u < w; u++)
      cr[u] = (t0[u] + t1[u]) + (t2[u] + t3[u]);
  else
    for (u = 0; u < w; u++)
      cr[u] = ((t0[u] + t1[u]) + (t2[u] + t3[u])) + (beta * cr[u]);
}

/* bt[l * n + j] = b[j][l] for b : n x k (row stride brs): the transpose
 * gemm_nt's chunks stream over contiguously in j.  A caller that runs
 * several products against one b packs it once. */
CAMLprim value caml_dt_pack_t(value vb, value vbo, value vbrs, value vn,
                              value vk, value vbt, value vbto)
{
  const double *b = (const double *)Caml_ba_data_val(vb);
  double *bt = (double *)Caml_ba_data_val(vbt) + Long_val(vbto);
  long bo = Long_val(vbo), brs = Long_val(vbrs);
  long n = Long_val(vn), k = Long_val(vk);
  long j, l;

  for (j = 0; j < n; j++) {
    const double *br = b + bo + j * brs;
    for (l = 0; l < k; l++)
      bt[l * n + j] = br[l];
  }
  return Val_unit;
}

CAMLprim value caml_dt_pack_t_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_pack_t(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6]);
}

/* c = a b^T + beta * c over b already packed as bt (k x n, row stride
 * n) by caml_dt_pack_t. */
CAMLprim value caml_dt_gemm_nt_packed(value va, value vao, value vars,
                                      value vbt, value vbto, value vc,
                                      value vco, value vcrs, value vm,
                                      value vn, value vk, value vbeta)
{
  const double *a = (const double *)Caml_ba_data_val(va);
  const double *bt = (const double *)Caml_ba_data_val(vbt) + Long_val(vbto);
  double *c = (double *)Caml_ba_data_val(vc);
  long ao = Long_val(vao), ars = Long_val(vars);
  long co = Long_val(vco), crs = Long_val(vcrs);
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  double beta = Double_val(vbeta);
  long nW = n - (n % W);
  long i, jb;

  for (i = 0; i < m; i++) {
    const double *ar = a + ao + i * ars;
    double *cr = c + co + i * crs;
    for (jb = 0; jb < nW; jb += W)
      nt_chunk(ar, bt + jb, n, k, cr + jb, beta, W);
    if (nW < n)
      nt_chunk(ar, bt + nW, n, k, cr + nW, beta, n - nW);
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemm_nt_packed_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemm_nt_packed(argv[0], argv[1], argv[2], argv[3], argv[4],
                                argv[5], argv[6], argv[7], argv[8], argv[9],
                                argv[10], argv[11]);
}

/* ---- multi-term gemm_tn ----
 *
 * c += sum_t a_t^T b_t, every a_t : k x m and b_t : k x n, applied term
 * by term: each element sees exactly the operation sequence of one
 * caml_dt_gemm_acc (gemm_tn layout) call per term in array order --
 * acc_chunk's blocks of four with the zero-skip rule, then singles.
 * Only the loads and stores between terms go: a full W-wide chunk keeps
 * its running sums in four 4-wide vector registers across all terms
 * (an array of accumulators spills to the stack instead).  Lanes span
 * independent output columns, so no element's order changes; the sub-W
 * tail chunk runs acc_chunk once per term.
 */

typedef double v4d __attribute__((vector_size(32)));

static inline v4d ld4(const double *p)
{
  v4d v;
  __builtin_memcpy(&v, p, sizeof v);
  return v;
}

static inline void st4(double *p, v4d v) { __builtin_memcpy(p, &v, sizeof v); }

static inline v4d splat(double x) { return (v4d){x, x, x, x}; }

/* One W = 16 chunk of destination row cr across every term: term t's
 * coefficient for inner index l is xs[t][l * cls[t]], its b rows start
 * at bs[t] with stride brss[t]. */
static inline void tn_sum_chunk(double *restrict cr, long nt,
                                const double *const *xs, const long *cls,
                                const double *const *bs, const long *brss,
                                long k)
{
  v4d s0 = ld4(cr), s1 = ld4(cr + 4), s2 = ld4(cr + 8), s3 = ld4(cr + 12);
  long t, l;
  for (t = 0; t < nt; t++) {
    const double *xr = xs[t];
    const double *b = bs[t];
    long cl = cls[t], brs = brss[t];
    for (l = 0; l + 4 <= k; l += 4) {
      double x0 = xr[l * cl];
      double x1 = xr[(l + 1) * cl];
      double x2 = xr[(l + 2) * cl];
      double x3 = xr[(l + 3) * cl];
      if (x0 != 0.0 || x1 != 0.0 || x2 != 0.0 || x3 != 0.0) {
        const double *b0 = b + l * brs;
        const double *b1 = b0 + brs;
        const double *b2 = b0 + 2 * brs;
        const double *b3 = b0 + 3 * brs;
        v4d v0 = splat(x0), v1 = splat(x1), v2 = splat(x2), v3 = splat(x3);
        s0 += ((v0 * ld4(b0)) + (v1 * ld4(b1))) +
              ((v2 * ld4(b2)) + (v3 * ld4(b3)));
        s1 += ((v0 * ld4(b0 + 4)) + (v1 * ld4(b1 + 4))) +
              ((v2 * ld4(b2 + 4)) + (v3 * ld4(b3 + 4)));
        s2 += ((v0 * ld4(b0 + 8)) + (v1 * ld4(b1 + 8))) +
              ((v2 * ld4(b2 + 8)) + (v3 * ld4(b3 + 8)));
        s3 += ((v0 * ld4(b0 + 12)) + (v1 * ld4(b1 + 12))) +
              ((v2 * ld4(b2 + 12)) + (v3 * ld4(b3 + 12)));
      }
    }
    for (; l < k; l++) {
      double xi = xr[l * cl];
      if (xi != 0.0) {
        const double *bb = b + l * brs;
        v4d vi = splat(xi);
        s0 += vi * ld4(bb);
        s1 += vi * ld4(bb + 4);
        s2 += vi * ld4(bb + 8);
        s3 += vi * ld4(bb + 12);
      }
    }
  }
  st4(cr, s0);
  st4(cr + 4, s1);
  st4(cr + 8, s2);
  st4(cr + 12, s3);
}

/* vabufs / vbbufs: one Bigarray per term; vageo / vbgeo: (offset, row
 * stride) per term, flattened. */
CAMLprim value caml_dt_gemm_tn_sum(value vc, value vco, value vcrs,
                                   value vabufs, value vageo, value vbbufs,
                                   value vbgeo, value vm, value vn, value vk)
{
  double *c = (double *)Caml_ba_data_val(vc);
  long co = Long_val(vco), crs = Long_val(vcrs);
  long m = Long_val(vm), n = Long_val(vn), k = Long_val(vk);
  long nt = Wosize_val(vabufs);
  long nW = n - (n % W);
  long i, jb, t;

  if (nt == 0)
    return Val_unit;
  const double *as[nt], *bs[nt], *xs[nt], *bj[nt];
  long cls[nt], brss[nt];
  for (t = 0; t < nt; t++) {
    as[t] = (const double *)Caml_ba_data_val(Field(vabufs, t)) +
            Long_val(Field(vageo, 2 * t));
    cls[t] = Long_val(Field(vageo, 2 * t + 1));
    bs[t] = (const double *)Caml_ba_data_val(Field(vbbufs, t)) +
            Long_val(Field(vbgeo, 2 * t));
    brss[t] = Long_val(Field(vbgeo, 2 * t + 1));
  }
  for (i = 0; i < m; i++) {
    double *cr = c + co + i * crs;
    for (t = 0; t < nt; t++)
      xs[t] = as[t] + i;
    for (jb = 0; jb < nW; jb += W) {
      for (t = 0; t < nt; t++)
        bj[t] = bs[t] + jb;
      tn_sum_chunk(cr + jb, nt, xs, cls, bj, brss, k);
    }
    if (nW < n)
      for (t = 0; t < nt; t++)
        acc_chunk(cr + nW, xs[t], cls[t], bs[t], nW, brss[t], k, n - nW);
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemm_tn_sum_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemm_tn_sum(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9]);
}

/* ---- per-sequence gemv family, compiled-plan fast path ----
 *
 * Same bit-compatibility contract as the gemm kernels above: each
 * output element performs exactly the reduction the pure-OCaml
 * reference in tensor.ml performs.  The interpreted tape keeps calling
 * the OCaml bodies (they are the readable reference and the oracle the
 * plan tests compare against); the compiled plan executor in
 * lib/autodiff calls these.
 */

/* y <- m x + beta y, Tensor.gemv's exact order: per row, four
 * independent accumulators over ascending column blocks of 4, trailing
 * singles into the first, final tree (s0 + s1) + (s2 + s3), beta = 0
 * overwriting without reading y. */
CAMLprim value caml_dt_gemv(value vm, value vmo, value vmrs, value vrows,
                            value vcols, value vx, value vxo, value vy,
                            value vyo, value vbeta)
{
  const double *m = (const double *)Caml_ba_data_val(vm);
  const double *x = (const double *)Caml_ba_data_val(vx);
  double *y = (double *)Caml_ba_data_val(vy);
  long mo = Long_val(vmo), mrs = Long_val(vmrs);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  long xo = Long_val(vxo), yo = Long_val(vyo);
  double beta = Double_val(vbeta);
  long i, j;

  for (i = 0; i < rows; i++) {
    const double *restrict mr = m + mo + i * mrs;
    const double *restrict xr = x + xo;
    double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
    double acc;
    for (j = 0; j + 4 <= cols; j += 4) {
      s0 += mr[j] * xr[j];
      s1 += mr[j + 1] * xr[j + 1];
      s2 += mr[j + 2] * xr[j + 2];
      s3 += mr[j + 3] * xr[j + 3];
    }
    for (; j < cols; j++)
      s0 += mr[j] * xr[j];
    acc = (s0 + s1) + (s2 + s3);
    y[yo + i] = beta == 0.0 ? acc : acc + beta * y[yo + i];
  }
  return Val_unit;
}

CAMLprim value caml_dt_gemv_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemv(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                      argv[6], argv[7], argv[8], argv[9]);
}

/* y <- m^T x + beta y, Tensor.gemv_t's exact order: beta pre-pass
 * (zero-fill without reading when beta = 0, scale when beta != 1),
 * then y[j] += sum_i x[i] m[i][j] in ascending four-row blocks with
 * the all-zero-block / zero-single skip rule -- which is precisely
 * acc_chunk with coefficient stride 1. */
CAMLprim value caml_dt_gemv_t(value vm, value vmo, value vmrs, value vrows,
                              value vcols, value vx, value vxo, value vy,
                              value vyo, value vbeta)
{
  const double *m = (const double *)Caml_ba_data_val(vm);
  const double *x = (const double *)Caml_ba_data_val(vx);
  double *y = (double *)Caml_ba_data_val(vy);
  long mo = Long_val(vmo), mrs = Long_val(vmrs);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  long xo = Long_val(vxo), yo = Long_val(vyo);
  double beta = Double_val(vbeta);
  long j, jb, nW = cols - (cols % W);

  if (beta == 0.0)
    for (j = 0; j < cols; j++)
      y[yo + j] = 0.0;
  else if (beta != 1.0)
    for (j = 0; j < cols; j++)
      y[yo + j] = beta * y[yo + j];
  for (jb = 0; jb < nW; jb += W)
    acc_chunk(y + yo + jb, x + xo, 1, m, mo + jb, mrs, rows, W);
  if (nW < cols)
    acc_chunk(y + yo + nW, x + xo, 1, m, mo + nW, mrs, rows, cols - nW);
  return Val_unit;
}

CAMLprim value caml_dt_gemv_t_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_gemv_t(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9]);
}

/* m <- m + x y^T, Tensor.ger's exact order: two rows per pass with the
 * pair zero-skip, then one optional trailing row.  The j loop spans
 * independent output elements, so it vectorizes without reordering any
 * element's accumulation. */
CAMLprim value caml_dt_ger(value vm, value vmo, value vmrs, value vrows,
                           value vcols, value vx, value vxo, value vy,
                           value vyo)
{
  double *m = (double *)Caml_ba_data_val(vm);
  const double *x = (const double *)Caml_ba_data_val(vx);
  const double *y = (const double *)Caml_ba_data_val(vy);
  long mo = Long_val(vmo), mrs = Long_val(vmrs);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  long xo = Long_val(vxo), yo = Long_val(vyo);
  const double *restrict yr = y + yo;
  long i, j;

  for (i = 0; i + 2 <= rows; i += 2) {
    double x0 = x[xo + i], x1 = x[xo + i + 1];
    if (x0 != 0.0 || x1 != 0.0) {
      double *restrict m0 = m + mo + i * mrs;
      double *restrict m1 = m0 + mrs;
      for (j = 0; j < cols; j++) {
        double yj = yr[j];
        m0[j] += x0 * yj;
        m1[j] += x1 * yj;
      }
    }
  }
  if (i < rows) {
    double xi = x[xo + i];
    if (xi != 0.0) {
      double *restrict mr = m + mo + i * mrs;
      for (j = 0; j < cols; j++)
        mr[j] += xi * yr[j];
    }
  }
  return Val_unit;
}

CAMLprim value caml_dt_ger_bc(value *argv, int argn)
{
  (void)argn;
  return caml_dt_ger(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                     argv[6], argv[7], argv[8]);
}

/* ---- sanitizer poison fill / scan ----
 *
 * Exact bit-pattern operations (no FP compares involved), shared by
 * both executors' sanitize mode.  The pattern must match
 * Tensor.poison_bits. */

#include <stdint.h>
#include <string.h>

#define DT_POISON_BITS UINT64_C(0x7FF8DEADDEADDEAD)

CAMLprim value caml_dt_fill_poison(value vb, value vpos, value vlen)
{
  double *b = (double *)Caml_ba_data_val(vb);
  long pos = Long_val(vpos), len = Long_val(vlen);
  uint64_t bits = DT_POISON_BITS;
  double p;
  long k;
  memcpy(&p, &bits, 8);
  for (k = 0; k < len; k++)
    b[pos + k] = p;
  return Val_unit;
}

/* Flat (row-major) index of the first element whose bits equal the
 * poison pattern, or -1.  Row stride rs covers non-contiguous views. */
CAMLprim value caml_dt_scan_poison(value vb, value voff, value vrs,
                                   value vrows, value vcols)
{
  const double *b = (const double *)Caml_ba_data_val(vb);
  long off = Long_val(voff), rs = Long_val(vrs);
  long rows = Long_val(vrows), cols = Long_val(vcols);
  long i, j;
  for (i = 0; i < rows; i++) {
    const double *r = b + off + i * rs;
    for (j = 0; j < cols; j++) {
      uint64_t bits;
      memcpy(&bits, &r[j], 8);
      if (bits == DT_POISON_BITS)
        return Val_long(i * cols + j);
    }
  }
  return Val_long(-1);
}
