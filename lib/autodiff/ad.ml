module T = Dt_tensor.Tensor
module G = Dt_tensor.Gemm

(* Unary op kinds share one tape constructor; forward/backward dispatch on
   the kind with direct loops (no per-element closure calls). *)
type ukind = Sigmoid | Tanh | Relu | Abs | Expc | Affine of float * float

(* [ctx_id]/[gen] stamp where and when a node was built so sanitize mode
   can reject stale nodes ([gen] older than the context's) and nodes fed
   to a foreign context.  Leaves carry [ctx_id = -1]: they own external
   buffers and survive resets.  [mark] is scratch for the gradient-flow
   audit (tape nodes are context-private, so marking is race-free). *)
type node = {
  value : T.t;
  grad : T.t;
  op : op;
  ctx_id : int;
  gen : int;
  mutable mark : int;
}

and op =
  | Leaf
  | Const
  | Matvec of node * node (* m, x *)
  | Row of node * int
  | Add of node * node
  | Mul of node * node
  | Concat of node array
  | Slice of node * int (* v, pos *)
  | Unary of node * ukind
  | Max2 of node * node
  | Div of node * node
  | SumAll of node
  | ReduceMax of node * int (* v, argmax *)
  | Mape of node * float (* pred, target *)
  (* ---- batched (matmul-class) ops ---- *)
  | Matmul of node * node (* x [B x k], w [n x k]; out = x w^T *)
  | AddRow of node * node (* a [B x n] + broadcast bias [1 x n] *)
  | StackRows of (node * int) array (* out row r = row i of source r *)
  | ColSlice of node * int (* v, pos; contiguous column window copy *)
  | ConcatCols of node array (* horizontal concat of [B x *] blocks *)
  | RowBlend of node * node * float array (* mask row-selects a / b *)
  | MapeBatch of node * float array (* pred [B x 1], per-row targets *)
  | LstmBatch of lstm (* a whole LSTM stack; see [lstm_batch] *)

(* The workspace [lws] from [lbase], in floats, with s = batch x hidden:
   layer l's zero initial h and c at 2ls and (2l + 1)s, then for step t
   and layer l a block of 7s at 2Ls + 7s(tL + l): the activated gates
   i f g o (a [batch x 4 hidden] matrix), tanh of the new cell state,
   and the blended h and c.  The op's value is the last block's h of the
   top layer. *)
and lstm = {
  lcells : (node * node * node) array; (* per layer: wx, wh, bias *)
  linputs : node array; (* per step: [batch x input] *)
  lmasks : float array option array; (* per step; None = every row live *)
  lhidden : int;
  lws : T.buf;
  lbase : int;
}

type flow_report = {
  tape_nodes : int;
  live : int;
  dead : int;
  dead_ops : (string * int) list;
}

type ctx = {
  mutable buf : T.buf; (* arena; abandoned (not copied) on growth *)
  mutable used : int; (* floats handed out from [buf] *)
  mutable tape : node array;
  mutable count : int;
  id : int;
  mutable gen : int; (* bumped by [reset]; stamped onto new nodes *)
  mutable audit_token : int; (* distinct mark per gradient-flow audit *)
  mutable last_flow : flow_report option;
}

(* ---- sanitize mode ----

   Off by default; enabled by [set_sanitize true].
   Correct code behaves identically with it on — it only adds checks:
   operand generation/context validation, shape inference with
   op-qualified messages, arena poisoning on reset plus a post-op poison
   scan, and a gradient-flow audit after every [backward]. *)

exception Shape_error of string
exception Use_after_reset of string
exception Uninitialized_read of string

let sanitize = ref false

let set_sanitize b = sanitize := b
let sanitize_enabled () = !sanitize

(* ---- plan statistics: always zero (see ad.mli) ---- *)

type plan_stats = {
  plans_compiled : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
}

let plan_stats () =
  { plans_compiled = 0; plan_hits = 0; plan_misses = 0; plan_evictions = 0 }

let initial_arena = 8192
let ctx_counter = Atomic.make 0

let dummy =
  let z = T.scalar 0.0 in
  { value = z; grad = z; op = Leaf; ctx_id = -1; gen = 0; mark = 0 }

let new_ctx () =
  let buf =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout initial_arena
  in
  if !sanitize then T.fill_poison_buf buf ~pos:0 ~len:initial_arena;
  {
    buf;
    used = 0;
    tape = Array.make 256 dummy;
    count = 0;
    id = Atomic.fetch_and_add ctx_counter 1;
    gen = 0;
    audit_token = 0;
    last_flow = None;
  }

let reset ctx =
  (* Poison the high-water region first so any node that survives the
     reset reads NaN payloads instead of plausible stale values. *)
  if !sanitize then T.fill_poison_buf ctx.buf ~pos:0 ~len:ctx.used;
  ctx.used <- 0;
  ctx.count <- 0;
  ctx.gen <- ctx.gen + 1

let tape_size ctx = ctx.count
let arena_capacity ctx = Bigarray.Array1.dim ctx.buf

let value n = n.value
let grad n = n.grad

(* ---- sanitize checks ---- *)

let op_name = function
  | Leaf -> "leaf"
  | Const -> "const"
  | Matvec _ -> "matvec"
  | Row _ -> "row"
  | Add _ -> "add"
  | Mul _ -> "mul"
  | Concat _ -> "concat"
  | Slice _ -> "slice"
  | Unary (_, Sigmoid) -> "sigmoid"
  | Unary (_, Tanh) -> "tanh"
  | Unary (_, Relu) -> "relu"
  | Unary (_, Abs) -> "abs"
  | Unary (_, Expc) -> "exp"
  | Unary (_, Affine _) -> "affine"
  | Max2 _ -> "max2"
  | Div _ -> "div"
  | SumAll _ -> "sum_all"
  | ReduceMax _ -> "reduce_max"
  | Mape _ -> "mape"
  | Matmul _ -> "matmul"
  | AddRow _ -> "add_row"
  | StackRows _ -> "stack_rows"
  | ColSlice _ -> "cols"
  | ConcatCols _ -> "concat_cols"
  | RowBlend _ -> "row_blend"
  | MapeBatch _ -> "mape_batch"
  | LstmBatch _ -> "lstm_batch"

let operands = function
  | Leaf | Const -> []
  | Matvec (a, b)
  | Add (a, b)
  | Mul (a, b)
  | Max2 (a, b)
  | Div (a, b)
  | Matmul (a, b)
  | AddRow (a, b)
  | RowBlend (a, b, _) ->
      [ a; b ]
  | Row (a, _)
  | Slice (a, _)
  | Unary (a, _)
  | SumAll a
  | ReduceMax (a, _)
  | Mape (a, _)
  | ColSlice (a, _)
  | MapeBatch (a, _) ->
      [ a ]
  | Concat parts | ConcatCols parts -> Array.to_list parts
  | StackRows parts -> Array.to_list (Array.map fst parts)
  | LstmBatch r ->
      Array.to_list r.linputs
      @ List.concat_map
          (fun (wx, wh, b) -> [ wx; wh; b ])
          (Array.to_list r.lcells)

let shape_str (t : T.t) = Printf.sprintf "%dx%d" t.T.rows t.T.cols

let san_operand ctx name n =
  if n.ctx_id >= 0 then
    if n.ctx_id <> ctx.id then
      raise
        (Use_after_reset
           (Printf.sprintf
              "Ad.%s: %s operand (shape %s) belongs to context %d, not this \
               context (%d); nodes must not cross workspaces"
              name (op_name n.op) (shape_str n.value) n.ctx_id ctx.id))
    else if n.gen <> ctx.gen then
      raise
        (Use_after_reset
           (Printf.sprintf
              "Ad.%s: %s operand (shape %s) was built in generation %d but \
               the context is at generation %d; its arena slot has been \
               recycled by Ad.reset"
              name (op_name n.op) (shape_str n.value) n.gen ctx.gen))

let san_vector name what n =
  if n.value.T.rows <> 1 then
    raise
      (Shape_error
         (Printf.sprintf
            "Ad.%s: %s is %s (a %s node), expected a row vector 1xN" name what
            (shape_str n.value) (op_name n.op)))

let san_same ctx name a b =
  san_operand ctx name a;
  san_operand ctx name b;
  if not (T.same_shape a.value b.value) then
    raise
      (Shape_error
         (Printf.sprintf "Ad.%s: operand shapes %s and %s differ" name
            (shape_str a.value) (shape_str b.value)))

(* Post-op poison scan: an output element holding the poison payload
   means the op read memory never written since the last reset. *)
let san_scan name t =
  match T.find_poison t with
  | Some k ->
      raise
        (Uninitialized_read
           (Printf.sprintf
              "Ad.%s: output element %d of %s holds the arena poison \
               pattern; the op read uninitialized or recycled workspace \
               memory (use-before-write, e.g. a beta-accumulating gemv \
               into a fresh slot)"
              name k (shape_str t)))
  | None -> ()

let san_output name n =
  san_scan name n.value;
  n

let scalar_value n =
  if T.size n.value <> 1 then invalid_arg "Ad.scalar_value: not a scalar";
  T.unsafe_get1 n.value 0

(* ---- elementwise unary kernels ---- *)

(* tanh from a single exp: libm tanh is ~2x the cost of exp here.  The
   formula is exact at the negative end (e -> 0) and clamped where
   exp(2x) would overflow. *)
let[@inline always] fast_tanh x =
  if x > 19.0 then 1.0
  else
    let e = exp (2.0 *. x) in
    (e -. 1.0) /. (e +. 1.0)

let unary_forward kind ~src ~dst =
  let k = T.size src in
  let sd = src.T.data and so = src.T.off in
  let dd = dst.T.data and dof = dst.T.off in
  match kind with
  | Sigmoid ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dd (dof + i)
          (1.0 /. (1.0 +. exp (-.Bigarray.Array1.unsafe_get sd (so + i))))
      done
  | Tanh ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dd (dof + i)
          (fast_tanh (Bigarray.Array1.unsafe_get sd (so + i)))
      done
  | Relu ->
      for i = 0 to k - 1 do
        let x = Bigarray.Array1.unsafe_get sd (so + i) in
        Bigarray.Array1.unsafe_set dd (dof + i) (if x > 0.0 then x else 0.0)
      done
  | Abs ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dd (dof + i)
          (Float.abs (Bigarray.Array1.unsafe_get sd (so + i)))
      done
  | Expc ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dd (dof + i)
          (exp (Float.min (Bigarray.Array1.unsafe_get sd (so + i)) 30.0))
      done
  | Affine (m, a) ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set dd (dof + i)
          ((m *. Bigarray.Array1.unsafe_get sd (so + i)) +. a)
      done

(* Accumulate dL/dsrc += dL/dout * f'(x), with f' expressed from the
   output where cheaper (sigmoid/tanh/exp). *)
let unary_backward kind ~v ~n =
  let k = T.size n.value in
  let sd = v.value.T.data and so = v.value.T.off in
  let od = n.value.T.data and oo = n.value.T.off in
  let gd = n.grad.T.data and go = n.grad.T.off in
  let vd = v.grad.T.data and vo = v.grad.T.off in
  match kind with
  | Sigmoid ->
      for i = 0 to k - 1 do
        let y = Bigarray.Array1.unsafe_get od (oo + i) in
        Bigarray.Array1.unsafe_set vd (vo + i)
          (Bigarray.Array1.unsafe_get vd (vo + i)
          +. (Bigarray.Array1.unsafe_get gd (go + i) *. y *. (1.0 -. y)))
      done
  | Tanh ->
      for i = 0 to k - 1 do
        let y = Bigarray.Array1.unsafe_get od (oo + i) in
        Bigarray.Array1.unsafe_set vd (vo + i)
          (Bigarray.Array1.unsafe_get vd (vo + i)
          +. (Bigarray.Array1.unsafe_get gd (go + i) *. (1.0 -. (y *. y))))
      done
  | Relu ->
      for i = 0 to k - 1 do
        if Bigarray.Array1.unsafe_get sd (so + i) > 0.0 then
          Bigarray.Array1.unsafe_set vd (vo + i)
            (Bigarray.Array1.unsafe_get vd (vo + i)
            +. Bigarray.Array1.unsafe_get gd (go + i))
      done
  | Abs ->
      for i = 0 to k - 1 do
        let s =
          if Bigarray.Array1.unsafe_get sd (so + i) >= 0.0 then 1.0 else -1.0
        in
        Bigarray.Array1.unsafe_set vd (vo + i)
          (Bigarray.Array1.unsafe_get vd (vo + i)
          +. (Bigarray.Array1.unsafe_get gd (go + i) *. s))
      done
  | Expc ->
      for i = 0 to k - 1 do
        let d =
          if Bigarray.Array1.unsafe_get sd (so + i) > 30.0 then 0.0
          else Bigarray.Array1.unsafe_get od (oo + i)
        in
        Bigarray.Array1.unsafe_set vd (vo + i)
          (Bigarray.Array1.unsafe_get vd (vo + i)
          +. (Bigarray.Array1.unsafe_get gd (go + i) *. d))
      done
  | Affine (m, _) ->
      for i = 0 to k - 1 do
        Bigarray.Array1.unsafe_set vd (vo + i)
          (Bigarray.Array1.unsafe_get vd (vo + i)
          +. (Bigarray.Array1.unsafe_get gd (go + i) *. m))
      done

(* ---- the fused batched LSTM stack ----

   [lstm_batch] records a whole stacked LSTM over B right-padded
   sequences as one node.  It computes exactly what the per-step
   composition computes -- per cell step two matmuls, add, add_row,
   four column slices through sigmoid/tanh, f*c + i*g, tanh, o*tanh(c')
   and the row blends -- with every float seeing the same operations in
   the same order, so values and gradients keep their bits:

   - forward: each weight is packed as its transpose once per call, not
     once per step, and the bias add, gates, cell update and mask blend
     of a step run as one pass over its two gemm outputs;
   - backward: one reverse sweep over the steps (top layer first within
     a step, as on the tape) writes each step's gate gradients and
     accumulates the h and c adjoints through ping-pong buffers, adding
     input gradients as it goes; every weight gradient term is applied
     after the sweep, in the tape's order (last step first), with one
     multi-term gemm_tn per weight.  Nothing reads a weight gradient
     during the sweep, so the deferral moves no bit.

   Where the tape adds a product into a freshly zeroed adjoint, the
   sweep writes [0.0 +. product]: that add maps -0.0 to +0.0.  It is
   dropped where the operand is itself such a sum, which is never -0.0,
   so the add could not change a bit. *)

let[@inline always] ld (d : T.buf) k = Bigarray.Array1.unsafe_get d k
let[@inline always] st (d : T.buf) k v = Bigarray.Array1.unsafe_set d k v

(* Per-domain scratch for the packed weights and gemm outputs (forward)
   and the gate gradients and state adjoints (backward); grown
   geometrically, never shared across domains. *)
let lstm_scratch_key =
  Domain.DLS.new_key (fun () ->
      ref (Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout 0))

let lstm_scratch n =
  let r = Domain.DLS.get lstm_scratch_key in
  let cap = Bigarray.Array1.dim !r in
  if cap < n then
    r :=
      Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout
        (max n (2 * cap));
  !r

type lstm_geom = {
  nl : int; (* layers *)
  nt : int; (* steps *)
  batch : int;
  hd : int; (* hidden *)
  s : int; (* batch * hidden: one state matrix *)
}

let lstm_geom r batch =
  let nl = Array.length r.lcells and nt = Array.length r.linputs in
  { nl; nt; batch; hd = r.lhidden; s = batch * r.lhidden }

(* Workspace offsets (see [lstm]); step -1 is the zero initial state. *)
let lw_block r g l t =
  r.lbase + (2 * g.nl * g.s) + (7 * g.s * ((t * g.nl) + l))
let lw_gates r g l t = lw_block r g l t
let lw_tanh_c r g l t = lw_block r g l t + (4 * g.s)

let lw_h r g l t =
  if t < 0 then r.lbase + (2 * l * g.s) else lw_block r g l t + (5 * g.s)

let lw_c r g l t =
  if t < 0 then r.lbase + (((2 * l) + 1) * g.s)
  else lw_block r g l t + (6 * g.s)

let lw_view r g off ~cols = T.of_buf r.lws ~off ~rows:g.batch ~cols

(* One of the op's forward gemms.  It consults the ad.gemm_beta fault
   site as [matmul] does; under sanitize its scratch destination is
   poisoned first and scanned after, so a beta-accumulating read of it
   is reported at this op. *)
let lstm_gemm ~a ~bt ~c =
  let beta = if Dt_util.Faultsim.fire "ad.gemm_beta" then 1.0 else 0.0 in
  if !sanitize then T.fill_poison_buf c.T.data ~pos:c.T.off ~len:(T.size c);
  G.gemm_nt_packed ~a ~bt ~c ~beta;
  if !sanitize then san_scan "lstm_batch" c

(* One cell step over its gemm outputs [xp] (input part) and [hp]
   (recurrent part), both contiguous [batch x 4 hidden] in [sc]:
   z = (xp + hp) + b, i f o = sigmoid, g = tanh, c' = f c + i g,
   h' = o tanh c', then the blend that keeps a padded row's previous
   state. *)
let lstm_cell_forward r g ~l ~t ~mask ~sc ~xp ~hp =
  let hd = g.hd and g4 = 4 * g.hd in
  let _, _, bias = r.lcells.(l) in
  let bd = bias.value.T.data and bo = bias.value.T.off in
  let ws = r.lws in
  let gates = lw_gates r g l t and tco = lw_tanh_c r g l t in
  let ho = lw_h r g l t and co = lw_c r g l t in
  let hpo = lw_h r g l (t - 1) and cpo = lw_c r g l (t - 1) in
  for row = 0 to g.batch - 1 do
    let live =
      match mask with None -> true | Some m -> not (Float.equal m.(row) 0.0)
    in
    let zx = xp + (row * g4) and zh = hp + (row * g4) in
    let gr = gates + (row * g4) in
    for j = 0 to hd - 1 do
      let zi = (ld sc (zx + j) +. ld sc (zh + j)) +. ld bd (bo + j) in
      let zf =
        (ld sc (zx + hd + j) +. ld sc (zh + hd + j)) +. ld bd (bo + hd + j)
      in
      let zg =
        (ld sc (zx + (2 * hd) + j) +. ld sc (zh + (2 * hd) + j))
        +. ld bd (bo + (2 * hd) + j)
      in
      let zo =
        (ld sc (zx + (3 * hd) + j) +. ld sc (zh + (3 * hd) + j))
        +. ld bd (bo + (3 * hd) + j)
      in
      let i = 1.0 /. (1.0 +. exp (-.zi)) in
      let f = 1.0 /. (1.0 +. exp (-.zf)) in
      let gg = fast_tanh zg in
      let o = 1.0 /. (1.0 +. exp (-.zo)) in
      st ws (gr + j) i;
      st ws (gr + hd + j) f;
      st ws (gr + (2 * hd) + j) gg;
      st ws (gr + (3 * hd) + j) o;
      let k = (row * hd) + j in
      let c' = (f *. ld ws (cpo + k)) +. (i *. gg) in
      let tc = fast_tanh c' in
      st ws (tco + k) tc;
      if live then begin
        st ws (ho + k) (o *. tc);
        st ws (co + k) c'
      end
      else begin
        st ws (ho + k) (ld ws (hpo + k));
        st ws (co + k) (ld ws (cpo + k))
      end
    done
  done

let lstm_forward r (n : node) =
  let g = lstm_geom r n.value.T.rows in
  let g4 = 4 * g.hd in
  let packed_size =
    Array.fold_left
      (fun acc (wx, _, _) -> acc + ((wx.value.T.cols + g.hd) * g4))
      0 r.lcells
  in
  let sc = lstm_scratch (packed_size + (2 * g.batch * g4)) in
  let pos = ref 0 in
  let pack w =
    let dst = T.of_buf sc ~off:!pos ~rows:w.value.T.cols ~cols:g4 in
    G.transpose_into ~src:w.value ~dst;
    pos := !pos + T.size dst;
    dst
  in
  let packed =
    Array.map
      (fun (wx, wh, _) ->
        let px = pack wx in
        (px, pack wh))
      r.lcells
  in
  let hp = packed_size and xp = packed_size + (g.batch * g4) in
  let hp_t = T.of_buf sc ~off:hp ~rows:g.batch ~cols:g4 in
  let xp_t = T.of_buf sc ~off:xp ~rows:g.batch ~cols:g4 in
  T.zero_ (T.of_buf r.lws ~off:r.lbase ~rows:1 ~cols:(2 * g.nl * g.s));
  for t = 0 to g.nt - 1 do
    for l = 0 to g.nl - 1 do
      let pwx, pwh = packed.(l) in
      let x =
        if l = 0 then r.linputs.(t).value
        else lw_view r g (lw_h r g (l - 1) t) ~cols:g.hd
      in
      (* recurrent part first, as the tape built it *)
      lstm_gemm
        ~a:(lw_view r g (lw_h r g l (t - 1)) ~cols:g.hd)
        ~bt:pwh ~c:hp_t;
      lstm_gemm ~a:x ~bt:pwx ~c:xp_t;
      lstm_cell_forward r g ~l ~t ~mask:r.lmasks.(t) ~sc ~xp ~hp
    done
  done

(* One cell step of the reverse sweep.  Reads the adjoints of this
   step's h and c at [dh]/[dc] (complete: every later consumer has run)
   and writes the gate gradients dz, which are also the adjoints of z,
   of both matmul outputs and of the bias add.  Unless this is the
   first step it starts the previous step's adjoints at [dh']/[dc'] the
   way the tape starts them: a padded row receives this step's adjoint
   through the blend, then c's previous state its f c term; the
   recurrent matmul's term is added by the caller. *)
let lstm_cell_backward r g ~l ~t ~mask ~sc ~dz ~dh ~dc ~dh' ~dc' =
  let hd = g.hd and g4 = 4 * g.hd in
  let ws = r.lws in
  let gates = lw_gates r g l t and tco = lw_tanh_c r g l t in
  let cpo = lw_c r g l (t - 1) in
  for row = 0 to g.batch - 1 do
    let live =
      match mask with None -> true | Some m -> not (Float.equal m.(row) 0.0)
    in
    let gr = gates + (row * g4) and zr = dz + (row * g4) in
    for j = 0 to hd - 1 do
      let k = (row * hd) + j in
      let i = ld ws (gr + j)
      and f = ld ws (gr + hd + j)
      and gg = ld ws (gr + (2 * hd) + j)
      and o = ld ws (gr + (3 * hd) + j)
      and tc = ld ws (tco + k) in
      (* a padded row's h' and c' receive nothing from the blend *)
      let dh_new = if live then ld sc (dh + k) else 0.0 in
      let d_o = 0.0 +. (dh_new *. tc) in
      let d_tc = 0.0 +. (dh_new *. o) in
      let d_c' =
        (if live then ld sc (dc + k) else 0.0) +. (d_tc *. (1.0 -. (tc *. tc)))
      in
      let d_f = 0.0 +. (d_c' *. ld ws (cpo + k)) in
      let d_i = 0.0 +. (d_c' *. gg) in
      let d_g = 0.0 +. (d_c' *. i) in
      if t > 0 then begin
        if live then begin
          st sc (dh' + k) 0.0;
          st sc (dc' + k) (0.0 +. (d_c' *. f))
        end
        else begin
          st sc (dh' + k) (ld sc (dh + k));
          st sc (dc' + k) (ld sc (dc + k) +. (d_c' *. f))
        end
      end;
      st sc (zr + j) (0.0 +. ((d_i *. i) *. (1.0 -. i)));
      st sc (zr + hd + j) (0.0 +. ((d_f *. f) *. (1.0 -. f)));
      st sc (zr + (2 * hd) + j) (0.0 +. (d_g *. (1.0 -. (gg *. gg))));
      st sc (zr + (3 * hd) + j) (0.0 +. ((d_o *. o) *. (1.0 -. o)))
    done
  done

let lstm_backward r (n : node) =
  let g = lstm_geom r n.value.T.rows in
  let g4 = 4 * g.hd in
  let zsize = g.nt * g.nl * g.batch * g4 in
  let sc = lstm_scratch (zsize + (4 * g.nl * g.s)) in
  let dz l t = ((t * g.nl) + l) * g.batch * g4 in
  let dz_t l t = T.of_buf sc ~off:(dz l t) ~rows:g.batch ~cols:g4 in
  (* ping-pong adjoints of each layer's h and c: [cur.(l)] holds the
     step being swept, the other slot the step before it *)
  let dh l k = zsize + (((2 * l) + k) * g.s) in
  let dc l k = zsize + (2 * g.nl * g.s) + (((2 * l) + k) * g.s) in
  let state_t off = T.of_buf sc ~off ~rows:g.batch ~cols:g.hd in
  let cur = Array.make g.nl 0 in
  T.zero_ (T.of_buf sc ~off:zsize ~rows:1 ~cols:(4 * g.nl * g.s));
  T.blit ~src:n.grad ~dst:(state_t (dh (g.nl - 1) 0));
  for t = g.nt - 1 downto 0 do
    for l = g.nl - 1 downto 0 do
      let wx, wh, _ = r.lcells.(l) in
      let c = cur.(l) in
      lstm_cell_backward r g ~l ~t ~mask:r.lmasks.(t) ~sc ~dz:(dz l t)
        ~dh:(dh l c) ~dc:(dc l c) ~dh':(dh l (1 - c)) ~dc':(dc l (1 - c));
      let d = dz_t l t in
      (* input part first, as the tape runs it *)
      G.gemm ~a:d ~b:wx.value
        ~c:
          (if l = 0 then r.linputs.(t).grad
           else state_t (dh (l - 1) cur.(l - 1)))
        ~beta:1.0;
      if t > 0 then
        G.gemm ~a:d ~b:wh.value ~c:(state_t (dh l (1 - c))) ~beta:1.0;
      cur.(l) <- 1 - c
    done
  done;
  for l = 0 to g.nl - 1 do
    let wx, wh, bias = r.lcells.(l) in
    let last_first f = Array.init g.nt (fun k -> f (g.nt - 1 - k)) in
    G.gemm_tn_sum ~c:wx.grad
      ~terms:
        (last_first (fun t ->
             ( dz_t l t,
               if l = 0 then r.linputs.(t).value
               else lw_view r g (lw_h r g (l - 1) t) ~cols:g.hd )));
    G.gemm_tn_sum ~c:wh.grad
      ~terms:
        (last_first (fun t ->
             (dz_t l t, lw_view r g (lw_h r g l (t - 1)) ~cols:g.hd)));
    let bg = bias.grad.T.data and bo = bias.grad.T.off in
    for t = g.nt - 1 downto 0 do
      for row = 0 to g.batch - 1 do
        let zr = dz l t + (row * g4) in
        for j = 0 to g4 - 1 do
          st bg (bo + j) (ld bg (bo + j) +. ld sc (zr + j))
        done
      done
    done
  done

(* ---- forward execution ----

   The forward kernel of every op, run by its constructor once the node
   is on the tape.  View ops (Row, Slice) and inputs execute as
   no-ops. *)
let exec_forward n =
  match n.op with
  | Leaf | Const | Row _ | Slice _ -> ()
  | Matvec (m, x) ->
      (* Fault site: reintroduces the PR 2 gemv bug (accumulate into a
         fresh slot) so the fault matrix can exercise the poison
         detector. *)
      let beta = if Dt_util.Faultsim.fire "ad.gemv_beta" then 1.0 else 0.0 in
      T.gemv ~m:m.value ~x:x.value ~y:n.value ~beta
  | Add (a, b) -> T.add_ ~dst:n.value ~a:a.value ~b:b.value
  | Mul (a, b) -> T.mul_ ~dst:n.value ~a:a.value ~b:b.value
  | Concat parts ->
      let off = ref 0 in
      Array.iter
        (fun p ->
          let k = T.size p.value in
          T.blit_sub ~src:p.value ~spos:0 ~dst:n.value ~dpos:!off ~len:k;
          off := !off + k)
        parts
  | Unary (v, kind) -> unary_forward kind ~src:v.value ~dst:n.value
  | Max2 (a, b) ->
      for i = 0 to T.size a.value - 1 do
        T.unsafe_set1 n.value i
          (Float.max (T.unsafe_get1 a.value i) (T.unsafe_get1 b.value i))
      done
  | Div (a, b) ->
      for i = 0 to T.size a.value - 1 do
        T.unsafe_set1 n.value i
          (T.unsafe_get1 a.value i /. T.unsafe_get1 b.value i)
      done
  | SumAll v -> T.unsafe_set1 n.value 0 (T.sum v.value)
  | ReduceMax (v, best) -> T.unsafe_set1 n.value 0 (T.unsafe_get1 v.value best)
  | Mape (pred, target) ->
      T.unsafe_set1 n.value 0
        (Float.abs (T.unsafe_get1 pred.value 0 -. target) /. target)
  | Matmul (x, w) ->
      (* Fault site: the beta-accumulate class for the gemm family. *)
      let beta = if Dt_util.Faultsim.fire "ad.gemm_beta" then 1.0 else 0.0 in
      G.gemm_nt ~a:x.value ~b:w.value ~c:n.value ~beta
  | AddRow (a, bias) ->
      let rows = n.value.T.rows and cols = n.value.T.cols in
      let av = a.value and bv = bias.value and nv = n.value in
      for i = 0 to rows - 1 do
        let ab = av.T.off + (i * av.T.rs)
        and nb = nv.T.off + (i * nv.T.rs) in
        for j = 0 to cols - 1 do
          Bigarray.Array1.unsafe_set nv.T.data (nb + j)
            (Bigarray.Array1.unsafe_get av.T.data (ab + j)
            +. Bigarray.Array1.unsafe_get bv.T.data (bv.T.off + j))
        done
      done
  | StackRows parts ->
      Array.iteri
        (fun r (p, i) ->
          T.blit ~src:(T.row_view p.value i) ~dst:(T.row_view n.value r))
        parts
  | ColSlice (v, pos) ->
      let rows = n.value.T.rows and len = n.value.T.cols in
      let vv = v.value and nv = n.value in
      for i = 0 to rows - 1 do
        let vb = vv.T.off + (i * vv.T.rs) + pos
        and nb = nv.T.off + (i * nv.T.rs) in
        for j = 0 to len - 1 do
          Bigarray.Array1.unsafe_set nv.T.data (nb + j)
            (Bigarray.Array1.unsafe_get vv.T.data (vb + j))
        done
      done
  | ConcatCols parts ->
      let rows = n.value.T.rows in
      let off = ref 0 in
      Array.iter
        (fun p ->
          let pc = p.value.T.cols in
          for i = 0 to rows - 1 do
            T.blit_sub
              ~src:(T.row_view p.value i)
              ~spos:0
              ~dst:(T.row_view n.value i)
              ~dpos:!off ~len:pc
          done;
          off := !off + pc)
        parts
  | RowBlend (a, b, mask) ->
      for i = 0 to n.value.T.rows - 1 do
        let src = if not (Float.equal mask.(i) 0.0) then a.value else b.value in
        T.blit ~src:(T.row_view src i) ~dst:(T.row_view n.value i)
      done
  | MapeBatch (pred, targets) ->
      let pv = pred.value and nv = n.value in
      for i = 0 to n.value.T.rows - 1 do
        let p =
          Bigarray.Array1.unsafe_get pv.T.data (pv.T.off + (i * pv.T.rs))
        in
        Bigarray.Array1.unsafe_set nv.T.data
          (nv.T.off + (i * nv.T.rs))
          (Float.abs (p -. targets.(i)) /. targets.(i))
      done
  | LstmBatch r -> lstm_forward r n

(* Carve a fresh value slot out of the arena.  On overflow the old chunk
   is abandoned, not copied: live nodes keep views into it, so it stays
   reachable until the next [reset]; capacity doubles until a whole tape
   fits in one chunk, after which steady state allocates nothing. *)
let alloc ctx ~rows ~cols =
  let size = rows * cols in
  if ctx.used + size > Bigarray.Array1.dim ctx.buf then begin
    let cap = max (2 * Bigarray.Array1.dim ctx.buf) (max size initial_arena) in
    ctx.buf <- Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout cap;
    if !sanitize then T.fill_poison_buf ctx.buf ~pos:0 ~len:cap;
    ctx.used <- 0
  end;
  let off = ctx.used in
  ctx.used <- ctx.used + size;
  T.of_buf ctx.buf ~off ~rows ~cols

let alloc_grad ctx ~rows ~cols =
  let g = alloc ctx ~rows ~cols in
  T.zero_ g;
  g

let record ctx n =
  if ctx.count = Array.length ctx.tape then begin
    let bigger = Array.make (2 * ctx.count) dummy in
    Array.blit ctx.tape 0 bigger 0 ctx.count;
    ctx.tape <- bigger
  end;
  ctx.tape.(ctx.count) <- n;
  ctx.count <- ctx.count + 1;
  n

let leaf ~value ~grad =
  if not (T.same_shape value grad) then
    invalid_arg "Ad.leaf: value/grad shape mismatch";
  { value; grad; op = Leaf; ctx_id = -1; gen = 0; mark = 0 }

let constant ctx t =
  let value = alloc ctx ~rows:t.T.rows ~cols:t.T.cols in
  T.blit ~src:t ~dst:value;
  record ctx
    {
      value;
      grad = alloc_grad ctx ~rows:t.T.rows ~cols:t.T.cols;
      op = Const;
      ctx_id = ctx.id;
      gen = ctx.gen;
      mark = 0;
    }

let scalar ctx v =
  let value = alloc ctx ~rows:1 ~cols:1 in
  T.unsafe_set1 value 0 v;
  record ctx
    {
      value;
      grad = alloc_grad ctx ~rows:1 ~cols:1;
      op = Const;
      ctx_id = ctx.id;
      gen = ctx.gen;
      mark = 0;
    }

(* Fresh value+grad slots for an op producing a rows x cols output.  In
   sanitize mode every operand's context/generation stamp is validated
   here, so no op can consume a stale or foreign node. *)
let make ctx ~rows ~cols op =
  if !sanitize then List.iter (san_operand ctx (op_name op)) (operands op);
  record ctx
    {
      value = alloc ctx ~rows ~cols;
      grad = alloc_grad ctx ~rows ~cols;
      op;
      ctx_id = ctx.id;
      gen = ctx.gen;
      mark = 0;
    }

(* Ops whose value is a zero-copy view into the operand's value. *)
let make_view ctx ~view ~rows ~cols op =
  if !sanitize then List.iter (san_operand ctx (op_name op)) (operands op);
  record ctx
    {
      value = view;
      grad = alloc_grad ctx ~rows ~cols;
      op;
      ctx_id = ctx.id;
      gen = ctx.gen;
      mark = 0;
    }

let matvec ctx ~m ~x =
  if !sanitize then begin
    san_vector "matvec" "x" x;
    if x.value.T.cols <> m.value.T.cols then
      raise
        (Shape_error
           (Printf.sprintf "Ad.matvec: m is %s, x is %s (expected 1x%d)"
              (shape_str m.value) (shape_str x.value) m.value.T.cols))
  end;
  let out_dim = m.value.T.rows in
  let n = make ctx ~rows:1 ~cols:out_dim (Matvec (m, x)) in
  exec_forward n;
  if !sanitize then ignore (san_output "matvec" n);
  n

let row ctx ~m i =
  if i < 0 || i >= m.value.T.rows then invalid_arg "Ad.row: index out of range";
  let cols = m.value.T.cols in
  make_view ctx ~view:(T.row_view m.value i) ~rows:1 ~cols (Row (m, i))

let add ctx a b =
  if !sanitize then san_same ctx "add" a b;
  if not (T.same_shape a.value b.value) then invalid_arg "Ad.add: shape mismatch";
  let n = make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Add (a, b)) in
  exec_forward n;
  if !sanitize then ignore (san_output "add" n);
  n

let mul ctx a b =
  if !sanitize then san_same ctx "mul" a b;
  if not (T.same_shape a.value b.value) then invalid_arg "Ad.mul: shape mismatch";
  let n = make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Mul (a, b)) in
  exec_forward n;
  if !sanitize then ignore (san_output "mul" n);
  n

let concat ctx parts =
  if parts = [] then invalid_arg "Ad.concat: empty";
  let parts = Array.of_list parts in
  (* Concatenating a matrix silently flattens it row-major — almost
     always a bug in calling code; only sanitize mode rejects it. *)
  if !sanitize then
    Array.iteri
      (fun i p -> san_vector "concat" (Printf.sprintf "part %d" i) p)
      parts;
  let total = Array.fold_left (fun acc p -> acc + T.size p.value) 0 parts in
  let n = make ctx ~rows:1 ~cols:total (Concat parts) in
  exec_forward n;
  if !sanitize then ignore (san_output "concat" n);
  n

let slice ctx v ~pos ~len =
  (* Slicing a matrix treats it as a flat vector and can span rows;
     sanitize mode insists on a row-vector operand. *)
  if !sanitize then begin
    san_vector "slice" "operand" v;
    if pos < 0 || len <= 0 || pos + len > T.size v.value then
      raise
        (Shape_error
           (Printf.sprintf "Ad.slice: window [%d, %d) out of range for operand %s"
              pos (pos + len) (shape_str v.value)))
  end;
  if pos < 0 || len <= 0 || pos + len > T.size v.value then
    invalid_arg "Ad.slice: out of range";
  make_view ctx ~view:(T.sub v.value ~pos ~len) ~rows:1 ~cols:len
    (Slice (v, pos))

let unary ctx v kind =
  let n =
    make ctx ~rows:v.value.T.rows ~cols:v.value.T.cols (Unary (v, kind))
  in
  exec_forward n;
  if !sanitize then ignore (san_output (op_name n.op) n);
  n

let sigmoid ctx v = unary ctx v Sigmoid
let tanh_ ctx v = unary ctx v Tanh
let relu ctx v = unary ctx v Relu
let abs_ ctx v = unary ctx v Abs
let exp_ ctx v = unary ctx v Expc
let affine ctx v ~mul ~add = unary ctx v (Affine (mul, add))
let scale ctx v alpha = unary ctx v (Affine (alpha, 0.0))

let max2 ctx a b =
  if !sanitize then san_same ctx "max2" a b;
  if not (T.same_shape a.value b.value) then
    invalid_arg "Ad.max2: shape mismatch";
  let n = make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Max2 (a, b)) in
  exec_forward n;
  if !sanitize then ignore (san_output "max2" n);
  n

let div ctx a b =
  if !sanitize then san_same ctx "div" a b;
  if not (T.same_shape a.value b.value) then invalid_arg "Ad.div: shape mismatch";
  let n = make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Div (a, b)) in
  exec_forward n;
  if !sanitize then ignore (san_output "div" n);
  n

let sum_all ctx v =
  let n = make ctx ~rows:1 ~cols:1 (SumAll v) in
  exec_forward n;
  if !sanitize then ignore (san_output "sum_all" n);
  n

let reduce_max ctx v =
  let best = ref 0 in
  for i = 1 to T.size v.value - 1 do
    if T.unsafe_get1 v.value i > T.unsafe_get1 v.value !best then best := i
  done;
  let n = make ctx ~rows:1 ~cols:1 (ReduceMax (v, !best)) in
  exec_forward n;
  n

let mape ctx pred ~target =
  if !sanitize && T.size pred.value <> 1 then
    raise
      (Shape_error
         (Printf.sprintf "Ad.mape: prediction is %s, expected a 1x1 scalar"
            (shape_str pred.value)));
  if T.size pred.value <> 1 then invalid_arg "Ad.mape: prediction not scalar";
  if target <= 0.0 then invalid_arg "Ad.mape: target must be positive";
  let n = make ctx ~rows:1 ~cols:1 (Mape (pred, target)) in
  exec_forward n;
  if !sanitize then ignore (san_output "mape" n);
  n

(* ---- batched (matmul-class) ops ----

   The batched surrogate packs B sequences per timestep into
   [B x hidden] matrices; these ops are the matrix analogues of matvec /
   add / slice / concat / mape, with both gradient paths expressed as
   gemm calls. *)

let matmul ctx ~x ~w =
  if !sanitize && x.value.T.cols <> w.value.T.cols then
    raise
      (Shape_error
         (Printf.sprintf
            "Ad.matmul: x is %s, w is %s; inner dimensions (x cols, w cols) \
             must match"
            (shape_str x.value) (shape_str w.value)));
  if x.value.T.cols <> w.value.T.cols then
    invalid_arg "Ad.matmul: shape mismatch";
  let n = make ctx ~rows:x.value.T.rows ~cols:w.value.T.rows (Matmul (x, w)) in
  exec_forward n;
  if !sanitize then ignore (san_output "matmul" n);
  n

let add_row ctx a ~bias =
  if !sanitize
     && (bias.value.T.rows <> 1 || bias.value.T.cols <> a.value.T.cols)
  then
    raise
      (Shape_error
         (Printf.sprintf "Ad.add_row: a is %s, bias is %s (expected 1x%d)"
            (shape_str a.value) (shape_str bias.value) a.value.T.cols));
  if bias.value.T.rows <> 1 || bias.value.T.cols <> a.value.T.cols then
    invalid_arg "Ad.add_row: shape mismatch";
  let rows = a.value.T.rows and cols = a.value.T.cols in
  let n = make ctx ~rows ~cols (AddRow (a, bias)) in
  exec_forward n;
  if !sanitize then ignore (san_output "add_row" n);
  n

let stack_rows ctx parts =
  if Array.length parts = 0 then invalid_arg "Ad.stack_rows: empty";
  let cols = (fst parts.(0)).value.T.cols in
  Array.iteri
    (fun r (p, i) ->
      if p.value.T.cols <> cols then
        if !sanitize then
          raise
            (Shape_error
               (Printf.sprintf
                  "Ad.stack_rows: source %d is %s, expected %d columns" r
                  (shape_str p.value) cols))
        else invalid_arg "Ad.stack_rows: column mismatch";
      if i < 0 || i >= p.value.T.rows then
        invalid_arg "Ad.stack_rows: row index out of range")
    parts;
  let n = make ctx ~rows:(Array.length parts) ~cols (StackRows parts) in
  exec_forward n;
  if !sanitize then ignore (san_output "stack_rows" n);
  n

let cols ctx v ~pos ~len =
  if pos < 0 || len <= 0 || pos + len > v.value.T.cols then
    if !sanitize then
      raise
        (Shape_error
           (Printf.sprintf
              "Ad.cols: column window [%d, %d) out of range for operand %s" pos
              (pos + len) (shape_str v.value)))
    else invalid_arg "Ad.cols: out of range";
  let rows = v.value.T.rows in
  let n = make ctx ~rows ~cols:len (ColSlice (v, pos)) in
  exec_forward n;
  if !sanitize then ignore (san_output "cols" n);
  n

let concat_cols ctx parts =
  if parts = [] then invalid_arg "Ad.concat_cols: empty";
  let parts = Array.of_list parts in
  let rows = parts.(0).value.T.rows in
  Array.iteri
    (fun i p ->
      if p.value.T.rows <> rows then
        if !sanitize then
          raise
            (Shape_error
               (Printf.sprintf "Ad.concat_cols: part %d is %s, expected %d rows"
                  i (shape_str p.value) rows))
        else invalid_arg "Ad.concat_cols: row mismatch")
    parts;
  let total = Array.fold_left (fun acc p -> acc + p.value.T.cols) 0 parts in
  let n = make ctx ~rows ~cols:total (ConcatCols parts) in
  exec_forward n;
  if !sanitize then ignore (san_output "concat_cols" n);
  n

let row_blend ctx ~mask a b =
  if !sanitize then san_same ctx "row_blend" a b;
  if not (T.same_shape a.value b.value) then
    invalid_arg "Ad.row_blend: shape mismatch";
  if Array.length mask <> a.value.T.rows then
    invalid_arg "Ad.row_blend: mask length";
  let rows = a.value.T.rows and width = a.value.T.cols in
  let n = make ctx ~rows ~cols:width (RowBlend (a, b, mask)) in
  exec_forward n;
  if !sanitize then ignore (san_output "row_blend" n);
  n

let mape_batch ctx pred ~targets =
  if !sanitize && pred.value.T.cols <> 1 then
    raise
      (Shape_error
         (Printf.sprintf "Ad.mape_batch: prediction is %s, expected Bx1"
            (shape_str pred.value)));
  if pred.value.T.cols <> 1 then invalid_arg "Ad.mape_batch: prediction shape";
  let rows = pred.value.T.rows in
  if Array.length targets <> rows then
    invalid_arg "Ad.mape_batch: targets length";
  Array.iter
    (fun t ->
      if t <= 0.0 then invalid_arg "Ad.mape_batch: target must be positive")
    targets;
  let n = make ctx ~rows ~cols:1 (MapeBatch (pred, targets)) in
  exec_forward n;
  if !sanitize then ignore (san_output "mape_batch" n);
  n

let lstm_batch ctx ~cells ~batch steps =
  let bad fmt =
    Printf.ksprintf
      (fun m ->
        let m = "Ad.lstm_batch: " ^ m in
        if !sanitize then raise (Shape_error m) else invalid_arg m)
      fmt
  in
  if steps = [] then invalid_arg "Ad.lstm_batch: empty sequence";
  if Array.length cells = 0 then invalid_arg "Ad.lstm_batch: no layers";
  if batch <= 0 then invalid_arg "Ad.lstm_batch: batch must be positive";
  let wx0, wh0, _ = cells.(0) in
  let hd = wh0.value.T.cols and input = wx0.value.T.cols in
  Array.iteri
    (fun l (wx, wh, b) ->
      let width = if l = 0 then input else hd in
      if
        wx.value.T.rows <> 4 * hd
        || wx.value.T.cols <> width
        || wh.value.T.rows <> 4 * hd
        || wh.value.T.cols <> hd
        || b.value.T.rows <> 1
        || b.value.T.cols <> 4 * hd
      then
        bad "layer %d has wx %s, wh %s, b %s; expected %dx%d, %dx%d, 1x%d" l
          (shape_str wx.value) (shape_str wh.value) (shape_str b.value)
          (4 * hd) width (4 * hd) hd (4 * hd))
    cells;
  (* Each weight gradient is summed after the sweep, which matches the
     tape's order only if no node plays two weight roles. *)
  let rec distinct = function
    | [] -> true
    | w :: rest -> (not (List.memq w rest)) && distinct rest
  in
  let weights =
    List.concat_map (fun (wx, wh, b) -> [ wx; wh; b ]) (Array.to_list cells)
  in
  if not (distinct weights) then
    invalid_arg "Ad.lstm_batch: a weight node appears twice";
  let steps = Array.of_list steps in
  Array.iteri
    (fun t (x, mask) ->
      if x.value.T.rows <> batch || x.value.T.cols <> input then
        bad "step %d input is %s, expected %dx%d (batch x input width)" t
          (shape_str x.value) batch input;
      match mask with
      | Some m when Array.length m <> batch ->
          bad "step %d mask has %d entries, expected %d (the batch)" t
            (Array.length m) batch
      | _ -> ())
    steps;
  let nl = Array.length cells and nt = Array.length steps in
  let ws = alloc ctx ~rows:1 ~cols:(((2 * nl) + (7 * nl * nt)) * batch * hd) in
  let r =
    {
      lcells = cells;
      linputs = Array.map fst steps;
      lmasks = Array.map snd steps;
      lhidden = hd;
      lws = ws.T.data;
      lbase = ws.T.off;
    }
  in
  let g = lstm_geom r batch in
  let top = lw_view r g (lw_h r g (nl - 1) (nt - 1)) ~cols:hd in
  let n = make_view ctx ~view:top ~rows:batch ~cols:hd (LstmBatch r) in
  exec_forward n;
  if !sanitize then ignore (san_output "lstm_batch" n);
  n

(* ---- reverse pass ---- *)

let backprop n =
  match n.op with
  | Leaf | Const -> ()
  | Matvec (m, x) ->
      T.ger ~m:m.grad ~x:n.grad ~y:x.value;
      T.gemv_t ~m:m.value ~x:n.grad ~y:x.grad ~beta:1.0
  | Row (m, i) ->
      T.axpy_at ~alpha:1.0 ~x:n.grad ~y:m.grad ~ypos:(i * m.value.T.cols)
  | Add (a, b) ->
      T.axpy ~alpha:1.0 ~x:n.grad ~y:a.grad;
      T.axpy ~alpha:1.0 ~x:n.grad ~y:b.grad
  | Mul (a, b) ->
      let k = T.size n.value in
      let gd = n.grad.T.data and go = n.grad.T.off in
      let avd = a.value.T.data and avo = a.value.T.off in
      let bvd = b.value.T.data and bvo = b.value.T.off in
      let agd = a.grad.T.data and ago = a.grad.T.off in
      let bgd = b.grad.T.data and bgo = b.grad.T.off in
      for i = 0 to k - 1 do
        let g = Bigarray.Array1.unsafe_get gd (go + i) in
        Bigarray.Array1.unsafe_set agd (ago + i)
          (Bigarray.Array1.unsafe_get agd (ago + i)
          +. (g *. Bigarray.Array1.unsafe_get bvd (bvo + i)));
        Bigarray.Array1.unsafe_set bgd (bgo + i)
          (Bigarray.Array1.unsafe_get bgd (bgo + i)
          +. (g *. Bigarray.Array1.unsafe_get avd (avo + i)))
      done
  | Concat parts ->
      let off = ref 0 in
      Array.iter
        (fun p ->
          let k = T.size p.value in
          T.axpy_from ~alpha:1.0 ~x:n.grad ~xpos:!off ~len:k ~y:p.grad;
          off := !off + k)
        parts
  | Slice (v, pos) -> T.axpy_at ~alpha:1.0 ~x:n.grad ~y:v.grad ~ypos:pos
  | Unary (v, kind) -> unary_backward kind ~v ~n
  | Max2 (a, b) ->
      for i = 0 to T.size n.value - 1 do
        let g = T.unsafe_get1 n.grad i in
        if T.unsafe_get1 a.value i >= T.unsafe_get1 b.value i then
          T.unsafe_set1 a.grad i (T.unsafe_get1 a.grad i +. g)
        else T.unsafe_set1 b.grad i (T.unsafe_get1 b.grad i +. g)
      done
  | Div (a, b) ->
      for i = 0 to T.size n.value - 1 do
        let g = T.unsafe_get1 n.grad i in
        let bi = T.unsafe_get1 b.value i in
        T.unsafe_set1 a.grad i (T.unsafe_get1 a.grad i +. (g /. bi));
        T.unsafe_set1 b.grad i
          (T.unsafe_get1 b.grad i
          -. (g *. T.unsafe_get1 a.value i /. (bi *. bi)))
      done
  | SumAll v ->
      let g = T.unsafe_get1 n.grad 0 in
      for i = 0 to T.size v.value - 1 do
        T.unsafe_set1 v.grad i (T.unsafe_get1 v.grad i +. g)
      done
  | ReduceMax (v, bi) ->
      T.unsafe_set1 v.grad bi (T.unsafe_get1 v.grad bi +. T.unsafe_get1 n.grad 0)
  | Mape (pred, target) ->
      let diff = T.unsafe_get1 pred.value 0 -. target in
      let sign = if diff >= 0.0 then 1.0 else -1.0 in
      T.unsafe_set1 pred.grad 0
        (T.unsafe_get1 pred.grad 0 +. (T.unsafe_get1 n.grad 0 *. sign /. target))
  | Matmul (x, w) ->
      (* out = x w^T, so dX += dOut w and dW += dOut^T x; both paths are
         single gemm calls accumulating into existing gradient buffers. *)
      G.gemm ~a:n.grad ~b:w.value ~c:x.grad ~beta:1.0;
      G.gemm_tn ~a:n.grad ~b:x.value ~c:w.grad ~beta:1.0
  | AddRow (a, bias) ->
      T.axpy ~alpha:1.0 ~x:n.grad ~y:a.grad;
      let rows = n.value.T.rows and width = n.value.T.cols in
      let g = n.grad and bg = bias.grad in
      for i = 0 to rows - 1 do
        let gb = g.T.off + (i * g.T.rs) in
        for j = 0 to width - 1 do
          Bigarray.Array1.unsafe_set bg.T.data (bg.T.off + j)
            (Bigarray.Array1.unsafe_get bg.T.data (bg.T.off + j)
            +. Bigarray.Array1.unsafe_get g.T.data (gb + j))
        done
      done
  | StackRows parts ->
      let width = n.value.T.cols in
      Array.iteri
        (fun r (p, i) ->
          T.axpy_at ~alpha:1.0
            ~x:(T.row_view n.grad r)
            ~y:p.grad ~ypos:(i * width))
        parts
  | ColSlice (v, pos) ->
      let rows = n.value.T.rows and len = n.value.T.cols in
      let g = n.grad and vg = v.grad in
      for i = 0 to rows - 1 do
        let gb = g.T.off + (i * g.T.rs)
        and vb = vg.T.off + (i * vg.T.rs) + pos in
        for j = 0 to len - 1 do
          Bigarray.Array1.unsafe_set vg.T.data (vb + j)
            (Bigarray.Array1.unsafe_get vg.T.data (vb + j)
            +. Bigarray.Array1.unsafe_get g.T.data (gb + j))
        done
      done
  | ConcatCols parts ->
      let rows = n.value.T.rows in
      let off = ref 0 in
      Array.iter
        (fun p ->
          let pc = p.value.T.cols in
          for i = 0 to rows - 1 do
            T.axpy_from ~alpha:1.0
              ~x:(T.row_view n.grad i)
              ~xpos:!off ~len:pc
              ~y:(T.row_view p.grad i)
          done;
          off := !off + pc)
        parts
  | RowBlend (a, b, mask) ->
      for i = 0 to n.value.T.rows - 1 do
        let dst = if not (Float.equal mask.(i) 0.0) then a.grad else b.grad in
        T.axpy ~alpha:1.0 ~x:(T.row_view n.grad i) ~y:(T.row_view dst i)
      done
  | MapeBatch (pred, targets) ->
      let pv = pred.value and pg = pred.grad and g = n.grad in
      for i = 0 to n.value.T.rows - 1 do
        let p = Bigarray.Array1.unsafe_get pv.T.data (pv.T.off + (i * pv.T.rs)) in
        let sign = if p -. targets.(i) >= 0.0 then 1.0 else -1.0 in
        let gp = pg.T.off + (i * pg.T.rs) in
        Bigarray.Array1.unsafe_set pg.T.data gp
          (Bigarray.Array1.unsafe_get pg.T.data gp
          +. (Bigarray.Array1.unsafe_get g.T.data (g.T.off + (i * g.T.rs))
              *. sign /. targets.(i)))
      done
  | LstmBatch r -> lstm_backward r n

(* ---- gradient-flow audit ----

   Marks every node reachable from [root] through operand edges, then
   scans the tape for unmarked ("dead") nodes: work that was recorded
   but cannot receive gradient from this loss — typically a detached
   subgraph from a bug in graph construction.  Reporting only; correct
   programs may legitimately build side computations. *)

let flow_audit ctx root =
  ctx.audit_token <- ctx.audit_token + 1;
  let tok = ctx.audit_token in
  let stack = ref [ root ] in
  while !stack <> [] do
    match !stack with
    | [] -> ()
    | n :: rest ->
        stack := rest;
        if n.mark <> tok then begin
          n.mark <- tok;
          List.iter
            (fun o ->
              (* Leaves are shared across contexts; skip marking them. *)
              if o.ctx_id >= 0 && o.mark <> tok then stack := o :: !stack)
            (operands n.op)
        end
  done;
  let live = ref 0 in
  let dead = ref [] in
  let dead_total = ref 0 in
  for i = 0 to ctx.count - 1 do
    let n = ctx.tape.(i) in
    if n.mark = tok then incr live
    else begin
      incr dead_total;
      let name = op_name n.op in
      dead :=
        (match List.assoc_opt name !dead with
        | Some count -> (name, count + 1) :: List.remove_assoc name !dead
        | None -> (name, 1) :: !dead)
    end
  done;
  let dead_ops = List.sort compare !dead in
  {
    tape_nodes = ctx.count;
    live = !live;
    dead = !dead_total;
    dead_ops;
  }

let last_flow_report ctx = ctx.last_flow

let backward ctx loss =
  if !sanitize then san_operand ctx "backward" loss;
  if T.size loss.value <> 1 then invalid_arg "Ad.backward: loss not scalar";
  T.unsafe_set1 loss.grad 0 1.0;
  for i = ctx.count - 1 downto 0 do
    backprop ctx.tape.(i)
  done;
  if !sanitize then ctx.last_flow <- Some (flow_audit ctx loss)
