module T = Dt_tensor.Tensor
module G = Dt_tensor.Gemm

(* [node], [ctx] and the plan types form one recursive group and reuse a
   few label names (e.g. [gen]); field access is unambiguous from the
   annotations, so the duplicate-definition warning is noise here. *)
[@@@warning "-30"]

(* Unary op kinds share one tape constructor; forward/backward dispatch on
   the kind with direct loops (no per-element closure calls). *)
type ukind = Sigmoid | Tanh | Relu | Abs | Expc | Affine of float * float

(* [ctx_id]/[gen] stamp where and when a node was built so sanitize mode
   can reject stale nodes ([gen] older than the context's) and nodes fed
   to a foreign context.  Leaves carry [ctx_id = -1]: they own external
   buffers and survive resets.  [mark] is scratch for the gradient-flow
   audit (tape nodes are context-private, so marking is race-free).

   [op] is mutable solely so compiled-plan replay can rebind per-call
   immediates (constant payloads arrive by blit; MAPE targets arrive by
   swapping the op in place) and so [reduce_max] can defer its argmax to
   execution time. *)
type node = {
  value : T.t;
  grad : T.t;
  mutable op : op;
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
  | ReduceMax of node * int (* v, argmax at forward time *)
  | Mape of node * float (* pred, target *)
  (* ---- batched (matmul-class) ops ---- *)
  | Matmul of node * node (* x [B x k], w [n x k]; out = x w^T *)
  | AddRow of node * node (* a [B x n] + broadcast bias [1 x n] *)
  | StackRows of (node * int) array (* out row r = row i of source r *)
  | ColSlice of node * int (* v, pos; contiguous column window copy *)
  | ConcatCols of node array (* horizontal concat of [B x *] blocks *)
  | RowBlend of node * node * float array (* mask row-selects a / b *)
  | MapeBatch of node * float array (* pred [B x 1], per-row targets *)
  | LstmBatch of lstm (* a whole batched LSTM stack; see [lstm_batch] *)

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

and ctx = {
  mutable buf : T.buf; (* arena; abandoned (not copied) on growth *)
  mutable used : int; (* floats handed out from [buf] *)
  mutable tape : node array;
  mutable count : int;
  id : int;
  mutable gen : int; (* bumped by [reset]; stamped onto new nodes *)
  mutable audit_token : int; (* distinct mark per gradient-flow audit *)
  mutable last_flow : flow_report option;
  mutable mode : mode;
  mutable replayed : plan option; (* plan whose forward ran last, if any *)
}

(* Interp is the define-by-run interpreter (also the record pass: the
   tape IS the recording).  Replay re-runs the caller's trace as a cheap
   cursor walk over a sealed plan: each op call verifies structure by
   physical operand identity, rebinds immediates, and returns the
   pre-allocated plan node; kernels then execute in one batch. *)
and mode = Interp | Replay of replay
and replay = { rplan : plan; mutable cursor : int }

and plan = {
  psan : bool; (* sealed under sanitize; a toggle invalidates the plan *)
  pnodes : node array; (* mirrors of the recorded tape, in tape order *)
  pinstrs : pinstr array; (* fused schedule, one slot per tape position *)
  proot : node;
  pgslab : T.buf; (* adjoint slab *)
  pflow : flow_report option; (* flow audit hoisted to seal time *)
  pbytes : int; (* value + adjoint slab bytes *)
  pbeta : node array; (* beta-accumulating outputs poisoned per replay *)
  (* Deferred weight-gradient outer products, one entry per leaf/const
     matrix: (matrix grad, out grads, vector values), pairs in the order
     the interpreter's reverse pass would apply them (descending tape
     index).  See the deferral rules in [seal]. *)
  pgers : (T.t * T.t array * T.t array) array;
}

and pinstr =
  | Pop of node (* unfused: shared forward kernel + shared backprop *)
  | Pmv of node (* matvec whose weight-grad ger is deferred to pgers *)
  | Pskip (* interior of a fusion group *)
  | Pfadd3 of fadd3 (* (a + b) + c *)
  | Pfgate of fgate (* sigmoid/tanh over a window of src *)
  | Pfcell of fcell (* a1*b1 + a2*b2 (the LSTM cell update) *)

and fadd3 = { a3out : node; a3a : node; a3b : node; a3c : node }
and fgate = { fgout : node; fgsrc : node; fgpos : int; fgsig : bool }

(* [fcm1]/[fcm2] are the Add's operands in order (forward); [fchi]/[fclo]
   the same two muls ordered by descending tape index (backward). *)
and fcell = { fcout : node; fcm1 : node; fcm2 : node; fchi : node; fclo : node }

and flow_report = {
  tape_nodes : int;
  live : int;
  dead : int;
  dead_ops : (string * int) list;
}

(* ---- sanitize mode ----

   Off by default; enabled by DIFFTUNE_SANITIZE=1 or [set_sanitize].
   Correct code behaves identically with it on — it only adds checks:
   operand generation/context validation, shape inference with
   op-qualified messages, arena poisoning on reset plus a post-op poison
   scan, and a gradient-flow audit after every [backward]. *)

exception Shape_error of string
exception Use_after_reset of string
exception Uninitialized_read of string

let sanitize =
  ref
    (match Sys.getenv_opt "DIFFTUNE_SANITIZE" with
    | Some ("1" | "true" | "on" | "yes") -> true
    | _ -> false)

let set_sanitize b = sanitize := b
let sanitize_enabled () = !sanitize

(* ---- compiled-executor gate ----

   Always on in production.  Tests call [set_compile false] to force
   every [with_plan] call through the interpreter, the bit-exact oracle:
   the record pass IS an interpreted pass, and replay must reproduce its
   bits exactly. *)

let compile_on = ref true
let set_compile b = compile_on := b

(* Raised internally by replay when the caller's trace diverges from the
   sealed plan (evicts the plan and falls back to a fresh record pass, so
   cache-key collisions cost time, never correctness).  Not exported. *)
exception Plan_mismatch of string

let rmismatch what = raise (Plan_mismatch what)

(* ---- plan statistics (process-global, atomic) ---- *)

type plan_stats = {
  plans_compiled : int;
  plan_hits : int;
  plan_misses : int;
  plan_evictions : int;
  fused_ops : int;
  slab_bytes : int;
}

let s_compiled = Atomic.make 0
let s_hits = Atomic.make 0
let s_misses = Atomic.make 0
let s_evictions = Atomic.make 0
let s_fused = Atomic.make 0
let s_slab = Atomic.make 0

let plan_stats () =
  {
    plans_compiled = Atomic.get s_compiled;
    plan_hits = Atomic.get s_hits;
    plan_misses = Atomic.get s_misses;
    plan_evictions = Atomic.get s_evictions;
    fused_ops = Atomic.get s_fused;
    slab_bytes = Atomic.get s_slab;
  }

let reset_plan_stats () =
  Atomic.set s_compiled 0;
  Atomic.set s_hits 0;
  Atomic.set s_misses 0;
  Atomic.set s_evictions 0;
  Atomic.set s_fused 0;
  Atomic.set s_slab 0

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
    mode = Interp;
    replayed = None;
  }

let reset ctx =
  (* Poison the high-water region first so any node that survives the
     reset reads NaN payloads instead of plausible stale values. *)
  if !sanitize then T.fill_poison_buf ctx.buf ~pos:0 ~len:ctx.used;
  ctx.used <- 0;
  ctx.count <- 0;
  ctx.gen <- ctx.gen + 1;
  ctx.mode <- Interp;
  ctx.replayed <- None

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

(* ---- shared forward execution ----

   One dispatch used by both the interpreted constructors and compiled
   replay, so a plan cannot drift from the oracle: same kernels, same
   call order, same operand data => identical bits.  View ops (Row,
   Slice) and inputs execute as no-ops; [reduce_max] computes its argmax
   here (not at trace time) because under replay the operand's value is
   only current at execution. *)
let exec_forward n =
  match n.op with
  | Leaf | Const | Row _ | Slice _ -> ()
  | Matvec (m, x) ->
      (* Fault site: reintroduces the PR 2 gemv bug (accumulate into a
         fresh slot) so the fault matrix can exercise the poison
         detector — consulted per execution, interpreted or compiled. *)
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
  | ReduceMax (v, _) ->
      let best = ref 0 in
      for i = 1 to T.size v.value - 1 do
        if T.unsafe_get1 v.value i > T.unsafe_get1 v.value !best then best := i
      done;
      n.op <- ReduceMax (v, !best);
      T.unsafe_set1 n.value 0 (T.unsafe_get1 v.value !best)
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

(* ---- replay cursor ----

   During replay each op call consumes the next plan node, checks the op
   tag and operand physical identity (operands passed by the trace ARE
   earlier cursor returns, so pointer equality is the full structural
   check), rebinds any per-call immediates, and returns the plan node.
   Any divergence raises the internal [Plan_mismatch]. *)

let rnext r name =
  let pn = r.rplan.pnodes in
  if r.cursor >= Array.length pn then
    rmismatch (name ^ ": trace is longer than the sealed plan");
  let n = Array.unsafe_get pn r.cursor in
  r.cursor <- r.cursor + 1;
  n

let leaf ~value ~grad =
  if not (T.same_shape value grad) then
    invalid_arg "Ad.leaf: value/grad shape mismatch";
  { value; grad; op = Leaf; ctx_id = -1; gen = 0; mark = 0 }

let constant ctx t =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "constant" in
      match n.op with
      | Const when T.same_shape n.value t ->
          T.blit ~src:t ~dst:n.value;
          n
      | _ -> rmismatch "constant")
  | Interp ->
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
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "scalar" in
      match n.op with
      | Const when T.size n.value = 1 ->
          T.unsafe_set1 n.value 0 v;
          n
      | _ -> rmismatch "scalar")
  | Interp ->
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
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "matvec" in
      match n.op with
      | Matvec (m', x') when m' == m && x' == x -> n
      | _ -> rmismatch "matvec")
  | Interp ->
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
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "row" in
      match n.op with
      (* The value is a view bound at seal time, so the row index is
         structural: a different index means a different plan. *)
      | Row (m', i') when m' == m && i' = i -> n
      | _ -> rmismatch "row")
  | Interp ->
      if i < 0 || i >= m.value.T.rows then
        invalid_arg "Ad.row: index out of range";
      let cols = m.value.T.cols in
      make_view ctx ~view:(T.row_view m.value i) ~rows:1 ~cols (Row (m, i))

let add ctx a b =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "add" in
      match n.op with
      | Add (a', b') when a' == a && b' == b -> n
      | _ -> rmismatch "add")
  | Interp ->
      if !sanitize then san_same ctx "add" a b;
      if not (T.same_shape a.value b.value) then
        invalid_arg "Ad.add: shape mismatch";
      let n =
        make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Add (a, b))
      in
      exec_forward n;
      if !sanitize then ignore (san_output "add" n);
      n

let mul ctx a b =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "mul" in
      match n.op with
      | Mul (a', b') when a' == a && b' == b -> n
      | _ -> rmismatch "mul")
  | Interp ->
      if !sanitize then san_same ctx "mul" a b;
      if not (T.same_shape a.value b.value) then
        invalid_arg "Ad.mul: shape mismatch";
      let n =
        make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Mul (a, b))
      in
      exec_forward n;
      if !sanitize then ignore (san_output "mul" n);
      n

(* parts (a list or array from the caller) vs the sealed operand array *)
let same_parts stored given =
  Array.length stored = Array.length given
  && begin
       let ok = ref true in
       Array.iteri (fun i p -> if stored.(i) != p then ok := false) given;
       !ok
     end

let concat ctx parts =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "concat" in
      match n.op with
      | Concat stored when same_parts stored (Array.of_list parts) -> n
      | _ -> rmismatch "concat")
  | Interp ->
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
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "slice" in
      match n.op with
      | Slice (v', pos') when v' == v && pos' = pos && n.value.T.cols = len ->
          n
      | _ -> rmismatch "slice")
  | Interp ->
      (* Slicing a matrix treats it as a flat vector and can span rows;
         sanitize mode insists on a row-vector operand. *)
      if !sanitize then begin
        san_vector "slice" "operand" v;
        if pos < 0 || len <= 0 || pos + len > T.size v.value then
          raise
            (Shape_error
               (Printf.sprintf
                  "Ad.slice: window [%d, %d) out of range for operand %s" pos
                  (pos + len) (shape_str v.value)))
      end;
      if pos < 0 || len <= 0 || pos + len > T.size v.value then
        invalid_arg "Ad.slice: out of range";
      make_view ctx ~view:(T.sub v.value ~pos ~len) ~rows:1 ~cols:len
        (Slice (v, pos))

let ukind_eq a b =
  match (a, b) with
  | Sigmoid, Sigmoid | Tanh, Tanh | Relu, Relu | Abs, Abs | Expc, Expc -> true
  | Affine (m1, a1), Affine (m2, a2) ->
      Int64.equal (Int64.bits_of_float m1) (Int64.bits_of_float m2)
      && Int64.equal (Int64.bits_of_float a1) (Int64.bits_of_float a2)
  | _ -> false

let unary ctx v kind =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "unary" in
      match n.op with
      | Unary (v', k') when v' == v && ukind_eq k' kind -> n
      | _ -> rmismatch "unary")
  | Interp ->
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
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "max2" in
      match n.op with
      | Max2 (a', b') when a' == a && b' == b -> n
      | _ -> rmismatch "max2")
  | Interp ->
      if !sanitize then san_same ctx "max2" a b;
      if not (T.same_shape a.value b.value) then
        invalid_arg "Ad.max2: shape mismatch";
      let n =
        make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Max2 (a, b))
      in
      exec_forward n;
      if !sanitize then ignore (san_output "max2" n);
      n

let div ctx a b =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "div" in
      match n.op with
      | Div (a', b') when a' == a && b' == b -> n
      | _ -> rmismatch "div")
  | Interp ->
      if !sanitize then san_same ctx "div" a b;
      if not (T.same_shape a.value b.value) then
        invalid_arg "Ad.div: shape mismatch";
      let n =
        make ctx ~rows:a.value.T.rows ~cols:a.value.T.cols (Div (a, b))
      in
      exec_forward n;
      if !sanitize then ignore (san_output "div" n);
      n

let sum_all ctx v =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "sum_all" in
      match n.op with
      | SumAll v' when v' == v -> n
      | _ -> rmismatch "sum_all")
  | Interp ->
      let n = make ctx ~rows:1 ~cols:1 (SumAll v) in
      exec_forward n;
      if !sanitize then ignore (san_output "sum_all" n);
      n

let reduce_max ctx v =
  match ctx.mode with
  | Replay r -> (
      let n = rnext r "reduce_max" in
      match n.op with
      (* The argmax is recomputed at execution time, when the operand's
         replay value is current. *)
      | ReduceMax (v', _) when v' == v -> n
      | _ -> rmismatch "reduce_max")
  | Interp ->
      let n = make ctx ~rows:1 ~cols:1 (ReduceMax (v, 0)) in
      exec_forward n;
      n

let mape ctx pred ~target =
  match ctx.mode with
  | Replay r -> (
      if target <= 0.0 then invalid_arg "Ad.mape: target must be positive";
      let n = rnext r "mape" in
      match n.op with
      | Mape (pred', _) when pred' == pred ->
          n.op <- Mape (pred, target);
          n
      | _ -> rmismatch "mape")
  | Interp ->
      if !sanitize && T.size pred.value <> 1 then
        raise
          (Shape_error
             (Printf.sprintf "Ad.mape: prediction is %s, expected a 1x1 scalar"
                (shape_str pred.value)));
      if T.size pred.value <> 1 then
        invalid_arg "Ad.mape: prediction not scalar";
      if target <= 0.0 then invalid_arg "Ad.mape: target must be positive";
      let n = make ctx ~rows:1 ~cols:1 (Mape (pred, target)) in
      exec_forward n;
      if !sanitize then ignore (san_output "mape" n);
      n

(* ---- batched (matmul-class) ops ----

   The batched LSTM packs B sequences per timestep into [B x hidden]
   matrices; these ops are the matrix analogues of matvec / add / slice
   / concat / mape, with both gradient paths expressed as gemm calls.
   They run only on the interpreter: a batched trace's shape recurs too
   rarely for a sealed plan to replay, so [with_plan] refuses a trace
   that holds one, and meeting one during a replay means the trace has
   left its plan. *)

let interp_only ctx name =
  match ctx.mode with Replay _ -> rmismatch name | Interp -> ()

let matmul ctx ~x ~w =
  interp_only ctx "matmul";
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
  interp_only ctx "add_row";
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
  interp_only ctx "stack_rows";
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
  interp_only ctx "cols";
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
  interp_only ctx "concat_cols";
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
  interp_only ctx "row_blend";
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
  interp_only ctx "mape_batch";
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
  interp_only ctx "lstm_batch";
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

(* ---- fused kernels ----

   Only compiled plans run these, and only when sealed with sanitize off
   (the record pass is always fully interpreted, so fused plans were
   validated at record time).  Every kernel reproduces the unfused
   sequence bit for bit: same elementwise expressions, same accumulation
   order into shared buffers, including the [0.0 +. g] normalization that
   interpreted zero-initialized adjoints introduce (it maps -0.0 to +0.0,
   so skipping it would diverge on negative-zero gradients). *)

let fadd3_forward (f : fadd3) =
  let ov = f.a3out.value
  and av = f.a3a.value
  and bv = f.a3b.value
  and cv = f.a3c.value in
  let od = ov.T.data and ad = av.T.data and bd = bv.T.data and cd = cv.T.data in
  let rows = ov.T.rows and cols = ov.T.cols in
  for i = 0 to rows - 1 do
    let ob = ov.T.off + (i * ov.T.rs)
    and ab = av.T.off + (i * av.T.rs)
    and bb = bv.T.off + (i * bv.T.rs)
    and cb = cv.T.off + (i * cv.T.rs) in
    for j = 0 to cols - 1 do
      Bigarray.Array1.unsafe_set od (ob + j)
        (Bigarray.Array1.unsafe_get ad (ab + j)
         +. Bigarray.Array1.unsafe_get bd (bb + j)
        +. Bigarray.Array1.unsafe_get cd (cb + j))
    done
  done

let fadd3_backward (f : fadd3) =
  let og = f.a3out.grad
  and ag = f.a3a.grad
  and bg = f.a3b.grad
  and cg = f.a3c.grad in
  let gd = og.T.data and ad = ag.T.data and bd = bg.T.data and cd = cg.T.data in
  let rows = og.T.rows and cols = og.T.cols in
  for i = 0 to rows - 1 do
    let gb = og.T.off + (i * og.T.rs)
    and ab = ag.T.off + (i * ag.T.rs)
    and bb = bg.T.off + (i * bg.T.rs)
    and cb = cg.T.off + (i * cg.T.rs) in
    for j = 0 to cols - 1 do
      let g = Bigarray.Array1.unsafe_get gd (gb + j) in
      let t = 0.0 +. g in
      Bigarray.Array1.unsafe_set cd (cb + j)
        (Bigarray.Array1.unsafe_get cd (cb + j) +. g);
      Bigarray.Array1.unsafe_set ad (ab + j)
        (Bigarray.Array1.unsafe_get ad (ab + j) +. t);
      Bigarray.Array1.unsafe_set bd (bb + j)
        (Bigarray.Array1.unsafe_get bd (bb + j) +. t)
    done
  done

(* A gate's input is a [slice], whose output is a single row, so one
   flat loop covers it. *)
let fgate_forward (g : fgate) =
  let ov = g.fgout.value and sv = g.fgsrc.value in
  let od = ov.T.data and sd = sv.T.data in
  let ob = ov.T.off and sb = sv.T.off + g.fgpos in
  if g.fgsig then
    for j = 0 to T.size ov - 1 do
      Bigarray.Array1.unsafe_set od (ob + j)
        (1.0 /. (1.0 +. exp (-.Bigarray.Array1.unsafe_get sd (sb + j))))
    done
  else
    for j = 0 to T.size ov - 1 do
      Bigarray.Array1.unsafe_set od (ob + j)
        (fast_tanh (Bigarray.Array1.unsafe_get sd (sb + j)))
    done

let fgate_backward (g : fgate) =
  let ov = g.fgout.value and og = g.fgout.grad and sg = g.fgsrc.grad in
  let od = ov.T.data and gd = og.T.data and sd = sg.T.data in
  let ob = ov.T.off and gb = og.T.off and sb = sg.T.off + g.fgpos in
  if g.fgsig then
    for j = 0 to T.size ov - 1 do
      let y = Bigarray.Array1.unsafe_get od (ob + j) in
      let d = Bigarray.Array1.unsafe_get gd (gb + j) *. y *. (1.0 -. y) in
      Bigarray.Array1.unsafe_set sd (sb + j)
        (Bigarray.Array1.unsafe_get sd (sb + j) +. (0.0 +. d))
    done
  else
    for j = 0 to T.size ov - 1 do
      let y = Bigarray.Array1.unsafe_get od (ob + j) in
      let d = Bigarray.Array1.unsafe_get gd (gb + j) *. (1.0 -. (y *. y)) in
      Bigarray.Array1.unsafe_set sd (sb + j)
        (Bigarray.Array1.unsafe_get sd (sb + j) +. (0.0 +. d))
    done

let fcell_forward (c : fcell) =
  match (c.fcm1.op, c.fcm2.op) with
  | Mul (a1, b1), Mul (a2, b2) ->
      let ov = c.fcout.value in
      let a1v = a1.value and b1v = b1.value
      and a2v = a2.value and b2v = b2.value in
      let od = ov.T.data in
      let rows = ov.T.rows and cols = ov.T.cols in
      for i = 0 to rows - 1 do
        let ob = ov.T.off + (i * ov.T.rs)
        and a1b = a1v.T.off + (i * a1v.T.rs)
        and b1b = b1v.T.off + (i * b1v.T.rs)
        and a2b = a2v.T.off + (i * a2v.T.rs)
        and b2b = b2v.T.off + (i * b2v.T.rs) in
        for j = 0 to cols - 1 do
          Bigarray.Array1.unsafe_set od (ob + j)
            ((Bigarray.Array1.unsafe_get a1v.T.data (a1b + j)
             *. Bigarray.Array1.unsafe_get b1v.T.data (b1b + j))
            +. (Bigarray.Array1.unsafe_get a2v.T.data (a2b + j)
               *. Bigarray.Array1.unsafe_get b2v.T.data (b2b + j)))
        done
      done
  | _ -> assert false

let fcell_backward (c : fcell) =
  match (c.fchi.op, c.fclo.op) with
  | Mul (ha, hb), Mul (la, lb) ->
      let og = c.fcout.grad in
      let gd = og.T.data in
      let rows = og.T.rows and cols = og.T.cols in
      for i = 0 to rows - 1 do
        let gb = og.T.off + (i * og.T.rs)
        and hab = ha.grad.T.off + (i * ha.grad.T.rs)
        and hbb = hb.grad.T.off + (i * hb.grad.T.rs)
        and havb = ha.value.T.off + (i * ha.value.T.rs)
        and hbvb = hb.value.T.off + (i * hb.value.T.rs)
        and lab = la.grad.T.off + (i * la.grad.T.rs)
        and lbb = lb.grad.T.off + (i * lb.grad.T.rs)
        and lavb = la.value.T.off + (i * la.value.T.rs)
        and lbvb = lb.value.T.off + (i * lb.value.T.rs) in
        for j = 0 to cols - 1 do
          let t = 0.0 +. Bigarray.Array1.unsafe_get gd (gb + j) in
          Bigarray.Array1.unsafe_set ha.grad.T.data (hab + j)
            (Bigarray.Array1.unsafe_get ha.grad.T.data (hab + j)
            +. (t *. Bigarray.Array1.unsafe_get hb.value.T.data (hbvb + j)));
          Bigarray.Array1.unsafe_set hb.grad.T.data (hbb + j)
            (Bigarray.Array1.unsafe_get hb.grad.T.data (hbb + j)
            +. (t *. Bigarray.Array1.unsafe_get ha.value.T.data (havb + j)));
          Bigarray.Array1.unsafe_set la.grad.T.data (lab + j)
            (Bigarray.Array1.unsafe_get la.grad.T.data (lab + j)
            +. (t *. Bigarray.Array1.unsafe_get lb.value.T.data (lbvb + j)));
          Bigarray.Array1.unsafe_set lb.grad.T.data (lbb + j)
            (Bigarray.Array1.unsafe_get lb.grad.T.data (lbb + j)
            +. (t *. Bigarray.Array1.unsafe_get la.value.T.data (lavb + j)))
        done
      done
  | _ -> assert false

(* ---- plan execution ---- *)

(* Replay-time matvec: same fault site and beta rule as exec_forward's
   Matvec branch, but through the vectorized C kernel (bitwise identical
   to T.gemv; see lib/tensor/gemm_stubs.c).  The interpreted path keeps
   the pure-OCaml kernel as the oracle. *)
let exec_matvec_fast m x n =
  let beta = if Dt_util.Faultsim.fire "ad.gemv_beta" then 1.0 else 0.0 in
  T.gemv_fast ~m:m.value ~x:x.value ~y:n.value ~beta

let exec_plan p =
  (* Replay-time sanitize: the record pass already proved every other op
     writes its full output as a pure function of its inputs, so the only
     use-before-write risk left is the beta-accumulate class (gemv into
     its own output slot).  Poison exactly those slots and scan them
     after each execution; everything else was validated at seal. *)
  if p.psan then
    Array.iter
      (fun n ->
        let v = n.value in
        T.fill_poison_buf v.T.data ~pos:v.T.off ~len:(T.size v))
      p.pbeta;
  for i = 0 to Array.length p.pinstrs - 1 do
    match Array.unsafe_get p.pinstrs i with
    | Pop n | Pmv n -> (
        match n.op with
        | Matvec (m, x) ->
            exec_matvec_fast m x n;
            if p.psan then ignore (san_output "matvec" n)
        | _ -> exec_forward n)
    | Pskip -> ()
    | Pfadd3 f -> fadd3_forward f
    | Pfgate g -> fgate_forward g
    | Pfcell c -> fcell_forward c
  done

let plan_backward p =
  (* One memset replaces the interpreter's per-node adjoint zeroing —
     same bytes, same zero, one pass. *)
  Bigarray.Array1.fill p.pgslab 0.0;
  T.unsafe_set1 p.proot.grad 0 1.0;
  for i = Array.length p.pinstrs - 1 downto 0 do
    match Array.unsafe_get p.pinstrs i with
    | Pop n -> backprop n
    | Pmv n -> (
        (* Input gradient now (downstream backprops read it); the weight
           gradient is deferred to the batched pass below. *)
        match n.op with
        | Matvec (m, x) ->
            T.gemv_t_fast ~m:m.value ~x:n.grad ~y:x.grad ~beta:1.0
        | _ -> assert false)
    | Pskip -> ()
    | Pfadd3 f -> fadd3_backward f
    | Pfgate g -> fgate_backward g
    | Pfcell c -> fcell_backward c
  done;
  (* Leaf/const weight gradients: all of a matrix's rank-1 updates
     back to back, in the same order the loop above would have applied
     them.  Nothing read these gradients mid-pass (that's the deferral
     condition), so this is bitwise identical — and the matrix stays
     cache-hot across its whole update train. *)
  Array.iter
    (fun (g, xs, ys) ->
      for t = 0 to Array.length xs - 1 do
        T.ger_fast ~m:g ~x:xs.(t) ~y:ys.(t)
      done)
    p.pgers

(* ---- sealing: tape -> plan ----

   Runs right after a record pass, while the interpreted tape is intact.
   Mirrors every tape node into plan-private nodes whose values and
   adjoints live in two exactly-sized slabs (one slot per node, so
   replay never grows an arena mid-loop), decides fusion groups, and
   hoists the sanitizer's whole-graph work (shape checks happened during
   the record pass; the flow audit is computed here once and
   re-installed on every replay backward).  The record pass has already
   refused batched ops, so the tape holds only per-sequence ones. *)

let seal ctx ~root =
  let n = ctx.count in
  if n = 0 then invalid_arg "Ad.with_plan: trace recorded no tape nodes";
  if root.ctx_id <> ctx.id || root.gen <> ctx.gen then
    invalid_arg "Ad.with_plan: trace root is not a node of the traced tape";
  let psan = !sanitize in
  let pflow = if psan then Some (flow_audit ctx root) else None in
  (* Temporarily use [mark] as the tape index (restored to 0 below so
     later audit tokens can never collide with an index). *)
  for i = 0 to n - 1 do
    ctx.tape.(i).mark <- i
  done;
  let tape = ctx.tape in
  let owned q = q.ctx_id = ctx.id && q.gen = ctx.gen in
  (* Consumer counts, for single-consumer fusion eligibility. *)
  let cnt = Array.make n 0 in
  for i = 0 to n - 1 do
    List.iter
      (fun o -> if owned o then cnt.(o.mark) <- cnt.(o.mark) + 1)
      (operands tape.(i).op)
  done;
  (* Fusion decisions on the recorded tape (indices refer to the tape;
     the mirrors reproduce the same structure).  Fusion stays on for
     sanitize-sealed plans: the record pass validated every op
     individually, and the replay-time poison scan only ever reads
     matvec outputs, which are never fusion inners — so fused groups
     cost the sanitizer nothing. *)
  let dec = Array.make n `Pop in
  let ri = root.mark in
  for i = 2 to n - 1 do
      if dec.(i) = `Pop then begin
        match tape.(i).op with
        | Add (x, y)
          when owned x && owned y
               && (match (x.op, y.op) with Mul _, Mul _ -> true | _ -> false)
               && ((x.mark = i - 1 && y.mark = i - 2)
                  || (x.mark = i - 2 && y.mark = i - 1))
               && cnt.(x.mark) = 1 && cnt.(y.mark) = 1
               && x.mark <> ri && y.mark <> ri
               && dec.(x.mark) = `Pop && dec.(y.mark) = `Pop ->
            dec.(x.mark) <- `Skip;
            dec.(y.mark) <- `Skip;
            dec.(i) <- `Cell
        | Add (u, _)
          when owned u && u.mark = i - 1
               && (match u.op with Add _ -> true | _ -> false)
               && cnt.(u.mark) = 1 && u.mark <> ri
               && dec.(u.mark) = `Pop ->
            dec.(u.mark) <- `Skip;
            dec.(i) <- `Add3
        | Unary (u, (Sigmoid | Tanh))
          when owned u && u.mark = i - 1
               && (match u.op with Slice _ -> true | _ -> false)
               && cnt.(u.mark) = 1 && u.mark <> ri
               && dec.(u.mark) = `Pop ->
            dec.(u.mark) <- `Skip;
            dec.(i) <- `Gate
        | _ -> ()
      end
    done;
  (* Slab offsets in tape order: a value slot for every node but the
     views (Row, Slice), an adjoint slot for every node. *)
  let off = Array.make n 0 and goff = Array.make n 0 in
  let total = ref 0 and gtotal = ref 0 in
  for i = 0 to n - 1 do
    let size = T.size tape.(i).value in
    (match tape.(i).op with
    | Row _ | Slice _ -> ()
    | _ ->
        off.(i) <- !total;
        total := !total + size);
    goff.(i) <- !gtotal;
    gtotal := !gtotal + size
  done;
  let pslab =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max !total 1)
  in
  let pgslab =
    Bigarray.Array1.create Bigarray.float64 Bigarray.c_layout (max !gtotal 1)
  in
  if psan then T.fill_poison_buf pslab ~pos:0 ~len:(max !total 1);
  let pid = Atomic.fetch_and_add ctx_counter 1 in
  let mirrors = Array.make n dummy in
  let map q = if owned q then mirrors.(q.mark) else q in
  for i = 0 to n - 1 do
    let o = tape.(i) in
    let op' =
      match o.op with
      | Leaf -> Leaf
      | Const -> Const
      | Matvec (m, x) -> Matvec (map m, map x)
      | Row (m, r) -> Row (map m, r)
      | Add (a, b) -> Add (map a, map b)
      | Mul (a, b) -> Mul (map a, map b)
      | Concat parts -> Concat (Array.map map parts)
      | Slice (v, pos) -> Slice (map v, pos)
      | Unary (v, k) -> Unary (map v, k)
      | Max2 (a, b) -> Max2 (map a, map b)
      | Div (a, b) -> Div (map a, map b)
      | SumAll v -> SumAll (map v)
      | ReduceMax (v, bi) -> ReduceMax (map v, bi)
      | Mape (p, t) -> Mape (map p, t)
      | Matmul _ | AddRow _ | StackRows _ | ColSlice _ | ConcatCols _
      | RowBlend _ | MapeBatch _ | LstmBatch _ ->
          assert false
    in
    let rows = o.value.T.rows and cols = o.value.T.cols in
    let value =
      match op' with
      | Row (m, r) -> T.row_view m.value r
      | Slice (v, pos) -> T.sub v.value ~pos ~len:cols
      | _ -> T.of_buf pslab ~off:off.(i) ~rows ~cols
    in
    let grad = T.of_buf pgslab ~off:goff.(i) ~rows ~cols in
    mirrors.(i) <- { value; grad; op = op'; ctx_id = pid; gen = 0; mark = i }
  done;
  (* ger deferral: a matvec's weight-gradient update (dM += dy x^T) may
     be batched at the end of the reverse pass iff nothing reads M's
     gradient mid-pass.  That holds exactly when M is a Leaf or Const
     (no backprop of its own) used ONLY as the matrix operand of
     matvecs: any other use would interleave accumulations into M.grad
     with the deferred updates and change the per-element order.  The
     input-gradient half (gemv_t) always stays in place — downstream
     backprops consume it. *)
  let disq : node list ref = ref [] in
  for i = 0 to n - 1 do
    match tape.(i).op with
    | Matvec (_, x) -> disq := x :: !disq
    | op -> List.iter (fun o -> disq := o :: !disq) (operands op)
  done;
  let defer_ok m =
    (match m.op with Leaf | Const -> true | _ -> false)
    && not (List.memq m !disq)
  in
  let fused = ref 0 in
  let pinstrs =
    Array.init n (fun i ->
        match dec.(i) with
        | `Pop -> (
            match tape.(i).op with
            | Matvec (m0, _) when defer_ok m0 -> Pmv mirrors.(i)
            | _ -> Pop mirrors.(i))
        | `Skip -> Pskip
        | `Add3 -> (
            incr fused;
            let out = mirrors.(i) in
            match out.op with
            | Add (u, c) -> (
                match u.op with
                | Add (a, b) -> Pfadd3 { a3out = out; a3a = a; a3b = b; a3c = c }
                | _ -> assert false)
            | _ -> assert false)
        | `Gate -> (
            incr fused;
            let out = mirrors.(i) in
            match out.op with
            | Unary (u, k) -> (
                let s = match k with Sigmoid -> true | _ -> false in
                match u.op with
                | Slice (v, pos) ->
                    Pfgate { fgout = out; fgsrc = v; fgpos = pos; fgsig = s }
                | _ -> assert false)
            | _ -> assert false)
        | `Cell -> (
            incr fused;
            let out = mirrors.(i) in
            match out.op with
            | Add (m1, m2) ->
                let hi, lo = if m1.mark > m2.mark then (m1, m2) else (m2, m1) in
                Pfcell { fcout = out; fcm1 = m1; fcm2 = m2; fchi = hi; fclo = lo }
            | _ -> assert false))
  in
  let pbeta =
    Array.of_list
      (List.filter
         (fun m -> match m.op with Matvec _ -> true | _ -> false)
         (Array.to_list mirrors))
  in
  (* Group the deferred gers by (mirrored) weight matrix.  Iterating the
     schedule ascending and consing leaves each list head at the HIGHEST
     tape index — exactly the descending order the reverse pass applies
     them in, so no re-sort is needed. *)
  let pgers =
    let groups : (node * (node * node) list ref) list ref = ref [] in
    Array.iter
      (fun pi ->
        match pi with
        | Pmv nd -> (
            match nd.op with
            | Matvec (m, x) -> (
                match List.find_opt (fun (w, _) -> w == m) !groups with
                | Some (_, l) -> l := (nd, x) :: !l
                | None -> groups := (m, ref [ (nd, x) ]) :: !groups)
            | _ -> assert false)
        | _ -> ())
      pinstrs;
    Array.of_list
      (List.rev_map
         (fun (w, l) ->
           ( w.grad,
             Array.of_list (List.map (fun (nd, _) -> nd.grad) !l),
             Array.of_list (List.map (fun (_, x) -> x.value) !l) ))
         !groups)
  in
  (* Restore audit scratch. *)
  for i = 0 to n - 1 do
    tape.(i).mark <- 0
  done;
  let pbytes = 8 * (max !total 1 + max !gtotal 1) in
  Atomic.incr s_compiled;
  ignore (Atomic.fetch_and_add s_fused !fused);
  ignore (Atomic.fetch_and_add s_slab pbytes);
  {
    psan;
    pnodes = mirrors;
    pinstrs;
    proot = mirrors.(ri);
    pgslab;
    pflow;
    pbytes;
    pbeta;
    pgers;
  }

(* ---- plan cache + capture driver ----

   Plans pay where one trace recurs: a per-block training step (table
   descent, the Ithemal fit) revisits its block every pass.  A key is
   recorded twice before its plan is sealed, so a one-off trace never
   pays the seal, and a cache holds the 64 most recently used keys. *)

let plan_capacity = 64
let plan_warmup = 2

type centry = { mutable cplan : plan option; mutable seen : int }

type plan_cache = {
  tbl : (string, centry) Hashtbl.t;
  mutable order : string list; (* most recently used first *)
  powner : Dt_util.Sync.owner;
      (* a plan cache is confined to one domain at a time, like the ctx
         whose arena its plans point into; DIFFTUNE_RACECHECK=1 turns
         that convention into a checked invariant *)
}

let plan_cache () =
  {
    tbl = Hashtbl.create 64;
    order = [];
    powner = Dt_util.Sync.owner "ad.plan_cache";
  }

let drop_plan entry =
  match entry.cplan with
  | Some p ->
      entry.cplan <- None;
      Atomic.incr s_evictions;
      ignore (Atomic.fetch_and_add s_slab (-p.pbytes))
  | None -> ()

let cache_touch c key =
  c.order <- key :: List.filter (fun k -> not (String.equal k key)) c.order

let cache_evict_excess c =
  while Hashtbl.length c.tbl > plan_capacity do
    match List.rev c.order with
    | [] -> Hashtbl.reset c.tbl
    | victim :: _ ->
        (match Hashtbl.find_opt c.tbl victim with
        | Some e -> drop_plan e
        | None -> ());
        Hashtbl.remove c.tbl victim;
        c.order <- List.filter (fun k -> not (String.equal k victim)) c.order
  done

(* Every record pass refuses a batched op, so a batched trace under
   [with_plan] fails on its first call rather than when it would seal. *)
let reject_batched ctx =
  for i = 0 to ctx.count - 1 do
    match ctx.tape.(i).op with
    | ( Matmul _ | AddRow _ | StackRows _ | ColSlice _ | ConcatCols _
      | RowBlend _ | MapeBatch _ | LstmBatch _ ) as op ->
        invalid_arg
          (Printf.sprintf
             "Ad.with_plan: the trace holds a batched op (%s); batched \
              traces run on the interpreter"
             (op_name op))
    | _ -> ()
  done

let replay_plan ctx p f =
  reset ctx;
  let r = { rplan = p; cursor = 0 } in
  ctx.mode <- Replay r;
  let root =
    Fun.protect
      ~finally:(fun () -> ctx.mode <- Interp)
      (fun () ->
        let root = f ctx in
        if r.cursor <> Array.length p.pnodes then
          rmismatch "trace is shorter than the sealed plan";
        if root != p.proot then rmismatch "trace returned a different root";
        root)
  in
  exec_plan p;
  ctx.replayed <- Some p;
  root

let with_plan cache ctx ~key f =
  if not !compile_on then begin
    reset ctx;
    f ctx
  end
  else begin
    Dt_util.Sync.with_owner cache.powner ~site:"Ad.with_plan" @@ fun () ->
    let entry =
      match Hashtbl.find_opt cache.tbl key with
      | Some e -> e
      | None ->
          let e = { cplan = None; seen = 0 } in
          Hashtbl.replace cache.tbl key e;
          e
    in
    cache_touch cache key;
    cache_evict_excess cache;
    let record_pass () =
      Atomic.incr s_misses;
      entry.seen <- entry.seen + 1;
      reset ctx;
      let root = f ctx in
      reject_batched ctx;
      if entry.seen >= plan_warmup then begin
        drop_plan entry;
        entry.cplan <- Some (seal ctx ~root)
      end;
      root
    in
    match entry.cplan with
    | Some p when Bool.equal p.psan !sanitize -> (
        match replay_plan ctx p f with
        | root ->
            Atomic.incr s_hits;
            root
        | exception Plan_mismatch _ ->
            (* Structure changed under an unchanged key (or a key
               collision): evict and re-record.  Keys are a performance
               hint, never a correctness input. *)
            drop_plan entry;
            record_pass ())
    | Some _ ->
        (* sanitize mode changed since sealing *)
        drop_plan entry;
        record_pass ()
    | None -> record_pass ()
  end

let backward ctx loss =
  match ctx.replayed with
  | Some p when loss == p.proot ->
      plan_backward p;
      if !sanitize then ctx.last_flow <- p.pflow
  | Some _ ->
      invalid_arg
        "Ad.backward: loss is not the root of the plan this context replayed"
  | None ->
      if !sanitize then san_operand ctx "backward" loss;
      if T.size loss.value <> 1 then invalid_arg "Ad.backward: loss not scalar";
      T.unsafe_set1 loss.grad 0 1.0;
      for i = ctx.count - 1 downto 0 do
        backprop ctx.tape.(i)
      done;
      if !sanitize then ctx.last_flow <- Some (flow_audit ctx loss)
