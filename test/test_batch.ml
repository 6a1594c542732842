(* Tests for the PR 5 batched compute path: the gemm kernel family
   against naive references (random shapes, strides, betas), the
   bit-compatibility contract between gemm_nt and gemv, batched-LSTM /
   batched-surrogate equivalence with the per-sequence oracle, sanitizer
   coverage for the matmul-class ops, and determinism of batched
   training across domain counts. *)

module T = Dt_tensor.Tensor
module G = Dt_tensor.Gemm
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn
module Rng = Dt_util.Rng
module Faultsim = Dt_util.Faultsim
open Dt_surrogate

let bits = Int64.bits_of_float

let check_bits name a b =
  if not (Int64.equal (bits a) (bits b)) then
    Alcotest.failf "%s: %h <> %h (bitwise)" name a b

let close ?(tol = 1e-9) a b =
  Float.abs (a -. b) <= tol *. Float.max 1.0 (Float.max (Float.abs a) (Float.abs b))

(* A tensor whose rows live in a wider buffer: rs > cols exercises the
   stride handling of the kernels. *)
let strided_tensor rng ~rows ~cols =
  let pad = 1 + Rng.int rng 3 in
  let wide = T.randn rng ~rows ~cols:(cols + pad) ~sigma:1.0 in
  { wide with T.cols }

let maybe_strided rng ~rows ~cols =
  if Rng.bool rng then T.randn rng ~rows ~cols ~sigma:1.0
  else strided_tensor rng ~rows ~cols

(* ---- gemm family vs naive references ---- *)

let naive_gemm ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.cols - 1 do
            acc := !acc +. (T.get a i l *. T.get b l j)
          done;
          !acc +. (beta *. T.get c0 i j)))

let naive_gemm_tn ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.rows - 1 do
            acc := !acc +. (T.get a l i *. T.get b l j)
          done;
          !acc +. (beta *. T.get c0 i j)))

let naive_gemm_nt ~a ~b ~c0 ~beta =
  Array.init c0.T.rows (fun i ->
      Array.init c0.T.cols (fun j ->
          let acc = ref 0.0 in
          for l = 0 to a.T.cols - 1 do
            acc := !acc +. (T.get a i l *. T.get b j l)
          done;
          !acc +. (beta *. T.get c0 i j)))

let betas = [| 0.0; 1.0; -0.75 |]

let check_against reference kernel name () =
  let rng = Rng.create 11 in
  for trial = 1 to 60 do
    let m = 1 + Rng.int rng 9
    and n = 1 + Rng.int rng 9
    and k = 1 + Rng.int rng 9 in
    let beta = betas.(trial mod Array.length betas) in
    let a, b, c =
      reference ~rng ~m ~n ~k
    in
    let c0 = T.copy c in
    let expect, run = kernel ~a ~b ~c ~c0 ~beta in
    run ();
    Array.iteri
      (fun i row ->
        Array.iteri
          (fun j e ->
            if not (close e (T.get c i j)) then
              Alcotest.failf "%s trial %d beta %g at (%d,%d): %g <> %g" name
                trial beta i j e (T.get c i j))
          row)
      (expect ())
  done

let test_gemm_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:m ~cols:k,
        maybe_strided rng ~rows:k ~cols:n,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm ~a ~b ~c0 ~beta),
        fun () -> G.gemm ~a ~b ~c ~beta ))
    "gemm" ()

let test_gemm_tn_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:k ~cols:m,
        maybe_strided rng ~rows:k ~cols:n,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm_tn ~a ~b ~c0 ~beta),
        fun () -> G.gemm_tn ~a ~b ~c ~beta ))
    "gemm_tn" ()

let test_gemm_nt_naive () =
  check_against
    (fun ~rng ~m ~n ~k ->
      ( maybe_strided rng ~rows:m ~cols:k,
        maybe_strided rng ~rows:n ~cols:k,
        maybe_strided rng ~rows:m ~cols:n ))
    (fun ~a ~b ~c ~c0 ~beta ->
      ( (fun () -> naive_gemm_nt ~a ~b ~c0 ~beta),
        fun () -> G.gemm_nt ~a ~b ~c ~beta ))
    "gemm_nt" ()

let test_gemm_shape_checks () =
  let t rows cols = T.zeros ~rows ~cols in
  let expect_invalid name f =
    Alcotest.(check bool) name true
      (try
         f ();
         false
       with Invalid_argument _ -> true)
  in
  expect_invalid "gemm inner" (fun () ->
      G.gemm ~a:(t 2 3) ~b:(t 4 2) ~c:(t 2 2) ~beta:0.0);
  expect_invalid "gemm out" (fun () ->
      G.gemm ~a:(t 2 3) ~b:(t 3 2) ~c:(t 3 2) ~beta:0.0);
  expect_invalid "gemm_tn inner" (fun () ->
      G.gemm_tn ~a:(t 2 3) ~b:(t 3 2) ~c:(t 3 2) ~beta:0.0);
  expect_invalid "gemm_nt inner" (fun () ->
      G.gemm_nt ~a:(t 2 3) ~b:(t 2 4) ~c:(t 2 2) ~beta:0.0)

(* gemm_nt's headline contract: row i of [a b^T] is gemv ~m:b on row i
   of [a], bit for bit, for any shape (both the 4-wide tile and the
   column tail). *)
let test_gemm_nt_gemv_bits () =
  let rng = Rng.create 23 in
  for _ = 1 to 40 do
    let m = 1 + Rng.int rng 6
    and n = 1 + Rng.int rng 9
    and k = 1 + Rng.int rng 20 in
    let a = T.randn rng ~rows:m ~cols:k ~sigma:1.0 in
    let b = T.randn rng ~rows:n ~cols:k ~sigma:1.0 in
    let c = T.zeros ~rows:m ~cols:n in
    G.gemm_nt ~a ~b ~c ~beta:0.0;
    let y = T.zeros ~rows:1 ~cols:n in
    for i = 0 to m - 1 do
      T.gemv ~m:b ~x:(T.row_view a i) ~y ~beta:0.0;
      for j = 0 to n - 1 do
        check_bits (Printf.sprintf "row %d col %d" i j) (T.get1 y j)
          (T.get c i j)
      done
    done
  done

(* gemm_tn_sum's contract: the multi-term sum is one beta-1 gemm_tn per
   term, bit for bit.  A third of the coefficients are zero (whole
   four-row blocks included, so the skip rule runs) and some b entries
   are infinite, which makes skipping observable; column counts cover
   the 16-wide chunks and their tails. *)
let test_gemm_tn_sum_bits () =
  let rng = Rng.create 29 in
  let widths = [| 1; 3; 16; 17; 32; 33; 49 |] in
  for trial = 1 to 600 do
    let nterms = 1 + Rng.int rng 12
    and k = 1 + Rng.int rng 9
    and m = 1 + Rng.int rng 9
    and n = widths.(trial mod Array.length widths) in
    let coef () =
      let a = maybe_strided rng ~rows:k ~cols:m in
      for l = 0 to k - 1 do
        let zero_row = Rng.int rng 6 = 0 in
        for i = 0 to m - 1 do
          if zero_row || Rng.int rng 3 = 0 then T.set a l i 0.0
        done
      done;
      a
    in
    let operand () =
      let b = maybe_strided rng ~rows:k ~cols:n in
      if Rng.int rng 4 = 0 then
        T.set b (Rng.int rng k) (Rng.int rng n) Float.infinity;
      b
    in
    let terms = Array.init nterms (fun _ -> (coef (), operand ())) in
    let c = maybe_strided rng ~rows:m ~cols:n in
    T.set c 0 0 (-0.0);
    let expect = T.copy c in
    Array.iter (fun (a, b) -> G.gemm_tn ~a ~b ~c:expect ~beta:1.0) terms;
    G.gemm_tn_sum ~c ~terms;
    for i = 0 to m - 1 do
      for j = 0 to n - 1 do
        check_bits
          (Printf.sprintf "trial %d (%d terms, k %d, %dx%d) at (%d,%d)" trial
             nterms k m n i j)
          (T.get expect i j) (T.get c i j)
      done
    done
  done

(* ---- batched LSTM vs per-sequence oracle ---- *)

(* Mixed-length sequences in one padded batch: every final state row
   must equal running that sequence alone, bit for bit. *)
let test_lstm_batch_equals_sequential () =
  let rng = Rng.create 7 in
  let store = Nn.Store.create () in
  let lstm = Nn.Lstm.create store rng ~name:"l" ~input:5 ~hidden:6 ~layers:2 in
  let lens = [| 3; 1; 4; 4; 2 |] in
  let batch = Array.length lens in
  let seqs =
    Array.map
      (fun len ->
        Array.init len (fun _ ->
            Array.init 5 (fun _ -> Rng.float_range rng (-1.0) 1.0)))
      lens
  in
  let ctx = Ad.new_ctx () in
  (* Sequential references. *)
  let seq_final =
    Array.map
      (fun seq ->
        Ad.reset ctx;
        let inputs =
          Array.to_list
            (Array.map (fun v -> Ad.constant ctx (T.vector v)) seq)
        in
        T.to_array (Ad.value (Nn.Lstm.forward lstm ctx inputs)))
      seqs
  in
  (* One padded batch. *)
  Ad.reset ctx;
  let maxlen = Array.fold_left max 0 lens in
  let steps =
    List.init maxlen (fun t ->
        let x = T.zeros ~rows:batch ~cols:5 in
        Array.iteri
          (fun r seq ->
            if t < Array.length seq then
              Array.iteri (fun j v -> T.set x r j v) seq.(t))
          seqs;
        let mask =
          if Array.for_all (fun l -> t < l) lens then None
          else Some (Array.map (fun l -> if t < l then 1.0 else 0.0) lens)
        in
        (Ad.constant ctx x, mask))
  in
  let h = Nn.Lstm.forward_batch lstm ctx ~batch steps in
  Array.iteri
    (fun r expect ->
      Array.iteri
        (fun j e ->
          check_bits (Printf.sprintf "seq %d dim %d" r j) e
            (T.get (Ad.value h) r j))
        expect)
    seq_final

(* ---- the fused stack vs the per-step composition ----

   [Ad.lstm_batch] replaces, per layer and timestep, the composition
   below and its masked loop; the composition stays here as the bitwise
   reference and nothing in the library calls it. *)

let reference_step ctx (wx, wh, b) ~hd ~x ~h ~c =
  let h_part = Ad.matmul ctx ~x:h ~w:wh in
  let x_part = Ad.matmul ctx ~x ~w:wx in
  let z = Ad.add_row ctx (Ad.add ctx x_part h_part) ~bias:b in
  let i = Ad.sigmoid ctx (Ad.cols ctx z ~pos:0 ~len:hd) in
  let f = Ad.sigmoid ctx (Ad.cols ctx z ~pos:hd ~len:hd) in
  let g = Ad.tanh_ ctx (Ad.cols ctx z ~pos:(2 * hd) ~len:hd) in
  let o = Ad.sigmoid ctx (Ad.cols ctx z ~pos:(3 * hd) ~len:hd) in
  let c' = Ad.add ctx (Ad.mul ctx f c) (Ad.mul ctx i g) in
  let h' = Ad.mul ctx o (Ad.tanh_ ctx c') in
  (h', c')

(* Padded rows keep the previous state through row blends; after the
   final step only h is read, so the cell state is not blended there. *)
let reference_lstm ctx cells ~batch ~hd steps =
  let zeros () = Ad.constant ctx (T.zeros ~rows:batch ~cols:hd) in
  let states = Array.map (fun _ -> (zeros (), zeros ())) cells in
  let n_steps = List.length steps in
  List.iteri
    (fun step (input, mask) ->
      let last = step = n_steps - 1 in
      let x = ref input in
      Array.iteri
        (fun l cell ->
          let h, c = states.(l) in
          let h', c' = reference_step ctx cell ~hd ~x:!x ~h ~c in
          let blended =
            match mask with
            | None -> (h', c')
            | Some m ->
                ( Ad.row_blend ctx ~mask:m h' h,
                  if last then c' else Ad.row_blend ctx ~mask:m c' c )
          in
          states.(l) <- blended;
          x := fst blended)
        cells)
    steps;
  fst states.(Array.length states - 1)

(* One case: random weights whose gradient buffers start as a mix of
   +0.0, -0.0 and values (a fresh-adjoint add that skipped +0.0 would
   leave a -0.0 there), rows that end at different steps (some padded at
   the final step, some steps all padded), a loss whose seed is zero on
   some rows, and now and then one input node fed to two steps.  With
   [gaps] a row may be padded at a step and live again later, so a
   padded row's carried c adjoint is not zero; with [saturated] the
   weights are large enough that gates reach exactly 0 or 1 and the
   tanh exactly -1 or 1, where a zero gradient term can be -0.0.  The
   fused op and the reference must agree on the output, the loss, every
   weight gradient and every input gradient, bit for bit. *)
let check_lstm_case rng ~batch ~layers ~hd ~input ~gaps ~saturated =
  let sigma = if saturated then 150.0 else 0.6 in
  let randm rows cols = T.randn rng ~rows ~cols ~sigma in
  let mixed_grad rows cols =
    T.of_array ~rows ~cols
      (Array.init (rows * cols) (fun _ ->
           match Rng.int rng 3 with
           | 0 -> 0.0
           | 1 -> -0.0
           | _ -> Rng.float_range rng (-1.0) 1.0))
  in
  let cells =
    Array.init layers (fun l ->
        let w rows cols = (randm rows cols, mixed_grad rows cols) in
        ( w (4 * hd) (if l = 0 then input else hd),
          w (4 * hd) hd,
          w 1 (4 * hd) ))
  in
  let n_steps = 1 + Rng.int rng 5 in
  let lens = Array.init batch (fun _ -> 1 + Rng.int rng n_steps) in
  let xs = Array.init n_steps (fun _ -> randm batch input) in
  let reuse = Array.init n_steps (fun t -> t > 0 && Rng.int rng 4 = 0) in
  let live =
    Array.init n_steps (fun t ->
        Array.map
          (fun len -> if gaps then Rng.int rng 10 < 7 else t < len)
          lens)
  in
  let masks =
    Array.map
      (fun row ->
        if Array.for_all Fun.id row && Rng.bool rng then None
        else Some (Array.map (fun l -> if l then 1.0 else 0.0) row))
      live
  in
  let seed = T.randn rng ~rows:batch ~cols:hd ~sigma:1.0 in
  for r = 0 to batch - 1 do
    if Rng.int rng 4 = 0 then
      for j = 0 to hd - 1 do
        T.set seed r j 0.0
      done
  done;
  let run build =
    let leaves =
      Array.map
        (fun (wx, wh, b) ->
          let leaf (v, g) = Ad.leaf ~value:v ~grad:(T.copy g) in
          (leaf wx, leaf wh, leaf b))
        cells
    in
    let ctx = Ad.new_ctx () in
    let inputs = Array.make n_steps (Ad.constant ctx xs.(0)) in
    for t = 1 to n_steps - 1 do
      inputs.(t) <- (if reuse.(t) then inputs.(t - 1) else Ad.constant ctx xs.(t))
    done;
    let steps = List.init n_steps (fun t -> (inputs.(t), masks.(t))) in
    let h = build ctx leaves steps in
    let loss = Ad.sum_all ctx (Ad.mul ctx h (Ad.constant ctx seed)) in
    Ad.backward ctx loss;
    ( T.to_array (Ad.value h),
      Ad.scalar_value loss,
      Array.map
        (fun (wx, wh, b) ->
          List.map (fun n -> T.to_array (Ad.grad n)) [ wx; wh; b ])
        leaves,
      Array.map (fun x -> T.to_array (Ad.grad x)) inputs )
  in
  let fh, floss, fw, fx =
    run (fun ctx leaves steps -> Ad.lstm_batch ctx ~cells:leaves ~batch steps)
  in
  let rh, rloss, rw, rx =
    run (fun ctx leaves steps -> reference_lstm ctx leaves ~batch ~hd steps)
  in
  let case =
    Printf.sprintf "B %d, %d layers, hidden %d, input %d%s%s" batch layers hd
      input
      (if gaps then ", gaps" else "")
      (if saturated then ", saturated" else "")
  in
  let same what a b =
    Array.iteri
      (fun k v -> check_bits (Printf.sprintf "%s: %s[%d]" case what k) v a.(k))
      b
  in
  same "output" fh rh;
  check_bits (case ^ ": loss") floss rloss;
  Array.iteri
    (fun l per ->
      List.iteri
        (fun w g ->
          same
            (Printf.sprintf "layer %d %s grad" l
               (List.nth [ "wx"; "wh"; "b" ] w))
            g (List.nth rw.(l) w))
        per)
    fw;
  Array.iteri (fun t g -> same (Printf.sprintf "step %d input grad" t) g rx.(t)) fx

let test_lstm_fused_equals_reference () =
  let rng = Rng.create 53 in
  let inputs = [| 5; 9; 16; 17; 33; 49 |] in
  let case = ref 0 in
  List.iter
    (fun batch ->
      List.iter
        (fun layers ->
          List.iter
            (fun hd ->
              incr case;
              check_lstm_case rng ~batch ~layers ~hd
                ~input:inputs.(!case mod Array.length inputs)
                ~gaps:(!case mod 2 = 0) ~saturated:(!case mod 3 = 0))
            [ 6; 16; 32; 33 ])
        [ 1; 2; 3 ])
    [ 1; 2; 3; 5; 17 ]

(* ---- the fused stack at batch 1 vs the per-sequence composition ----

   [Nn.Lstm.forward] is [Ad.lstm_batch] at batch 1 with no masks.  It
   replaced the per-step composition below, which stays here as the
   bitwise reference and nothing in the library calls: per layer and
   step two matvecs, two adds, four slices through sigmoid/tanh,
   [f c + i g] and [o tanh c'], from zero constant states. *)

let sequence_step ctx (wx, wh, b) ~hd ~x ~h ~c =
  let h_part = Ad.matvec ctx ~m:wh ~x:h in
  let x_part = Ad.matvec ctx ~m:wx ~x in
  let z = Ad.add ctx (Ad.add ctx x_part h_part) b in
  let i = Ad.sigmoid ctx (Ad.slice ctx z ~pos:0 ~len:hd) in
  let f = Ad.sigmoid ctx (Ad.slice ctx z ~pos:hd ~len:hd) in
  let g = Ad.tanh_ ctx (Ad.slice ctx z ~pos:(2 * hd) ~len:hd) in
  let o = Ad.sigmoid ctx (Ad.slice ctx z ~pos:(3 * hd) ~len:hd) in
  let c' = Ad.add ctx (Ad.mul ctx f c) (Ad.mul ctx i g) in
  let h' = Ad.mul ctx o (Ad.tanh_ ctx c') in
  (h', c')

let sequence_lstm ctx cells ~hd inputs =
  let zeros () = Ad.constant ctx (T.zeros ~rows:1 ~cols:hd) in
  let states = Array.map (fun _ -> (zeros (), zeros ())) cells in
  List.iter
    (fun input ->
      let x = ref input in
      Array.iteri
        (fun l cell ->
          let h, c = states.(l) in
          let h', c' = sequence_step ctx cell ~hd ~x:!x ~h ~c in
          states.(l) <- (h', c');
          x := h')
        cells)
    inputs;
  fst states.(Array.length states - 1)

(* Random layer counts, widths and lengths; saturated weights on every
   fourth case (gates reach exactly 0 or 1), an input node now and then
   fed to two steps, and a loss seed with zero entries.  Output, loss,
   every weight gradient and every input gradient must agree bit for
   bit.  Weight gradient buffers start at +0.0 or at finite nonzero
   values, as every real one does: they are zeroed to +0.0, and a
   round-to-nearest sum that starts at +0.0 never yields -0.0.  An entry
   that held -0.0 would be the one exception: where a coefficient is
   zero (the zero initial h of step 0, or a saturated gate), the
   composition's [ger] adds the +0.0 product and turns it into +0.0,
   while [gemm_tn] skips the product and keeps -0.0.  Over these 400
   cases no float differs; with the weight gradient buffers started a
   third at +0.0, a third at -0.0 and a third at values instead, 17,787
   do. *)
let test_lstm_batch1_equals_sequence () =
  let rng = Rng.create 59 in
  for case = 1 to 400 do
    let layers = 1 + Rng.int rng 3
    and hd = 1 + Rng.int rng 24
    and input = 1 + Rng.int rng 30
    and n_steps = 1 + Rng.int rng 8 in
    let sigma = if case mod 4 = 0 then 150.0 else 0.6 in
    let grad_start rows cols =
      T.of_array ~rows ~cols
        (Array.init (rows * cols) (fun _ ->
             if Rng.bool rng then 0.0 else Rng.float_range rng (-1.0) 1.0))
    in
    let cells =
      Array.init layers (fun l ->
          let w rows cols = (T.randn rng ~rows ~cols ~sigma, grad_start rows cols) in
          ( w (4 * hd) (if l = 0 then input else hd),
            w (4 * hd) hd,
            w 1 (4 * hd) ))
    in
    let xs = Array.init n_steps (fun _ -> T.randn rng ~rows:1 ~cols:input ~sigma:1.0) in
    let reuse = Array.init n_steps (fun t -> t > 0 && Rng.int rng 4 = 0) in
    let seed =
      T.of_array ~rows:1 ~cols:hd
        (Array.init hd (fun _ ->
             if Rng.int rng 4 = 0 then 0.0 else Rng.float_range rng (-1.0) 1.0))
    in
    let run build =
      let leaves =
        Array.map
          (fun (wx, wh, b) ->
            let leaf (v, g) = Ad.leaf ~value:v ~grad:(T.copy g) in
            (leaf wx, leaf wh, leaf b))
          cells
      in
      let ctx = Ad.new_ctx () in
      let inputs = Array.make n_steps (Ad.constant ctx xs.(0)) in
      for t = 1 to n_steps - 1 do
        inputs.(t) <-
          (if reuse.(t) then inputs.(t - 1) else Ad.constant ctx xs.(t))
      done;
      let h = build ctx leaves (Array.to_list inputs) in
      let loss = Ad.sum_all ctx (Ad.mul ctx h (Ad.constant ctx seed)) in
      Ad.backward ctx loss;
      ( T.to_array (Ad.value h),
        Ad.scalar_value loss,
        Array.concat
          (List.concat_map
             (fun (wx, wh, b) -> List.map (fun n -> T.to_array (Ad.grad n)) [ wx; wh; b ])
             (Array.to_list leaves)),
        Array.concat (Array.to_list (Array.map (fun x -> T.to_array (Ad.grad x)) inputs)) )
    in
    let fh, floss, fw, fx =
      run (fun ctx leaves inputs ->
          Ad.lstm_batch ctx ~cells:leaves ~batch:1
            (List.map (fun x -> (x, None)) inputs))
    in
    let rh, rloss, rw, rx =
      run (fun ctx leaves inputs -> sequence_lstm ctx leaves ~hd inputs)
    in
    let label =
      Printf.sprintf "case %d (%d layers, hidden %d, input %d, %d steps)" case
        layers hd input n_steps
    in
    let same what a b =
      Array.iteri
        (fun k v -> check_bits (Printf.sprintf "%s: %s[%d]" label what k) v a.(k))
        b
    in
    same "output" rh fh;
    check_bits (label ^ ": loss") rloss floss;
    same "weight grads" rw fw;
    same "input grads" rx fx
  done

(* ---- batched surrogate vs per-sequence oracle ---- *)

let small_cfg =
  {
    Model.default_config with
    embed_dim = 6;
    token_hidden = 8;
    instr_hidden = 8;
    token_layers = 2;
    instr_layers = 2;
    per_instr_params = 3;
    global_params = 2;
  }

let physics_cfg = { small_cfg with feature_width = 2; head_hidden = 4 }

(* The serving model's shape ([Engine.train_ithemal]): no parameter
   inputs, an MLP head, with and without analytic features. *)
let ithemal_cfg =
  {
    small_cfg with
    with_params = false;
    per_instr_params = 0;
    global_params = 0;
    head_hidden = 4;
  }

let ithemal_physics_cfg = { ithemal_cfg with feature_width = 3 }

let mk_samples rng cfg n =
  Array.init n (fun _ ->
      let app = Rng.choice rng Dt_bhive.Generator.applications in
      let b = Dt_bhive.Generator.block rng ~app in
      let per =
        Array.map
          (fun _ ->
            Array.init cfg.Model.per_instr_params (fun _ -> Rng.float rng 1.0))
          b.instrs
      in
      let glob = Array.init cfg.Model.global_params (fun _ -> Rng.float rng 1.0) in
      let feats =
        if cfg.Model.feature_width = 0 then None
        else
          Some
            (Array.init cfg.Model.feature_width (fun _ ->
                 0.5 +. Rng.float rng 4.0))
      in
      let bparams = if cfg.Model.with_params then Some (per, glob) else None in
      { Model.bblock = b; bparams; bfeatures = feats })

(* The per-sequence oracle's inputs: a sample's plain floats as constant
   nodes on [ctx]. *)
let seq_inputs ctx (s : Model.batch_sample) =
  let const v = Ad.constant ctx (T.vector v) in
  let params =
    Option.map
      (fun (per, glob) ->
        {
          Model.per_instr = Array.map const per;
          global = (if Array.length glob = 0 then None else Some (const glob));
        })
      s.bparams
  in
  (params, Option.map const s.bfeatures)

(* The per-sequence oracle: [Model.predict]'s graph on a fresh context. *)
let seq_predict model (s : Model.batch_sample) =
  let ctx = Ad.new_ctx () in
  let params, features = seq_inputs ctx s in
  Ad.scalar_value (Model.predict model ctx s.bblock ~params ~features)

let test_forward_batch_bits cfg name () =
  let rng = Rng.create 31 in
  let model = Model.create ~config:cfg (Rng.split rng) in
  let samples = mk_samples rng cfg 9 in
  let ctx = Ad.new_ctx () in
  Ad.reset ctx;
  let pred = Model.forward_batch model ctx samples in
  Array.iteri
    (fun i (s : Model.batch_sample) ->
      let seq = seq_predict model s in
      check_bits
        (Printf.sprintf "%s sample %d" name i)
        seq
        (T.get (Ad.value pred) i 0);
      check_bits
        (Printf.sprintf "%s sample %d as a one-sample batch" name i)
        seq
        (Model.predict_batch_value model [| s |]).(0))
    samples

let grads_of store =
  let out = ref [] in
  Nn.Store.iter store (fun name ~value:_ ~grad ->
      out := (name, T.to_array grad) :: !out);
  List.rev !out

let test_train_batch_grads () =
  let rng = Rng.create 47 in
  let model = Model.create ~config:small_cfg (Rng.split rng) in
  let store = Model.store model in
  let samples = mk_samples rng small_cfg 7 in
  let targets = Array.map (fun _ -> 1.0 +. Rng.float rng 50.0) samples in
  let ctx = Ad.new_ctx () in
  (* Sequential oracle: per-sample mape + backward, gradients summed. *)
  Nn.Store.zero_grads store;
  let seq_losses =
    Array.mapi
      (fun i (s : Model.batch_sample) ->
        Ad.reset ctx;
        let params, features = seq_inputs ctx s in
        let p = Model.predict model ctx s.bblock ~params ~features in
        let l = Ad.mape ctx p ~target:targets.(i) in
        Ad.backward ctx l;
        Ad.scalar_value l)
      samples
  in
  let seq_grads = grads_of store in
  (* Batched pass from the same weights. *)
  Nn.Store.zero_grads store;
  let batch_losses = Model.train_batch model ctx samples ~targets in
  let batch_grads = grads_of store in
  Array.iteri
    (fun i l -> check_bits (Printf.sprintf "loss %d" i) seq_losses.(i) l)
    batch_losses;
  List.iter2
    (fun (name, g1) (name2, g2) ->
      Alcotest.(check string) "same param" name name2;
      Array.iteri
        (fun j a ->
          if not (close ~tol:1e-9 a g2.(j)) then
            Alcotest.failf "grad %s[%d]: %.17g <> %.17g" name j a g2.(j))
        g1)
    seq_grads batch_grads;
  Nn.Store.zero_grads store

(* The same minibatch three times through [train_batch] and
   [predict_batch_value]: the same bits every time. *)
let test_batched_calls_repeat cfg () =
  let model = Model.create ~config:cfg (Rng.create 131) in
  let rng = Rng.create 17 in
  let samples = mk_samples rng cfg 6 in
  let targets = Array.map (fun _ -> 1.0 +. Rng.float rng 50.0) samples in
  let ctx = Ad.new_ctx () in
  let runs =
    List.init 3 (fun _ ->
        Nn.Store.zero_grads (Model.store model);
        ( Model.train_batch model ctx samples ~targets,
          Model.predict_batch_value model samples ))
  in
  let l0, p0 = List.hd runs in
  List.iteri
    (fun k (l, p) ->
      Array.iteri (fun i v -> check_bits (Printf.sprintf "run %d loss %d" k i) v l.(i)) l0;
      Array.iteri (fun i v -> check_bits (Printf.sprintf "run %d pred %d" k i) v p.(i)) p0)
    runs

(* ---- sanitizer coverage for the matmul-class ops ---- *)

let with_sanitize on f =
  Ad.set_sanitize on;
  Fun.protect
    ~finally:(fun () ->
      Ad.set_sanitize false;
      Faultsim.clear ())
    f

let expect_shape name ~contains f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Shape_error" name
  | exception Ad.Shape_error m ->
      List.iter
        (fun frag ->
          let nh = String.length m and nn = String.length frag in
          let rec go i = i + nn <= nh && (String.sub m i nn = frag || go (i + 1)) in
          if not (nn = 0 || go 0) then
            Alcotest.failf "%s: message %S does not mention %S" name m frag)
        contains

let test_matmul_shape_error () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let x = Ad.constant ctx (T.zeros ~rows:2 ~cols:3) in
      let w = Ad.constant ctx (T.zeros ~rows:4 ~cols:5) in
      expect_shape "matmul" ~contains:[ "Ad.matmul"; "2x3"; "4x5" ] (fun () ->
          Ad.matmul ctx ~x ~w);
      let z = Ad.constant ctx (T.zeros ~rows:2 ~cols:8) in
      expect_shape "cols" ~contains:[ "Ad.cols"; "out of range" ] (fun () ->
          Ad.cols ctx z ~pos:6 ~len:4);
      let bias = Ad.constant ctx (T.zeros ~rows:1 ~cols:7) in
      expect_shape "add_row" ~contains:[ "Ad.add_row"; "1x7" ] (fun () ->
          Ad.add_row ctx z ~bias))

(* The ad.gemm_beta fault site flips matmul's gemm_nt from overwrite to
   accumulate into a fresh arena slot — the matrix analogue of the PR 2
   gemv bug; the poison scan must catch it. *)
let seeded_gemm_regression () =
  let ctx = Ad.new_ctx () in
  let build () =
    let x = Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 2.; 3.; 4. |]) in
    let w = Ad.constant ctx (T.of_array ~rows:2 ~cols:2 [| 1.; 0.; 0.; 1. |]) in
    Ad.matmul ctx ~x ~w
  in
  ignore (build ());
  Ad.reset ctx;
  Faultsim.arm "ad.gemm_beta" ~at:1;
  build ()

let test_gemm_beta_poison () =
  with_sanitize true (fun () ->
      match seeded_gemm_regression () with
      | _ -> Alcotest.fail "expected Uninitialized_read"
      | exception Ad.Uninitialized_read m ->
          let contains needle =
            let nh = String.length m and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
            in
            nn = 0 || go 0
          in
          Alcotest.(check bool) "mentions matmul" true (contains "Ad.matmul");
          Alcotest.(check bool) "mentions poison" true (contains "poison"))

(* The fused stack's own failure paths. *)
let lstm_leaf rows cols =
  Ad.leaf ~value:(T.create ~rows ~cols 0.1) ~grad:(T.zeros ~rows ~cols)

let lstm_cells () = [| (lstm_leaf 8 5, lstm_leaf 8 2, lstm_leaf 1 8) |]

let test_lstm_batch_shape_error () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let x rows cols = Ad.constant ctx (T.zeros ~rows ~cols) in
      let cells = lstm_cells () in
      expect_shape "input width" ~contains:[ "Ad.lstm_batch"; "2x6"; "2x5" ]
        (fun () -> Ad.lstm_batch ctx ~cells ~batch:2 [ (x 2 5, None); (x 2 6, None) ]);
      expect_shape "mask length" ~contains:[ "Ad.lstm_batch"; "mask"; "1 entries"; "expected 2" ]
        (fun () -> Ad.lstm_batch ctx ~cells ~batch:2 [ (x 2 5, Some [| 1.0 |]) ]);
      expect_shape "batch" ~contains:[ "Ad.lstm_batch"; "2x5"; "3x5" ] (fun () ->
          Ad.lstm_batch ctx ~cells ~batch:3 [ (x 2 5, None) ]);
      (* a node in two weight roles would sum its gradient out of the
         tape's order *)
      let shared = lstm_leaf 8 2 in
      match
        Ad.lstm_batch ctx ~batch:2
          ~cells:(Array.append cells [| (shared, shared, lstm_leaf 1 8) |])
          [ (x 2 5, None) ]
      with
      | _ -> Alcotest.fail "a weight node in two roles was accepted"
      | exception Invalid_argument _ -> ())

(* The fused op's forward gemms share matmul's ad.gemm_beta fault site:
   armed, the first one accumulates into its scratch destination, which
   sanitize mode poisons first, and the scan of that 2x8 destination
   names the op. *)
let test_lstm_gemm_beta_poison () =
  with_sanitize true (fun () ->
      let ctx = Ad.new_ctx () in
      let build () =
        let x = Ad.constant ctx (T.create ~rows:2 ~cols:5 0.5) in
        Ad.lstm_batch ctx ~cells:(lstm_cells ()) ~batch:2
          [ (x, None); (x, Some [| 1.0; 0.0 |]) ]
      in
      ignore (build ());
      Ad.reset ctx;
      Faultsim.arm "ad.gemm_beta" ~at:1;
      match build () with
      | _ -> Alcotest.fail "expected Uninitialized_read"
      | exception Ad.Uninitialized_read m ->
          let contains needle =
            let nh = String.length m and nn = String.length needle in
            let rec go i =
              i + nn <= nh && (String.sub m i nn = needle || go (i + 1))
            in
            nn = 0 || go 0
          in
          Alcotest.(check bool) "mentions lstm_batch" true
            (contains "Ad.lstm_batch");
          Alcotest.(check bool) "caught at the gemm" true (contains "of 2x8");
          Alcotest.(check bool) "mentions poison" true (contains "poison"))

let test_flow_audit_covers_batch () =
  with_sanitize true (fun () ->
      let rng = Rng.create 91 in
      let model = Model.create ~config:small_cfg (Rng.split rng) in
      let samples = mk_samples rng small_cfg 3 in
      let targets = Array.map (fun _ -> 5.0) samples in
      let ctx = Ad.new_ctx () in
      let _ = Model.train_batch model ctx samples ~targets in
      Nn.Store.zero_grads (Model.store model);
      match Ad.last_flow_report ctx with
      | None -> Alcotest.fail "no flow report"
      | Some r ->
          Alcotest.(check int) "no dead nodes" 0 r.Ad.dead;
          Alcotest.(check bool) "tape populated" true (r.Ad.tape_nodes > 0))

(* ---- determinism of batched training across domain counts ----

   The engine shards each minibatch into a fixed number of buckets
   reduced in shard order, so the batched training path must produce
   bit-identical losses and weights whatever DIFFTUNE_DOMAINS says. *)

let test_train_domain_determinism () =
  let module Spec = Dt_difftune.Spec in
  let module Engine = Dt_difftune.Engine in
  let uarch = Dt_refcpu.Uarch.Haswell in
  let train =
    let c = Dt_bhive.Dataset.corpus ~seed:7 ~size:30 in
    let ds = Dt_bhive.Dataset.label c ~seed:3 ~uarch ~noise:0.0 in
    Array.map
      (fun (l : Dt_bhive.Dataset.labeled) -> (l.entry.block, l.timing))
      (Dt_bhive.Dataset.all ds)
  in
  let blocks = Array.map fst train in
  let spec = Spec.mca_write_latency uarch in
  let cfg =
    { Engine.fast_config with seed = 9; sim_multiplier = 2;
      surrogate_passes = 0.5 }
  in
  let run domains =
    Testkit.with_domains domains (fun () ->
        let data = Engine.collect cfg spec blocks in
        let model = Engine.make_model cfg spec (Rng.create 5) in
        let loss = Engine.train_surrogate cfg spec model data blocks in
        (loss, Nn.Store.export_values (Model.store model)))
  in
  let l1, w1 = run 1 in
  let l2, w2 = run 2 in
  let l4, w4 = run 4 in
  check_bits "loss 1=2" l1 l2;
  check_bits "loss 1=4" l1 l4;
  let check_weights label a b =
    List.iter2
      (fun (na, _, _, da) (nb, _, _, db) ->
        if na <> nb then Alcotest.failf "%s: name %s <> %s" label na nb;
        Array.iteri
          (fun i v ->
            if not (Int64.equal (bits v) (bits db.(i))) then
              Alcotest.failf "%s: %s[%d] %h <> %h" label na i v db.(i))
          da)
      a b
  in
  check_weights "weights 1=2" w1 w2;
  check_weights "weights 1=4" w1 w4

let () =
  Alcotest.run "batch"
    [
      ( "gemm",
        [
          Alcotest.test_case "gemm vs naive" `Quick test_gemm_naive;
          Alcotest.test_case "gemm_tn vs naive" `Quick test_gemm_tn_naive;
          Alcotest.test_case "gemm_nt vs naive" `Quick test_gemm_nt_naive;
          Alcotest.test_case "shape checks" `Quick test_gemm_shape_checks;
          Alcotest.test_case "gemm_nt = gemv bitwise" `Quick
            test_gemm_nt_gemv_bits;
          Alcotest.test_case "gemm_tn_sum = gemm_tn per term bitwise" `Quick
            test_gemm_tn_sum_bits;
        ] );
      ( "lstm",
        [
          Alcotest.test_case "batch = sequential bitwise" `Quick
            test_lstm_batch_equals_sequential;
          Alcotest.test_case "fused = per-step composition bitwise" `Quick
            test_lstm_fused_equals_reference;
          Alcotest.test_case "lstm_batch at batch 1 = per-sequence composition bitwise"
            `Quick test_lstm_batch1_equals_sequence;
        ] );
      ( "model",
        [
          Alcotest.test_case "forward_batch = predict bitwise" `Quick
            (test_forward_batch_bits small_cfg "plain");
          Alcotest.test_case "physics head batch bitwise" `Quick
            (test_forward_batch_bits physics_cfg "physics");
          Alcotest.test_case "ithemal batch bitwise" `Quick
            (test_forward_batch_bits ithemal_cfg "ithemal");
          Alcotest.test_case "ithemal physics head batch bitwise" `Quick
            (test_forward_batch_bits ithemal_physics_cfg "ithemal physics");
          Alcotest.test_case "train_batch grads = sequential" `Quick
            test_train_batch_grads;
          Alcotest.test_case "batched calls repeat bitwise (plain)" `Quick
            (test_batched_calls_repeat small_cfg);
          Alcotest.test_case "batched calls repeat bitwise (physics)" `Quick
            (test_batched_calls_repeat physics_cfg);
        ] );
      ( "engine",
        [
          Alcotest.test_case "batched training domain determinism" `Quick
            test_train_domain_determinism;
        ] );
      ( "sanitize",
        [
          Alcotest.test_case "matmul shape errors" `Quick test_matmul_shape_error;
          Alcotest.test_case "gemm beta poison" `Quick test_gemm_beta_poison;
          Alcotest.test_case "lstm_batch shape errors" `Quick
            test_lstm_batch_shape_error;
          Alcotest.test_case "lstm_batch gemm beta poison" `Quick
            test_lstm_gemm_beta_poison;
          Alcotest.test_case "flow audit covers batch" `Quick
            test_flow_audit_covers_batch;
        ] );
    ]
