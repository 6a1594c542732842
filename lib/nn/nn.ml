module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Rng = Dt_util.Rng

module Store = struct
  type entry = { name : string; value : T.t; grad : T.t }
  type t = { mutable entries : entry list }

  let create () = { entries = [] }

  let param t ~name value =
    (* Optimizer state is keyed by name; collisions would silently share
       Adam moments. *)
    if List.exists (fun e -> e.name = name) t.entries then
      invalid_arg ("Store.param: duplicate parameter name " ^ name);
    let grad = T.zeros ~rows:value.T.rows ~cols:value.T.cols in
    t.entries <- { name; value; grad } :: t.entries;
    Ad.leaf ~value ~grad

  let zero_grads t = List.iter (fun e -> T.zero_ e.grad) t.entries

  let size t =
    List.fold_left (fun acc e -> acc + T.size e.value) 0 t.entries

  let grad_norm t =
    sqrt
      (List.fold_left (fun acc e -> acc +. T.dot e.grad e.grad) 0.0 t.entries)

  let clip_grads t ~max_norm =
    let norm = grad_norm t in
    if norm > max_norm && norm > 0.0 then
      List.iter (fun e -> T.scale_ e.grad (max_norm /. norm)) t.entries

  let iter t f = List.iter (fun e -> f e.name ~value:e.value ~grad:e.grad) t.entries

  (* Stores built by the same construction code path register parameters
     in the same order, so pairing entries positionally is sound; the
     name check guards against mismatched stores. *)
  let iter2 src dst f =
    if List.length src.entries <> List.length dst.entries then
      invalid_arg "Store.iter2: stores have different sizes";
    List.iter2
      (fun (a : entry) (b : entry) ->
        if a.name <> b.name then
          invalid_arg ("Store.iter2: parameter mismatch " ^ a.name ^ " / " ^ b.name);
        f a b)
      src.entries dst.entries

  let copy_values ~src ~dst =
    iter2 src dst (fun a b -> T.blit ~src:a.value ~dst:b.value)

  let accum_grads ~src ~dst =
    iter2 src dst (fun a b -> T.axpy ~alpha:1.0 ~x:a.grad ~y:b.grad)

  let copy_grads ~src ~dst =
    iter2 src dst (fun a b -> T.blit ~src:a.grad ~dst:b.grad)

  let export_values t =
    List.map
      (fun e -> (e.name, e.value.T.rows, e.value.T.cols, T.to_array e.value))
      t.entries

  let import_values t dump =
    if List.length dump <> List.length t.entries then
      invalid_arg "Store.import_values: entry count mismatch";
    List.iter2
      (fun e (name, rows, cols, data) ->
        if e.name <> name then
          invalid_arg
            ("Store.import_values: parameter mismatch " ^ e.name ^ " / " ^ name);
        if e.value.T.rows <> rows || e.value.T.cols <> cols then
          invalid_arg ("Store.import_values: shape mismatch for " ^ name);
        T.blit ~src:(T.of_array ~rows ~cols data) ~dst:e.value)
      t.entries dump
end

let xavier rng ~rows ~cols =
  let sigma = sqrt (2.0 /. float_of_int (rows + cols)) in
  T.randn rng ~rows ~cols ~sigma

module Linear = struct
  type t = { w : Ad.node; b : Ad.node }

  let create store rng ~name ~input ~output =
    {
      w = Store.param store ~name:(name ^ ".w") (xavier rng ~rows:output ~cols:input);
      b = Store.param store ~name:(name ^ ".b") (T.zeros ~rows:1 ~cols:output);
    }

  let forward t ctx x = Ad.add ctx (Ad.matvec ctx ~m:t.w ~x) t.b

  (* Batched rows: y = x w^T + b broadcast over rows.  Row i equals the
     per-sequence [forward] on row i bit for bit (gemm_nt's contract). *)
  let forward_batch t ctx x = Ad.add_row ctx (Ad.matmul ctx ~x ~w:t.w) ~bias:t.b
end

module Embedding = struct
  type t = { table : Ad.node }

  let create store rng ~name ~count ~dim =
    { table = Store.param store ~name (T.randn rng ~rows:count ~cols:dim ~sigma:0.1) }

  let forward t ctx i = Ad.row ctx ~m:t.table i

  (* Batched gather: one stack_rows node instead of B row lookups. *)
  let forward_batch t ctx indices =
    Ad.stack_rows ctx (Array.map (fun i -> (t.table, i)) indices)
end

module Lstm = struct
  type cell = { wx : Ad.node; wh : Ad.node; b : Ad.node }

  type t = { cells : cell array; hidden : int }

  let create_cell store rng ~name ~input ~hidden =
    let b = T.zeros ~rows:1 ~cols:(4 * hidden) in
    (* Forget-gate bias starts at 1: standard recipe for stable memory. *)
    for j = hidden to (2 * hidden) - 1 do
      T.set1 b j 1.0
    done;
    {
      wx =
        Store.param store ~name:(name ^ ".wx")
          (xavier rng ~rows:(4 * hidden) ~cols:input);
      wh =
        Store.param store ~name:(name ^ ".wh")
          (xavier rng ~rows:(4 * hidden) ~cols:hidden);
      b = Store.param store ~name:(name ^ ".b") b;
    }

  let create store rng ~name ~input ~hidden ~layers =
    if layers < 1 then invalid_arg "Lstm.create: layers must be >= 1";
    let cells =
      Array.init layers (fun l ->
          create_cell store rng
            ~name:(Printf.sprintf "%s.l%d" name l)
            ~input:(if l = 0 then input else hidden)
            ~hidden)
    in
    { cells; hidden }

  let hidden_size t = t.hidden

  (* Batched stacked LSTM over right-padded sequences: one
     [Ad.lstm_batch] node for the whole stack.  Rows whose mask is 0 are
     padding and keep the previous h/c by copy, so a sequence's final
     state (and its gradient path) is bit-identical to running it alone.
     Padded input rows must be written (e.g. zeros), not left
     uninitialized: the kernels still read them even though the blend
     discards the result.  Returns the top layer's final h
     ([batch x hidden]). *)
  let forward_batch t ctx ~batch inputs =
    if inputs = [] then invalid_arg "Lstm.forward_batch: empty sequence";
    if batch <= 0 then invalid_arg "Lstm.forward_batch: batch must be positive";
    Ad.lstm_batch ctx ~batch
      ~cells:(Array.map (fun c -> (c.wx, c.wh, c.b)) t.cells)
      inputs

  (* One sequence is a batch of one with no padding. *)
  let forward t ctx inputs =
    if inputs = [] then invalid_arg "Lstm.forward: empty sequence";
    forward_batch t ctx ~batch:1 (List.map (fun x -> (x, None)) inputs)
end

module Optimizer = struct
  type algo =
    | Sgd
    | Adam of {
        mutable t : int;
        m : (string, T.t) Hashtbl.t;
        v : (string, T.t) Hashtbl.t;
      }

  type t = { store : Store.t; mutable lr : float; algo : algo }

  let sgd store ~lr = { store; lr; algo = Sgd }

  let adam store ~lr =
    { store; lr; algo = Adam { t = 0; m = Hashtbl.create 32; v = Hashtbl.create 32 } }

  let set_lr t lr = t.lr <- lr
  let get_lr t = t.lr

  type state = {
    algo_step : int; (* Adam timestep; 0 for SGD *)
    moments : (string * float array * float array) list; (* name, m, v *)
  }

  (* Moments are exported in store order (not hashtbl order) so the dump
     is deterministic; parameters never yet stepped are skipped. *)
  let export_state t =
    match t.algo with
    | Sgd -> { algo_step = 0; moments = [] }
    | Adam a ->
        let moments = ref [] in
        Store.iter t.store (fun name ~value:_ ~grad:_ ->
            match (Hashtbl.find_opt a.m name, Hashtbl.find_opt a.v name) with
            | Some m, Some v ->
                moments := (name, T.to_array m, T.to_array v) :: !moments
            | _ -> ());
        { algo_step = a.t; moments = List.rev !moments }

  let import_state t (s : state) =
    match t.algo with
    | Sgd -> ()
    | Adam a ->
        a.t <- s.algo_step;
        Hashtbl.reset a.m;
        Hashtbl.reset a.v;
        List.iter
          (fun (name, mdata, vdata) ->
            let dims =
              let found = ref None in
              Store.iter t.store (fun n ~value ~grad:_ ->
                  if n = name then found := Some (value.T.rows, value.T.cols));
              !found
            in
            match dims with
            | None ->
                invalid_arg ("Optimizer.import_state: unknown parameter " ^ name)
            | Some (rows, cols) ->
                Hashtbl.replace a.m name (T.of_array ~rows ~cols mdata);
                Hashtbl.replace a.v name (T.of_array ~rows ~cols vdata))
          s.moments

  let step t ~batch =
    if batch <= 0 then invalid_arg "Optimizer.step: batch must be positive";
    let scale = 1.0 /. float_of_int batch in
    (match t.algo with
    | Sgd ->
        Store.iter t.store (fun _name ~value ~grad ->
            T.axpy ~alpha:(-.t.lr *. scale) ~x:grad ~y:value)
    | Adam a ->
        a.t <- a.t + 1;
        let beta1 = 0.9 and beta2 = 0.999 and eps = 1e-8 in
        let bc1 = 1.0 -. (beta1 ** float_of_int a.t) in
        let bc2 = 1.0 -. (beta2 ** float_of_int a.t) in
        Store.iter t.store (fun name ~value ~grad ->
            let find tbl =
              match Hashtbl.find_opt tbl name with
              | Some m -> m
              | None ->
                  let m = T.zeros ~rows:value.T.rows ~cols:value.T.cols in
                  Hashtbl.add tbl name m;
                  m
            in
            let m = find a.m and v = find a.v in
            if Ad.sanitize_enabled () then
              (* Bounds- and contiguity-checked debug path: same update,
                 but a moment tensor whose shape drifted out of sync with
                 its parameter raises instead of corrupting memory. *)
              for i = 0 to T.size value - 1 do
                let g = T.get1 grad i *. scale in
                let mi = (beta1 *. T.get1 m i) +. ((1.0 -. beta1) *. g) in
                let vi = (beta2 *. T.get1 v i) +. ((1.0 -. beta2) *. g *. g) in
                T.set1 m i mi;
                T.set1 v i vi;
                let mhat = mi /. bc1 in
                let vhat = vi /. bc2 in
                T.set1 value i
                  (T.get1 value i -. (t.lr *. mhat /. (sqrt vhat +. eps)))
              done
            else
              for i = 0 to T.size value - 1 do
                let g = T.unsafe_get1 grad i *. scale in
                let mi = (beta1 *. T.unsafe_get1 m i) +. ((1.0 -. beta1) *. g) in
                let vi =
                  (beta2 *. T.unsafe_get1 v i) +. ((1.0 -. beta2) *. g *. g)
                in
                T.unsafe_set1 m i mi;
                T.unsafe_set1 v i vi;
                let mhat = mi /. bc1 in
                let vhat = vi /. bc2 in
                T.unsafe_set1 value i
                  (T.unsafe_get1 value i -. (t.lr *. mhat /. (sqrt vhat +. eps)))
              done));
    Store.zero_grads t.store
end
