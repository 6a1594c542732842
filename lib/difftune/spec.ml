module Rng = Dt_util.Rng
module Ad = Dt_autodiff.Ad
module T = Dt_tensor.Tensor

type table = { per : float array array; global : float array }

type t = {
  name : string;
  per_width : int;
  global_width : int;
  per_lower : float array;
  global_lower : float array;
  per_upper : float array;
  global_upper : float array;
  per_scale : float array;
  global_scale : float array;
  sample : Rng.t -> table;
  timing : table -> Dt_x86.Block.t -> float;
  bounds :
    (Ad.ctx ->
     Dt_x86.Block.t ->
     per:Ad.node array ->
     global:Ad.node option ->
     Ad.node)
    option;
}

let n_bounds = 3

(* ---- differentiable bound helpers ---------------------------------- *)

let scalar_const ctx v = Ad.scalar ctx v

let sub ctx a b = Ad.add ctx a (Ad.scale ctx b (-1.0))

(* Longest dependency chain per iteration, from per-position latency
   nodes: propagate issue times through two unrolled copies and take the
   difference of the completion fronts (the steady-state slope). *)
let chain_bound ctx (block : Dt_x86.Block.t) ~edge_latency =
  let len = Array.length block.instrs in
  let edges = Dt_mca.Pipeline.dependency_edges block in
  let issue = Array.make (2 * len) None in
  let front = Array.make 2 None in
  for copy = 0 to 1 do
    for i = 0 to len - 1 do
      let pos = (copy * len) + i in
      let start =
        Array.fold_left
          (fun acc (dist, slot) ->
            let p = pos - dist in
            if p < 0 then acc
            else
              let sp =
                match issue.(p) with Some s -> s | None -> assert false
              in
              let cand = Ad.add ctx sp (edge_latency ~producer:(p mod len) ~consumer:i ~slot) in
              match acc with
              | None -> Some cand
              | Some a -> Some (Ad.max2 ctx a cand))
          None edges.(i)
      in
      let start = match start with Some s -> s | None -> scalar_const ctx 0.0 in
      issue.(pos) <- Some start;
      front.(copy) <-
        (match front.(copy) with
        | None -> Some start
        | Some f -> Some (Ad.max2 ctx f start))
    done
  done;
  match (front.(0), front.(1)) with
  | Some f0, Some f1 -> Ad.relu ctx (sub ctx f1 f0)
  | _ -> scalar_const ctx 0.0

let copy_table t =
  { per = Array.map Array.copy t.per; global = Array.copy t.global }

let round_value ~lower v = Float.max lower (Float.round v)

let round_table spec t =
  {
    per =
      Array.map
        (fun row ->
          Array.mapi (fun j v -> round_value ~lower:spec.per_lower.(j) v) row)
        t.per;
    global =
      Array.mapi
        (fun j v -> round_value ~lower:spec.global_lower.(j) v)
        t.global;
  }

let normalize_block spec table (block : Dt_x86.Block.t) =
  let per =
    Array.map
      (fun (instr : Dt_x86.Instruction.t) ->
        let row = table.per.(instr.opcode.index) in
        Array.init spec.per_width (fun j ->
            (row.(j) -. spec.per_lower.(j)) *. spec.per_scale.(j)))
      block.instrs
  in
  let global =
    Array.init spec.global_width (fun j ->
        (table.global.(j) -. spec.global_lower.(j)) *. spec.global_scale.(j))
  in
  (per, global)

let bound_values spec ctx block ~per ~global =
  match spec.bounds with
  | None -> None
  | Some f ->
      Ad.reset ctx;
      let per = Array.map (fun v -> Ad.constant ctx (T.vector v)) per in
      let global =
        if Array.length global = 0 then None
        else Some (Ad.constant ctx (T.vector global))
      in
      Some (T.to_array (Ad.value (f ctx block ~per ~global)))

let flatten spec table =
  let n = Dt_x86.Opcode.count in
  let out = Array.make (spec.global_width + (n * spec.per_width)) 0.0 in
  Array.blit table.global 0 out 0 spec.global_width;
  for i = 0 to n - 1 do
    Array.blit table.per.(i) 0 out
      (spec.global_width + (i * spec.per_width))
      spec.per_width
  done;
  out

let unflatten spec v =
  let n = Dt_x86.Opcode.count in
  if Array.length v <> spec.global_width + (n * spec.per_width) then
    invalid_arg "Spec.unflatten: wrong length";
  {
    global = Array.sub v 0 spec.global_width;
    per =
      Array.init n (fun i ->
          Array.sub v (spec.global_width + (i * spec.per_width)) spec.per_width);
  }

(* ------------------------------------------------------------------ *)
(* llvm-mca: full parameter set.                                       *)
(* ------------------------------------------------------------------ *)

let n_ra = Dt_mca.Params.num_read_advance
let n_ports = Dt_mca.Params.num_ports

(* Row layout: [NumMicroOps; WriteLatency; RA0..RA2; PM0..PM9]. *)
let mca_per_width = 2 + n_ra + n_ports

let mca_table_of_params (p : Dt_mca.Params.t) =
  let row i =
    let r = Array.make mca_per_width 0.0 in
    r.(0) <- float_of_int p.num_micro_ops.(i);
    r.(1) <- float_of_int p.write_latency.(i);
    for k = 0 to n_ra - 1 do
      r.(2 + k) <- float_of_int p.read_advance.(i).(k)
    done;
    for q = 0 to n_ports - 1 do
      r.(2 + n_ra + q) <- float_of_int p.port_map.(i).(q)
    done;
    r
  in
  {
    per = Array.init Dt_x86.Opcode.count row;
    global =
      [| float_of_int p.dispatch_width; float_of_int p.reorder_buffer_size |];
  }

let mca_params_of_table (t : table) : Dt_mca.Params.t =
  let n = Dt_x86.Opcode.count in
  let geti ~min_ v = max min_ (int_of_float (Float.round v)) in
  {
    dispatch_width = geti ~min_:1 t.global.(0);
    reorder_buffer_size = geti ~min_:1 t.global.(1);
    num_micro_ops = Array.init n (fun i -> geti ~min_:1 t.per.(i).(0));
    write_latency = Array.init n (fun i -> geti ~min_:0 t.per.(i).(1));
    read_advance =
      Array.init n (fun i ->
          Array.init n_ra (fun k -> geti ~min_:0 t.per.(i).(2 + k)));
    port_map =
      Array.init n (fun i ->
          Array.init n_ports (fun q -> geti ~min_:0 t.per.(i).(2 + n_ra + q)));
    zero_idiom_enabled = Array.make n false;
  }

(* Sampling distributions of Section V-A. *)
let sample_mca_row rng =
  let r = Array.make mca_per_width 0.0 in
  r.(0) <- float_of_int (Rng.int_range rng 1 10);
  r.(1) <- float_of_int (Rng.int_range rng 0 5);
  for k = 0 to n_ra - 1 do
    r.(2 + k) <- float_of_int (Rng.int_range rng 0 5)
  done;
  (* 0-2 cycles on 0-2 randomly selected ports. *)
  let k_ports = Rng.int_range rng 0 2 in
  for _ = 1 to k_ports do
    let q = Rng.int rng n_ports in
    r.(2 + n_ra + q) <- float_of_int (Rng.int_range rng 1 2)
  done;
  r

(* Differentiable bounds for the full llvm-mca table.  The per-instruction
   inputs are normalized (lower bound subtracted, scaled by 0.2); unscale
   with affine maps so the bounds are in raw cycles.  [flag_of], when
   given, yields the relaxed zero-idiom flag node in [0,1] for a block
   position; the effective chain latency is then wl * (1 - flag). *)
let mca_bounds_core ?flag_of ctx (block : Dt_x86.Block.t) ~per ~global =
  let inv = 5.0 in
  let len = Array.length block.instrs in
  let uops i = Ad.affine ctx (Ad.slice ctx per.(i) ~pos:0 ~len:1) ~mul:inv ~add:1.0 in
  let wl_nodes =
    Array.init len (fun i ->
        let wl =
          Ad.affine ctx (Ad.slice ctx per.(i) ~pos:1 ~len:1) ~mul:inv ~add:0.0
        in
        match flag_of with
        | Some f when Dt_x86.Instruction.is_zero_idiom block.instrs.(i) ->
            (* Relaxed elimination: latency scales with (1 - flag). *)
            let keep =
              Ad.relu ctx (Ad.affine ctx (f i) ~mul:(-1.0) ~add:1.0)
            in
            Ad.mul ctx wl keep
        | _ -> wl)
  in
  let ra i slot =
    Ad.affine ctx (Ad.slice ctx per.(i) ~pos:(2 + slot) ~len:1) ~mul:inv ~add:0.0
  in
  let pm i =
    Ad.affine ctx (Ad.slice ctx per.(i) ~pos:(2 + n_ra) ~len:n_ports) ~mul:inv
      ~add:0.0
  in
  let dw =
    match global with
    | Some g -> Ad.affine ctx (Ad.slice ctx g ~pos:0 ~len:1) ~mul:5.0 ~add:1.0
    | None -> scalar_const ctx 4.0
  in
  let total_uops = ref (uops 0) in
  for i = 1 to len - 1 do
    total_uops := Ad.add ctx !total_uops (uops i)
  done;
  let frontend = Ad.div ctx !total_uops dw in
  let pressure = ref (pm 0) in
  for i = 1 to len - 1 do
    pressure := Ad.add ctx !pressure (pm i)
  done;
  let port_bound = Ad.reduce_max ctx !pressure in
  let edge_latency ~producer ~consumer ~slot =
    Ad.relu ctx (sub ctx wl_nodes.(producer) (ra consumer slot))
  in
  let chain = chain_bound ctx block ~edge_latency in
  Ad.concat ctx [ frontend; port_bound; chain ]

let mca_bounds ctx block ~per ~global = mca_bounds_core ctx block ~per ~global

let mca_full _uarch =
  let per_lower = Array.make mca_per_width 0.0 in
  per_lower.(0) <- 1.0;
  let per_upper = Array.make mca_per_width 5.0 in
  per_upper.(0) <- 10.0;
  for q = 0 to n_ports - 1 do
    per_upper.(2 + n_ra + q) <- 2.0
  done;
  let per_scale = Array.make mca_per_width 0.2 in
  {
    name = "llvm-mca/full";
    per_width = mca_per_width;
    global_width = 2;
    per_lower;
    global_lower = [| 1.0; 1.0 |];
    per_upper;
    global_upper = [| 10.0; 250.0 |];
    per_scale;
    global_scale = [| 0.2; 0.01 |];
    sample =
      (fun rng ->
        {
          per = Array.init Dt_x86.Opcode.count (fun _ -> sample_mca_row rng);
          global =
            [|
              float_of_int (Rng.int_range rng 1 10);
              float_of_int (Rng.int_range rng 50 250);
            |];
        });
    timing =
      (fun t ->
        let p = mca_params_of_table t in
        fun block -> Dt_mca.Pipeline.timing_unchecked p block);
    bounds = Some mca_bounds;
  }

(* ------------------------------------------------------------------ *)
(* llvm-mca: WriteLatency-only ablation (Section VI-B).                *)
(* ------------------------------------------------------------------ *)

let mca_write_latency uarch =
  let default = Dt_mca.Params.default uarch in
  (* Bounds with every non-WriteLatency parameter fixed at its default:
     frontend and port pressure are constants; the chain flows through
     the learned latencies (scale 0.2 -> unscale x5). *)
  let wl_bounds ctx (block : Dt_x86.Block.t) ~per ~global =
    ignore global;
    let len = Array.length block.instrs in
    let opcode i = block.instrs.(i).Dt_x86.Instruction.opcode.index in
    let total_uops = ref 0 in
    let pressure = Array.make Dt_mca.Params.num_ports 0 in
    for i = 0 to len - 1 do
      total_uops := !total_uops + default.num_micro_ops.(opcode i);
      Array.iteri
        (fun q c -> pressure.(q) <- pressure.(q) + c)
        default.port_map.(opcode i)
    done;
    let frontend =
      scalar_const ctx
        (float_of_int !total_uops /. float_of_int default.dispatch_width)
    in
    let port_bound =
      scalar_const ctx (float_of_int (Array.fold_left max 0 pressure))
    in
    let wl_nodes =
      Array.init len (fun i ->
          Ad.affine ctx (Ad.slice ctx per.(i) ~pos:0 ~len:1) ~mul:5.0 ~add:0.0)
    in
    let edge_latency ~producer ~consumer ~slot =
      let ra = float_of_int default.read_advance.(opcode consumer).(slot) in
      Ad.relu ctx (Ad.affine ctx wl_nodes.(producer) ~mul:1.0 ~add:(-.ra))
    in
    let chain = chain_bound ctx block ~edge_latency in
    Ad.concat ctx [ frontend; port_bound; chain ]
  in
  {
    name = "llvm-mca/write-latency";
    per_width = 1;
    global_width = 0;
    per_lower = [| 0.0 |];
    global_lower = [||];
    per_upper = [| 10.0 |];
    global_upper = [||];
    per_scale = [| 0.2 |];
    global_scale = [||];
    sample =
      (fun rng ->
        {
          per =
            Array.init Dt_x86.Opcode.count (fun _ ->
                [| float_of_int (Rng.int_range rng 0 10) |]);
          global = [||];
        });
    timing =
      (fun t ->
        let p = Dt_mca.Params.copy default in
        let p =
          {
            p with
            Dt_mca.Params.write_latency =
              Array.init Dt_x86.Opcode.count (fun i ->
                  max 0 (int_of_float (Float.round t.per.(i).(0))));
          }
        in
        fun block -> Dt_mca.Pipeline.timing_unchecked p block);
    bounds = Some wl_bounds;
  }

(* ------------------------------------------------------------------ *)
(* llvm_sim (Table VII): WriteLatency + PortMap micro-op counts.        *)
(* ------------------------------------------------------------------ *)

let usim_per_width = 1 + Dt_usim.Usim.num_ports

let usim_spec _uarch =
  let n = Dt_x86.Opcode.count in
  let usim_bounds ctx (block : Dt_x86.Block.t) ~per ~global =
    ignore global;
    let len = Array.length block.instrs in
    let one = scalar_const ctx 1.0 in
    let pm i =
      Ad.affine ctx
        (Ad.slice ctx per.(i) ~pos:1 ~len:Dt_usim.Usim.num_ports)
        ~mul:5.0 ~add:0.0
    in
    let pms = Array.init len pm in
    (* Micro-op count of an all-zero PortMap row is still 1. *)
    let uops i = Ad.max2 ctx (Ad.sum_all ctx pms.(i)) one in
    let total_uops = ref (uops 0) in
    for i = 1 to len - 1 do
      total_uops := Ad.add ctx !total_uops (uops i)
    done;
    let frontend = Ad.scale ctx !total_uops 0.25 (* decode width 4 *) in
    let pressure = ref pms.(0) in
    for i = 1 to len - 1 do
      pressure := Ad.add ctx !pressure pms.(i)
    done;
    let port_bound = Ad.reduce_max ctx !pressure in
    let wl_nodes =
      Array.init len (fun i ->
          Ad.affine ctx (Ad.slice ctx per.(i) ~pos:0 ~len:1) ~mul:5.0 ~add:0.0)
    in
    let edge_latency ~producer ~consumer:_ ~slot:_ = wl_nodes.(producer) in
    let chain = chain_bound ctx block ~edge_latency in
    Ad.concat ctx [ frontend; port_bound; chain ]
  in
  {
    name = "llvm_sim";
    per_width = usim_per_width;
    global_width = 0;
    per_lower = Array.make usim_per_width 0.0;
    global_lower = [||];
    per_upper =
      (let u = Array.make usim_per_width 2.0 in
       u.(0) <- 5.0;
       u);
    global_upper = [||];
    per_scale = Array.make usim_per_width 0.2;
    global_scale = [||];
    sample =
      (fun rng ->
        {
          per =
            Array.init n (fun _ ->
                let r = Array.make usim_per_width 0.0 in
                r.(0) <- float_of_int (Rng.int_range rng 0 5);
                let k_ports = Rng.int_range rng 0 2 in
                for _ = 1 to k_ports do
                  let q = Rng.int rng Dt_usim.Usim.num_ports in
                  r.(1 + q) <- float_of_int (Rng.int_range rng 1 2)
                done;
                r);
          global = [||];
        });
    timing =
      (fun t ->
        let geti ~min_ v = max min_ (int_of_float (Float.round v)) in
        let p : Dt_usim.Usim.params =
          {
            write_latency = Array.init n (fun i -> geti ~min_:0 t.per.(i).(0));
            port_map =
              Array.init n (fun i ->
                  Array.init Dt_usim.Usim.num_ports (fun q ->
                      geti ~min_:0 t.per.(i).(1 + q)));
          }
        in
        fun block -> Dt_usim.Usim.timing p block);
    bounds = Some usim_bounds;
  }

let search_bounds spec =
  let dim = spec.global_width + (Dt_x86.Opcode.count * spec.per_width) in
  let lower = Array.make dim 0.0 and upper = Array.make dim 5.0 in
  for j = 0 to spec.global_width - 1 do
    lower.(j) <- spec.global_lower.(j);
    (* DispatchWidth in [1,10]; ReorderBufferSize in [50,250] (paper
       Section V-C); other globals default to [lb, 10]. *)
    upper.(j) <- (if spec.global_scale.(j) < 0.05 then 250.0 else 10.0);
    if spec.global_scale.(j) < 0.05 then lower.(j) <- 50.0
  done;
  for i = 0 to Dt_x86.Opcode.count - 1 do
    for j = 0 to spec.per_width - 1 do
      let k = spec.global_width + (i * spec.per_width) + j in
      lower.(k) <- spec.per_lower.(j);
      upper.(k) <- 5.0
    done
  done;
  (lower, upper)

(* ------------------------------------------------------------------ *)
(* Boolean-parameter extension (Section VII): the full llvm-mca table   *)
(* plus one relaxed 0/1 flag per opcode marking it a dependency-        *)
(* breaking zero idiom.  The flag is learned exactly like the ordinal   *)
(* parameters -- relaxed to a float, clamped to [0,1], rounded at       *)
(* extraction -- evaluating the one-hot/rounding scheme the paper       *)
(* proposes for categorical parameters.                                 *)
(* ------------------------------------------------------------------ *)

let idiom_col = mca_per_width

let mca_full_idioms uarch =
  let base = mca_full uarch in
  let width = mca_per_width + 1 in
  let extend arr v =
    let out = Array.make width v in
    Array.blit arr 0 out 0 mca_per_width;
    out
  in
  let idiom_bounds ctx block ~per ~global =
    let flag_of i = Ad.slice ctx per.(i) ~pos:idiom_col ~len:1 in
    mca_bounds_core ~flag_of ctx block ~per ~global
  in
  {
    base with
    name = "llvm-mca/full+idioms";
    per_width = width;
    per_lower = extend base.per_lower 0.0;
    per_upper = extend base.per_upper 1.0;
    per_scale = extend base.per_scale 1.0;
    sample =
      (fun rng ->
        let t = base.sample rng in
        {
          t with
          per =
            Array.map
              (fun row ->
                extend row (if Rng.bernoulli rng 0.3 then 1.0 else 0.0))
              t.per;
        });
    timing =
      (fun t ->
        let params = mca_params_of_table t in
        let params =
          {
            params with
            Dt_mca.Params.zero_idiom_enabled =
              Array.map (fun (row : float array) -> row.(idiom_col) >= 0.5) t.per;
          }
        in
        fun block -> Dt_mca.Pipeline.timing_unchecked params block);
    bounds = Some idiom_bounds;
  }
