module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn

type config = {
  embed_dim : int;
  token_hidden : int;
  instr_hidden : int;
  token_layers : int;
  instr_layers : int;
  with_params : bool;
  per_instr_params : int;
  global_params : int;
  feature_width : int;
  head_hidden : int;
}

let default_config =
  {
    embed_dim = 16;
    token_hidden = 32;
    instr_hidden = 32;
    token_layers = 4;
    instr_layers = 4;
    with_params = true;
    per_instr_params = 15;
    global_params = 2;
    feature_width = 0;
    head_hidden = 0;
  }

let ithemal_config =
  { default_config with with_params = false; per_instr_params = 0; global_params = 0 }

type t = {
  cfg : config;
  store : Nn.Store.t;
  embedding : Nn.Embedding.t;
  token_lstm : Nn.Lstm.t;
  instr_lstm : Nn.Lstm.t;
  head1 : Nn.Linear.t;
  head2 : Nn.Linear.t option;
  scratch : Ad.ctx;  (** workspace for gradient-free {!predict_batch_value} calls *)
  owner : Dt_util.Sync.owner;
      (** one domain at a time trains or predicts through a model (its
          gradient buffers and scratch workspace are unlocked);
          racecheck checks it *)
}

let create ?(config = default_config) rng =
  let store = Nn.Store.create () in
  let embedding =
    Nn.Embedding.create store rng ~name:"embed" ~count:Tokenizer.vocab_size
      ~dim:config.embed_dim
  in
  let token_lstm =
    Nn.Lstm.create store rng ~name:"token" ~input:config.embed_dim
      ~hidden:config.token_hidden ~layers:config.token_layers
  in
  let instr_input =
    config.token_hidden
    + if config.with_params then config.per_instr_params + config.global_params
      else 0
  in
  let instr_lstm =
    Nn.Lstm.create store rng ~name:"instr" ~input:instr_input
      ~hidden:config.instr_hidden ~layers:config.instr_layers
  in
  let head_input = config.instr_hidden + config.feature_width in
  let head1, head2 =
    if config.head_hidden = 0 then
      (Nn.Linear.create store rng ~name:"head" ~input:head_input ~output:1, None)
    else
      ( Nn.Linear.create store rng ~name:"head1" ~input:head_input
          ~output:config.head_hidden,
        Some
          (Nn.Linear.create store rng ~name:"head2" ~input:config.head_hidden
             ~output:1) )
  in
  {
    cfg = config;
    store;
    embedding;
    token_lstm;
    instr_lstm;
    head1;
    head2;
    scratch = Ad.new_ctx ();
    owner = Dt_util.Sync.owner "surrogate.model";
  }

let config t = t.cfg
let store t = t.store

let clone t =
  let c = create ~config:t.cfg (Dt_util.Rng.create 0) in
  Nn.Store.copy_values ~src:t.store ~dst:c.store;
  c

type param_inputs = { per_instr : Ad.node array; global : Ad.node option }

(* ---- per-sequence path: two stages ----

   θ joins the network only after the token LSTM (paper Figure 3), so a
   block's token-stage output does not depend on the parameter inputs:
   a frozen surrogate's descent can compute it once per block and feed
   it back as constants, tracing only the instruction stage per step. *)

let token_stage t ctx (block : Dt_x86.Block.t) =
  Array.map
    (fun instr ->
      Nn.Lstm.forward t.token_lstm ctx
        (List.map (Nn.Embedding.forward t.embedding ctx)
           (Tokenizer.tokens instr)))
    block.instrs

let instr_stage t ctx instr_h ~params ~features =
  (match (t.cfg.with_params, params) with
  | true, None -> invalid_arg "Model.instr_stage: parameter inputs required"
  | false, Some _ ->
      invalid_arg "Model.instr_stage: unexpected parameter inputs"
  | true, Some p ->
      if Array.length p.per_instr <> Array.length instr_h then
        invalid_arg
          "Model.instr_stage: per-instruction parameter count mismatch"
  | false, None -> ());
  (match (t.cfg.feature_width, features) with
  | 0, Some _ -> invalid_arg "Model.instr_stage: unexpected features"
  | 0, None -> ()
  | w, Some f ->
      if Dt_tensor.Tensor.size (Ad.value f) <> w then
        invalid_arg "Model.instr_stage: feature width mismatch"
  | _, None -> invalid_arg "Model.instr_stage: features required");
  let instr_vectors =
    Array.to_list
      (Array.mapi
         (fun i h ->
           match params with
           | Some p ->
               let parts =
                 match p.global with
                 | Some g -> [ h; p.per_instr.(i); g ]
                 | None -> [ h; p.per_instr.(i) ]
               in
               Ad.concat ctx parts
           | None -> h)
         instr_h)
  in
  let block_vec = Nn.Lstm.forward t.instr_lstm ctx instr_vectors in
  let head ctx x =
    match t.head2 with
    | None -> Nn.Linear.forward t.head1 ctx x
    | Some h2 ->
        Nn.Linear.forward h2 ctx (Ad.tanh_ ctx (Nn.Linear.forward t.head1 ctx x))
  in
  match features with
  | None -> head ctx block_vec
  | Some f ->
      (* Physics-informed head: the analytic bounds give the base timing;
         the network produces a bounded multiplicative correction. *)
      let base = Ad.max2 ctx (Ad.reduce_max ctx f) (Ad.scalar ctx 0.05) in
      let corr = head ctx (Ad.concat ctx [ block_vec; f ]) in
      (* Clamp the log-correction to [-4, 4] via tanh for stability. *)
      let corr = Ad.scale ctx (Ad.tanh_ ctx (Ad.scale ctx corr 0.25)) 4.0 in
      Ad.mul ctx base (Ad.exp_ ctx corr)

let predict t ctx block ~params ~features =
  instr_stage t ctx (token_stage t ctx block) ~params ~features

(* ---- batched path ----

   Packs B blocks into matrix ops: every token-LSTM and
   instruction-LSTM timestep becomes one [B x hidden] gemm instead of B
   gemvs.  Sequences are grouped into power-of-two length buckets
   (deterministic: ascending bucket key, insertion order within a
   bucket) and right-padded to the bucket maximum with masks, so each
   row's forward value is bit-identical to the per-sequence [predict]
   path and padded rows contribute exactly zero gradient. *)

type batch_sample = {
  bblock : Dt_x86.Block.t;
  bparams : (float array array * float array) option;
  bfeatures : float array option;
}

let bucket_len len =
  let b = ref 1 in
  while !b < len do
    b := !b * 2
  done;
  !b

(* Group while preserving order: ascending bucket key, and within one
   bucket the original scan order (no Hashtbl iteration anywhere near
   the deterministic substrate). *)
let group_by_key entries =
  let keys =
    List.sort_uniq compare (List.map (fun (k, _) -> k) entries)
  in
  List.map (fun k -> List.filter_map (fun (k', e) -> if k = k' then Some e else None) entries) keys

let head_batch t ctx x =
  match t.head2 with
  | None -> Nn.Linear.forward_batch t.head1 ctx x
  | Some h2 ->
      Nn.Linear.forward_batch h2 ctx
        (Ad.tanh_ ctx (Nn.Linear.forward_batch t.head1 ctx x))

let forward_batch t ctx (samples : batch_sample array) =
  let nb = Array.length samples in
  if nb = 0 then invalid_arg "Model.forward_batch: empty batch";
  Array.iter
    (fun s ->
      (match (t.cfg.with_params, s.bparams) with
      | true, None -> invalid_arg "Model.forward_batch: parameter inputs required"
      | false, Some _ ->
          invalid_arg "Model.forward_batch: unexpected parameter inputs"
      | true, Some (per, _) ->
          if Array.length per <> Array.length s.bblock.instrs then
            invalid_arg
              "Model.forward_batch: per-instruction parameter count mismatch"
      | false, None -> ());
      match (t.cfg.feature_width, s.bfeatures) with
      | 0, Some _ -> invalid_arg "Model.forward_batch: unexpected features"
      | 0, None -> ()
      | w, Some f ->
          if Array.length f <> w then
            invalid_arg "Model.forward_batch: feature width mismatch"
      | _, None -> invalid_arg "Model.forward_batch: features required")
    samples;
  (* Token stage: every instruction of every block, bucketed by
     tokenized length.  [instr_h.(s).(i)] ends up as (bucket output
     node, row) for instruction i of sample s. *)
  (* Placeholder for slots that are always overwritten before use; a
     leaf lives outside the tape so it never perturbs the flow audit. *)
  let dummy_src = (Ad.leaf ~value:(T.scalar 0.0) ~grad:(T.scalar 0.0), 0) in
  let instr_h =
    Array.map
      (fun s -> Array.make (Array.length s.bblock.instrs) dummy_src)
      samples
  in
  let token_entries = ref [] in
  Array.iteri
    (fun s smp ->
      Array.iteri
        (fun i instr ->
          let toks = Array.of_list (Tokenizer.tokens instr) in
          token_entries :=
            (bucket_len (Array.length toks), (s, i, toks)) :: !token_entries)
        smp.bblock.instrs)
    samples;
  List.iter
    (fun group ->
      let group = Array.of_list group in
      let bsz = Array.length group in
      let maxlen =
        Array.fold_left
          (fun acc (_, _, toks) -> max acc (Array.length toks))
          0 group
      in
      let steps =
        List.init maxlen (fun step ->
            let live (_, _, toks) = step < Array.length toks in
            let idx =
              Array.map
                (fun ((_, _, toks) as e) -> if live e then toks.(step) else 0)
                group
            in
            let x = Nn.Embedding.forward_batch t.embedding ctx idx in
            let mask =
              if Array.for_all live group then None
              else Some (Array.map (fun e -> if live e then 1.0 else 0.0) group)
            in
            (x, mask))
      in
      let h = Nn.Lstm.forward_batch t.token_lstm ctx ~batch:bsz steps in
      Array.iteri (fun r (s, i, _) -> instr_h.(s).(i) <- (h, r)) group)
    (group_by_key (List.rev !token_entries));
  (* Instruction stage: blocks bucketed by instruction count, parameter
     vectors appended as one constant matrix per timestep (they are
     plain floats during surrogate training; parameter-table
     optimization runs the per-sequence [instr_stage], where gradients
     flow into the table). *)
  let per_w = if t.cfg.with_params then t.cfg.per_instr_params else 0 in
  let glob_w = if t.cfg.with_params then t.cfg.global_params else 0 in
  let pred_src = Array.make nb dummy_src in
  let sample_entries =
    List.init nb (fun s ->
        (bucket_len (Array.length samples.(s).bblock.instrs), s))
  in
  List.iter
    (fun group ->
      let group = Array.of_list group in
      let bsz = Array.length group in
      let ilen s = Array.length samples.(s).bblock.instrs in
      let maxlen = Array.fold_left (fun acc s -> max acc (ilen s)) 0 group in
      let steps =
        List.init maxlen (fun step ->
            let parts =
              Array.map
                (fun s ->
                  if step < ilen s then instr_h.(s).(step)
                  else instr_h.(s).(ilen s - 1))
                group
            in
            let hstack = Ad.stack_rows ctx parts in
            let input =
              if not t.cfg.with_params then hstack
              else begin
                let width = per_w + glob_w in
                let m = T.zeros ~rows:bsz ~cols:width in
                Array.iteri
                  (fun r s ->
                    if step < ilen s then begin
                      let per, glob =
                        match samples.(s).bparams with
                        | Some p -> p
                        | None -> assert false
                      in
                      Array.iteri (fun j v -> T.set m r j v) per.(step);
                      Array.iteri (fun j v -> T.set m r (per_w + j) v) glob
                    end)
                  group;
                Ad.concat_cols ctx [ hstack; Ad.constant ctx m ]
              end
            in
            let mask =
              if Array.for_all (fun s -> step < ilen s) group then None
              else
                Some
                  (Array.map (fun s -> if step < ilen s then 1.0 else 0.0) group)
            in
            (input, mask))
      in
      let block_vec = Nn.Lstm.forward_batch t.instr_lstm ctx ~batch:bsz steps in
      let pred =
        if t.cfg.feature_width = 0 then head_batch t ctx block_vec
        else begin
          let fw = t.cfg.feature_width in
          let feats = T.zeros ~rows:bsz ~cols:fw in
          let base = T.zeros ~rows:bsz ~cols:1 in
          Array.iteri
            (fun r s ->
              let f =
                match samples.(s).bfeatures with
                | Some f -> f
                | None -> assert false
              in
              Array.iteri (fun j v -> T.set feats r j v) f;
              (* Same reduction as the per-sequence reduce_max/max2 pair:
                 strict > keeps the first maximum, then the 0.05 floor. *)
              let best = ref f.(0) in
              Array.iter (fun v -> if v > !best then best := v) f;
              T.set base r 0 (Float.max !best 0.05))
            group;
          let corr =
            head_batch t ctx
              (Ad.concat_cols ctx [ block_vec; Ad.constant ctx feats ])
          in
          let corr = Ad.scale ctx (Ad.tanh_ ctx (Ad.scale ctx corr 0.25)) 4.0 in
          Ad.mul ctx (Ad.constant ctx base) (Ad.exp_ ctx corr)
        end
      in
      Array.iteri (fun r s -> pred_src.(s) <- (pred, r)) group)
    (group_by_key sample_entries);
  Ad.stack_rows ctx pred_src

(* ---- batched entry points ----

   A one-sample batch is the scalar prediction: there is no separate
   per-sequence forward entry point. *)

let train_batch t ctx (samples : batch_sample array) ~targets =
  let nb = Array.length samples in
  if Array.length targets <> nb then
    invalid_arg "Model.train_batch: targets length mismatch";
  Dt_util.Sync.with_owner t.owner ~site:"Model.train_batch" @@ fun () ->
  Ad.reset ctx;
  let per_sample = Ad.mape_batch ctx (forward_batch t ctx samples) ~targets in
  Ad.backward ctx (Ad.sum_all ctx per_sample);
  let v = Ad.value per_sample in
  Array.init nb (fun i -> T.get v i 0)

let predict_batch_value t (samples : batch_sample array) =
  Dt_util.Sync.with_owner t.owner ~site:"Model.predict_batch_value"
  @@ fun () ->
  let ctx = t.scratch in
  Ad.reset ctx;
  let v = Ad.value (forward_batch t ctx samples) in
  Array.init (Array.length samples) (fun i -> T.get v i 0)
