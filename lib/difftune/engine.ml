module T = Dt_tensor.Tensor
module Ad = Dt_autodiff.Ad
module Nn = Dt_nn.Nn
module Model = Dt_surrogate.Model
module Rng = Dt_util.Rng
module Pool = Dt_util.Pool
module Faultsim = Dt_util.Faultsim
module Welford = Dt_util.Stats.Welford
module Enc = Checkpoint.Enc
module Dec = Checkpoint.Dec

(* How [collect] spends its simulation budget: uniformly over (θ, x),
   or stratified with Neyman-style allocation from pilot-fit complexity
   estimates (Turaco; DESIGN.md §6j). *)
type sampling = Uniform | Guided of Strata.config

type config = {
  seed : int;
  sim_multiplier : int;
  surrogate_passes : float;
  surrogate_lr : float;
  table_lr : float;
  table_passes : float;
  batch : int;
  table_batch : int;
  embed_dim : int;
  token_hidden : int;
  instr_hidden : int;
  token_layers : int;
  instr_layers : int;
  max_train_block_len : int;
  grad_clip : float;
  use_analytic : bool;
  head_hidden : int;
  sampling : sampling;
  simcache_capacity : int;
  log : string -> unit;
}

let default_config =
  {
    seed = 0;
    sim_multiplier = 10;
    surrogate_passes = 2.0;
    surrogate_lr = 0.001;
    table_lr = 0.05;
    table_passes = 1.0;
    batch = 256;
    table_batch = 64;
    embed_dim = 16;
    token_hidden = 32;
    instr_hidden = 32;
    token_layers = 4;
    instr_layers = 4;
    max_train_block_len = 24;
    grad_clip = 5.0;
    use_analytic = true;
    head_hidden = 16;
    sampling = Uniform;
    simcache_capacity = 8192;
    log = ignore;
  }

let sampling_tag = function
  | Uniform -> "uniform"
  | Guided sc -> "guided:" ^ Strata.digest sc

let fast_config =
  {
    default_config with
    sim_multiplier = 4;
    surrogate_passes = 1.0;
    batch = 32;
    table_batch = 16;
    embed_dim = 8;
    token_hidden = 12;
    instr_hidden = 12;
    token_layers = 1;
    instr_layers = 1;
    max_train_block_len = 12;
  }

type sim_sample = {
  block_idx : int;
  per : float array array;
  global : float array;
  target : float;
}

(* Work within a minibatch is split into a {e fixed} number of shards,
   independent of how many domains execute them: each shard accumulates
   its gradients sequentially into its own replica, and the per-shard
   sums are reduced in shard-index order.  Floating-point results are
   therefore bit-identical whatever DIFFTUNE_DOMAINS says. *)
let n_shards = 16

let with_pool f =
  let pool = Pool.create () in
  Fun.protect ~finally:(fun () -> Pool.shutdown pool) (fun () -> f pool)

(* ------------------------------------------------------------------ *)
(* Fault tolerance: checkpoint payloads, rollback snapshots, and       *)
(* numeric-health checks shared by the two training phases.            *)
(* ------------------------------------------------------------------ *)

(* Rollback budget: a batch with non-finite or exploding loss/gradients
   restores the last good snapshot and halves the learning rate, at most
   [max_backoffs] times per phase before the run fails with a structured
   [Fault.Numeric_divergence]. *)
let max_backoffs = 4
let backoff_factor = 0.5
let explode_factor = 100.0

(* Periodic on-disk checkpoints per training phase. *)
let checkpoint_segments = 8

let enc_weights b w =
  Enc.list b
    (fun b (name, rows, cols, data) ->
      Enc.string b name;
      Enc.int b rows;
      Enc.int b cols;
      Enc.float_array b data)
    w

let dec_weights d =
  Dec.list d (fun d ->
      let name = Dec.string d in
      let rows = Dec.int d in
      let cols = Dec.int d in
      let data = Dec.float_array d in
      (name, rows, cols, data))

let enc_opt b (s : Nn.Optimizer.state) =
  Enc.int b s.algo_step;
  Enc.list b
    (fun b (name, m, v) ->
      Enc.string b name;
      Enc.float_array b m;
      Enc.float_array b v)
    s.moments

let dec_opt d =
  let algo_step = Dec.int d in
  let moments =
    Dec.list d (fun d ->
        let name = Dec.string d in
        let m = Dec.float_array d in
        let v = Dec.float_array d in
        (name, m, v))
  in
  { Nn.Optimizer.algo_step; moments }

let enc_table b (t : Spec.table) =
  Enc.array b Enc.float_array t.per;
  Enc.float_array b t.global

let dec_table d =
  let per = Dec.array d Dec.float_array in
  let global = Dec.float_array d in
  { Spec.per; global }

(* Mid-phase training state: everything beyond the immutable schedule
   that the optimizer loop mutates.  Doubles as the in-memory rollback
   snapshot and (serialized) the mid-phase checkpoint payload; restoring
   one and replaying the remaining minibatches is bit-identical to an
   uninterrupted run. *)
type train_snapshot = {
  ts_cursor : int; (* next step index *)
  ts_weights : (string * int * int * float array) list;
  ts_opt : Nn.Optimizer.state;
  ts_lr : float; (* backed-off base learning rate *)
  ts_lr_dropped : bool;
  ts_welford : int * float * float;
  ts_best : (Spec.table * float) option; (* table phase only *)
  ts_rng : int64;
}

let enc_snapshot b s =
  Enc.int b s.ts_cursor;
  enc_weights b s.ts_weights;
  enc_opt b s.ts_opt;
  Enc.float b s.ts_lr;
  Enc.bool b s.ts_lr_dropped;
  (let c, m, m2 = s.ts_welford in
   Enc.int b c;
   Enc.float b m;
   Enc.float b m2);
  Enc.option b
    (fun b (t, e) ->
      enc_table b t;
      Enc.float b e)
    s.ts_best;
  Enc.i64 b s.ts_rng

let dec_snapshot d =
  let ts_cursor = Dec.int d in
  let ts_weights = dec_weights d in
  let ts_opt = dec_opt d in
  let ts_lr = Dec.float d in
  let ts_lr_dropped = Dec.bool d in
  let ts_welford =
    let c = Dec.int d in
    let m = Dec.float d in
    let m2 = Dec.float d in
    (c, m, m2)
  in
  let ts_best =
    Dec.option d (fun d ->
        let t = dec_table d in
        let e = Dec.float d in
        (t, e))
  in
  let ts_rng = Dec.i64 d in
  { ts_cursor; ts_weights; ts_opt; ts_lr; ts_lr_dropped; ts_welford; ts_best;
    ts_rng }

(* Every checkpoint payload starts with a fingerprint of the run
   configuration that produced it; a stale file from a different run
   must never be resumed into this one. *)
type 'a resume = Fresh | Loaded of 'a

let try_load ~dir ~name ~fp ~(health : Fault.health) ~log dec =
  match
    Checkpoint.load ~dir ~name (fun d ->
        let found = Dec.string d in
        if found <> fp then `Mismatch found else `Ok (dec d))
  with
  | Error (Fault.Checkpoint_missing _) -> Fresh
  | Error f ->
      health.bad_checkpoints <- health.bad_checkpoints + 1;
      log (Printf.sprintf "ignoring checkpoint: %s" (Fault.to_string f));
      Fresh
  | Ok (`Mismatch found) ->
      health.bad_checkpoints <- health.bad_checkpoints + 1;
      log
        (Fault.to_string
           (Fault.Checkpoint_mismatch
              { path = Checkpoint.path ~dir ~name; expected = fp; found }));
      Fresh
  | Ok (`Ok v) -> Loaded v

(* The [engine.abort] fault site fires after every checkpoint install:
   arming it simulates a SIGKILL at a resumable boundary. *)
let save_ckpt ~dir ~name ~fp write =
  Checkpoint.save ~dir ~name (fun b ->
      Enc.string b fp;
      write b);
  Faultsim.fire_exn "engine.abort"

let fnv64 fold =
  let h = ref 0xcbf29ce484222325L in
  fold (fun (bits : int64) ->
      h := Int64.mul (Int64.logxor !h bits) 0x100000001b3L);
  Printf.sprintf "%016Lx" !h

let table_digest (t : Spec.table) =
  fnv64 (fun mix ->
      Array.iter (fun row -> Array.iter (fun v -> mix (Int64.bits_of_float v)) row) t.per;
      Array.iter (fun v -> mix (Int64.bits_of_float v)) t.global)

let poison_grads store =
  Nn.Store.iter store (fun _ ~value:_ ~grad ->
      if T.size grad > 0 then T.set1 grad 0 Float.nan)

(* First problem with this minibatch, if any: a non-finite per-sample
   loss, a batch mean blowing past the running average, or a non-finite
   reduced gradient. *)
let batch_problem losses ~b0 ~bsize ~running store =
  let sum = ref 0.0 and bad = ref None in
  for step = b0 to b0 + bsize - 1 do
    if !bad = None && not (Float.is_finite losses.(step)) then
      bad := Some (Printf.sprintf "non-finite loss at step %d" step);
    sum := !sum +. losses.(step)
  done;
  if !bad = None && Welford.count running > 0 then begin
    let mean = !sum /. float_of_int bsize in
    let baseline = Float.max 1.0 (Welford.mean running) in
    if mean > explode_factor *. baseline then
      bad :=
        Some
          (Printf.sprintf "exploding loss (batch mean %.3g vs running %.3g)"
             mean baseline)
  end;
  if !bad = None && not (Float.is_finite (Nn.Store.grad_norm store)) then
    bad := Some "non-finite gradient";
  !bad

(* ------------------------------------------------------------------ *)

let eligible_blocks config blocks =
  let acc = ref [] in
  Array.iteri
    (fun i b ->
      if Dt_x86.Block.length b <= config.max_train_block_len then
        acc := (i, b) :: !acc)
    blocks;
  Array.of_list (List.rev !acc)

let eligible_labeled config train =
  Array.of_list
    (List.filter
       (fun (b, _) -> Dt_x86.Block.length b <= config.max_train_block_len)
       train)

let dataset_fp config (spec : Spec.t) ~sampling ~eligible =
  Printf.sprintf "dataset|%s|seed=%d|mult=%d|eligible=%d|sampling=%s" spec.name
    config.seed config.sim_multiplier eligible (sampling_tag sampling)

let enc_sample b (s : sim_sample) =
  Enc.int b s.block_idx;
  Enc.array b Enc.float_array s.per;
  Enc.float_array b s.global;
  Enc.float b s.target

let dec_sample d =
  let block_idx = Dec.int d in
  let per = Dec.array d Dec.float_array in
  let global = Dec.float_array d in
  let target = Dec.float d in
  { block_idx; per; global; target }

(* The surrogate's shape under [config]: [params] is the spec whose
   table the model reads ([None] for the Ithemal baseline), and the
   analytic features are used only under [use_analytic]. *)
let model_config config ~(params : Spec.t option) ~feature_width =
  let per, global =
    match params with Some s -> (s.per_width, s.global_width) | None -> (0, 0)
  in
  {
    Model.embed_dim = config.embed_dim;
    token_hidden = config.token_hidden;
    instr_hidden = config.instr_hidden;
    token_layers = config.token_layers;
    instr_layers = config.instr_layers;
    with_params = params <> None;
    per_instr_params = per;
    global_params = global;
    feature_width = (if config.use_analytic then feature_width else 0);
    head_hidden = config.head_hidden;
  }

let spec_model_config config (spec : Spec.t) =
  model_config config ~params:(Some spec)
    ~feature_width:(if spec.bounds <> None then Spec.n_bounds else 0)

let make_model config spec rng =
  Model.create ~config:(spec_model_config config spec) rng

(* A structural copy of [model] with the same parameter values; its store
   can be reduced back into the original's via [Store.accum_grads]. *)
let replicate model =
  let m = Model.create ~config:(Model.config model) (Rng.create 0) in
  Nn.Store.copy_values ~src:(Model.store model) ~dst:(Model.store m);
  m

(* ---- batched surrogate training helpers ----

   Each shard trains on length-bucketed minibatches: its schedule slice
   is grouped by [Model.bucket_len] of the block length (the bucketing
   the model uses for sequence packing) and every bucket becomes one
   [Model.train_batch] call.  Bucketing is by sorted unique key with
   first-appearance order inside a bucket, so the grouping depends only
   on the schedule — never on domain count or hash-table iteration
   order. *)

let train_shard_batched model ctx (spec : Spec.t) blocks
    (data : sim_sample array) sched losses ~lo ~hi =
  if hi > lo then begin
    let with_features = (Model.config model).feature_width > 0 in
    let steps = Array.init (hi - lo) (fun i -> lo + i) in
    let key step =
      let s = data.(sched.(step)) in
      Model.bucket_len (Dt_x86.Block.length blocks.(s.block_idx))
    in
    let keys = List.sort_uniq compare (Array.to_list (Array.map key steps)) in
    List.iter
      (fun k ->
        let bucket =
          Array.of_list
            (List.filter (fun step -> key step = k) (Array.to_list steps))
        in
        let samples =
          Array.map
            (fun step ->
              let s = data.(sched.(step)) in
              let block = blocks.(s.block_idx) in
              {
                Model.bblock = block;
                bparams = Some (s.per, s.global);
                bfeatures =
                  (* On the shard's context: [Model.train_batch] resets it
                     again before building its own graph. *)
                  (if with_features then
                     Spec.bound_values spec ctx block ~per:s.per
                       ~global:s.global
                   else None);
              })
            bucket
        in
        let targets =
          Array.map
            (fun step -> Float.max data.(sched.(step)).target 1e-3)
            bucket
        in
        let ls = Model.train_batch model ctx samples ~targets in
        Array.iteri (fun i step -> losses.(step) <- ls.(i)) bucket)
      keys
  end

(* ---- complexity-guided collection (DESIGN.md §6j) ----

   Guided collection spends the same budget [n] in three deterministic
   phases: a uniform pilot draw (a prefix of the very sampling stream
   the uniform path would use, reused verbatim as dataset rows), short
   per-stratum pilot fits whose loss curves estimate learning
   complexity, and an adaptive main draw whose per-stratum budgets come
   from [Sampler.allocate].  Every random decision flows through one
   decorrelated RNG per sample index ([Rng.create (base + i)]) or
   through sequential pre-pool code, so the dataset is a pure function
   of (config, spec, corpus) — bit-identical across [DIFFTUNE_DOMAINS]
   and across kill/resume at any point (the [collect.pilot_crash]
   fault site exercises a mid-pilot kill). *)

let pilot_frac = 0.15
let pilot_min_per_stratum = 2
let pilot_epochs = 3
let alloc_floor_frac = 0.2

(* Pilot fits use a deliberately tiny surrogate: complexity ranking
   only needs relative loss-curve shapes, and the pilot must stay a
   rounding error next to the main collection + training bill. *)
let make_pilot_model config spec =
  let c = spec_model_config config spec in
  Model.create
    ~config:
      {
        c with
        embed_dim = min c.embed_dim 8;
        token_hidden = min c.token_hidden 12;
        instr_hidden = min c.instr_hidden 12;
        token_layers = 1;
        instr_layers = 1;
        head_hidden = min c.head_hidden 8;
      }
    (Rng.create (config.seed lxor 0x9110_7))

(* [pilot_fit] — a few full-batch epochs of a fresh pilot model over one
   stratum's pilot rows (through the same bucketed batched trainer the
   main phase uses); first/last mean epoch losses feed
   [Sampler.complexity].  Sequential on one context: deterministic. *)
let pilot_fit config (spec : Spec.t) blocks (samples : sim_sample array) =
  let m = Array.length samples in
  if m = 0 then None
  else begin
    let model = make_pilot_model config spec in
    let ctx = Ad.new_ctx () in
    let store = Model.store model in
    let opt = Nn.Optimizer.adam store ~lr:config.surrogate_lr in
    let sched = Array.init m Fun.id in
    let losses = Array.make m 0.0 in
    let first = ref 0.0 and last = ref 0.0 in
    for epoch = 0 to pilot_epochs - 1 do
      train_shard_batched model ctx spec blocks samples sched losses ~lo:0
        ~hi:m;
      Nn.Store.clip_grads store ~max_norm:(config.grad_clip *. float_of_int m);
      Nn.Optimizer.step opt ~batch:m;
      let mean = Array.fold_left ( +. ) 0.0 losses /. float_of_int m in
      if epoch = 0 then first := mean;
      last := mean
    done;
    Some (Sampler.complexity ~first:!first ~last:!last)
  end

let collect ?checkpoint_dir ?health config (spec : Spec.t) blocks =
  let health = match health with Some h -> h | None -> Fault.create_health () in
  let eligible = eligible_blocks config blocks in
  if Array.length eligible = 0 then
    Fault.error
      (Fault.No_training_blocks
         {
           phase = Fault.Collect;
           detail =
             Printf.sprintf "all %d blocks exceed max_train_block_len %d"
               (Array.length blocks) config.max_train_block_len;
         });
  let sampling = config.sampling in
  let n = config.sim_multiplier * Array.length eligible in
  let fp = dataset_fp config spec ~sampling ~eligible:(Array.length eligible) in
  let cached =
    match checkpoint_dir with
    | None -> Fresh
    | Some dir ->
        try_load ~dir ~name:"dataset" ~fp ~health ~log:config.log (fun d ->
            Dec.array d dec_sample)
  in
  match cached with
  | Loaded out when Array.length out = n ->
      health.skipped_phases <- health.skipped_phases + 1;
      config.log
        (Printf.sprintf "collect phase restored from checkpoint (%d samples)" n);
      out
  | _ ->
      let out =
        Array.make n { block_idx = 0; per = [||]; global = [||]; target = 0.0 }
      in
      (* One decorrelated RNG per sample (SplitMix-style seeding) makes each
         sample independent of execution order.  Timings are memoized
         under (table digest, block digest): the timing is a pure
         function of that pair, so the memo cannot change any sample —
         it only skips re-simulating colliding draws. *)
      let base = config.seed lxor 0x1d1f_f7 in
      let cache = Simcache.create ~capacity:config.simcache_capacity in
      let block_keys = Array.map (fun (_, b) -> Simcache.block_key b) eligible in
      (* One uniform draw of sample index [i]; returns the eligible
         index it landed on. *)
      let draw_uniform i =
        let rng = Rng.create (base + i) in
        let ei = Rng.int rng (Array.length eligible) in
        let block_idx, block = eligible.(ei) in
        let table = spec.sample rng in
        let target =
          Simcache.find_or_add cache
            (Simcache.key ~table:(table_digest table) ~block:block_keys.(ei))
            (fun () -> spec.timing table block)
        in
        let per, global = Spec.normalize_block spec table block in
        out.(i) <- { block_idx; per; global; target };
        ei
      in
      (match sampling with
      | Uniform ->
          with_pool (fun pool ->
              Pool.run pool n (fun i -> ignore (draw_uniform i)))
      | Guided scfg ->
          let strata = Strata.stratify scfg (Array.map snd eligible) in
          let k = Strata.n_strata strata in
          let n_pilot =
            Sampler.pilot_budget ~budget:n ~n_strata:k ~pilot_frac
              ~min_per_stratum:pilot_min_per_stratum
          in
          let pilot_fp = fp ^ "|pilot" in
          let pilot_cached =
            match checkpoint_dir with
            | None -> Fresh
            | Some dir ->
                try_load ~dir ~name:"pilot" ~fp:pilot_fp ~health
                  ~log:config.log (fun d ->
                    let samples = Dec.array d dec_sample in
                    let scores = Dec.float_array d in
                    (samples, scores))
          in
          let scores =
            match pilot_cached with
            | Loaded (samples, scores)
              when Array.length samples = n_pilot && Array.length scores = k ->
                Array.blit samples 0 out 0 n_pilot;
                health.skipped_phases <- health.skipped_phases + 1;
                config.log
                  (Printf.sprintf
                     "collect: pilot phase restored from checkpoint (%d \
                      samples, %d strata)"
                     n_pilot k);
                scores
            | _ ->
                let pilot_ei = Array.make (max n_pilot 1) 0 in
                with_pool (fun pool ->
                    Pool.run pool n_pilot (fun i ->
                        pilot_ei.(i) <- draw_uniform i));
                Faultsim.fire_exn "collect.pilot_crash";
                let measured =
                  Array.init k (fun h ->
                      let rows = ref [] in
                      for i = n_pilot - 1 downto 0 do
                        if strata.Strata.assign.(pilot_ei.(i)) = h then
                          rows := out.(i) :: !rows
                      done;
                      pilot_fit config spec blocks (Array.of_list !rows))
                in
                let max_measured =
                  Array.fold_left
                    (fun acc v ->
                      match v with Some s -> Float.max acc s | None -> acc)
                    1.0 measured
                in
                (* A stratum the pilot never saw scores as maximally
                   complex: unknown coverage must not starve. *)
                let scores =
                  Array.map
                    (function Some s -> s | None -> max_measured)
                    measured
                in
                (match checkpoint_dir with
                | None -> ()
                | Some dir ->
                    save_ckpt ~dir ~name:"pilot" ~fp:pilot_fp (fun b ->
                        Enc.array b enc_sample (Array.sub out 0 n_pilot);
                        Enc.float_array b scores));
                scores
          in
          let sizes = Array.map Array.length strata.Strata.members in
          let remaining = n - n_pilot in
          let alloc =
            Sampler.allocate ~budget:remaining ~floor_frac:alloc_floor_frac
              ~sizes ~scores
          in
          config.log
            (Printf.sprintf "collect: guided allocation over %d strata: %s" k
               (String.concat ", "
                  (Array.to_list
                     (Array.mapi
                        (fun h a ->
                          Printf.sprintf "%s=%d(score %.3f)"
                            strata.Strata.keys.(h) a scores.(h))
                        alloc))));
          let stratum_of = Array.make (max remaining 1) 0 in
          let pos = ref 0 in
          Array.iteri
            (fun h a ->
              for _ = 1 to a do
                stratum_of.(!pos) <- h;
                incr pos
              done)
            alloc;
          (* Cheap strata draw their tables from a small shared pool:
             repeated (table, block) pairs then resolve through the
             simcache at near-zero simulation cost.  Complex strata keep
             a fresh table per sample for maximal coverage.  Pools are
             generated sequentially before the parallel draw. *)
          let max_score = Array.fold_left Float.max 0.0 scores in
          let prng = Rng.create (config.seed lxor 0x9001_7ab) in
          let pools =
            Array.init k (fun h ->
                if
                  alloc.(h) >= 8
                  && Float.compare scores.(h) (0.5 *. max_score) <= 0
                then
                  Array.init
                    (min 64 (max 1 (alloc.(h) / 4)))
                    (fun _ -> spec.sample prng)
                else [||])
          in
          with_pool (fun pool ->
              Pool.run pool remaining (fun j ->
                  let i = n_pilot + j in
                  let rng = Rng.create (base + i) in
                  let h = stratum_of.(j) in
                  let members = strata.Strata.members.(h) in
                  let ei = members.(Rng.int rng (Array.length members)) in
                  let block_idx, block = eligible.(ei) in
                  let table =
                    let p = pools.(h) in
                    if Array.length p = 0 then spec.sample rng
                    else p.(Rng.int rng (Array.length p))
                  in
                  let target =
                    Simcache.find_or_add cache
                      (Simcache.key ~table:(table_digest table)
                         ~block:block_keys.(ei))
                      (fun () -> spec.timing table block)
                  in
                  let per, global = Spec.normalize_block spec table block in
                  out.(i) <- { block_idx; per; global; target })));
      config.log
        (Printf.sprintf "collect: simulation memo cache %d hits / %d misses"
           (Simcache.hits cache) (Simcache.misses cache));
      (match checkpoint_dir with
      | None -> ()
      | Some dir ->
          save_ckpt ~dir ~name:"dataset" ~fp (fun b ->
              Enc.array b enc_sample out));
      out

(* The epoch shuffles consume the RNG sequentially, so the whole visit
   order is fixed up front; shards then index into it. *)
let make_schedule rng ~n ~steps =
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  Array.init steps (fun step ->
      if step > 0 && step mod n = 0 then Rng.shuffle rng order;
      order.(step mod n))

(* Bounds of shard [k] within [lo, lo + size). *)
let shard_range ~lo ~size k =
  (lo + (k * size / n_shards), lo + ((k + 1) * size / n_shards))

(* A phase checkpoint holds either a mid-phase snapshot (tag 0) or the
   completed phase's payload (tag 1). *)
let dec_phase_state ~name dec_done d =
  match Dec.int d with
  | 0 -> `At (dec_snapshot d)
  | 1 -> `Done (dec_done d)
  | n -> raise (Dec.Corrupt (Printf.sprintf "bad %s phase tag %d" name n))

(* ---- one learning phase (DESIGN.md §6b) ----

   Surrogate training (Equation 2) and table descent (Equation 3) are
   the same minibatch Adam loop over different parameters, and both
   survive faults the same way; [run_phase] is that loop.  It resumes
   from the phase checkpoint [name] (or returns the completed phase's
   payload outright), runs [steps] scheduled steps over a population
   of [n] in minibatches of [batch], keeps two good snapshots, rolls a
   bad minibatch back with a learning-rate backoff, writes a
   checkpoint every [steps / checkpoint_segments] steps, and finally
   records the payload [finish] builds from the mean training loss.

   The caller passes what differs: [prepare] builds, on the pool, the
   function that fills [losses] for one minibatch and accumulates its
   gradients into [store]; [clip] bounds the gradient norm per sample;
   [drop_lr_at] cuts the rate to 0.3x once a batch passes that step;
   [after_step] runs after each optimizer step; [best] is the
   validation pick the snapshots carry; [restored] installs a
   completed payload read back from disk. *)
let run_phase ?checkpoint_dir ?(health = Fault.create_health ()) ~log ~name
    ~fault_phase ~fp ~rng ~n ~steps ~batch ~store ~lr ?clip ?drop_lr_at
    ?(after_step = fun ~b0:_ ~bsize:_ -> ()) ?(best = ref None)
    ?(restored = ignore) ~prepare ~finish ~enc_done ~dec_done () =
  let resume =
    match checkpoint_dir with
    | None -> Fresh
    | Some dir ->
        try_load ~dir ~name ~fp ~health ~log (dec_phase_state ~name dec_done)
  in
  let save_state tag write =
    match checkpoint_dir with
    | None -> ()
    | Some dir ->
        save_ckpt ~dir ~name ~fp (fun b ->
            Enc.int b tag;
            write b)
  in
  match resume with
  | Loaded (`Done v) ->
      restored v;
      health.skipped_phases <- health.skipped_phases + 1;
      log (Printf.sprintf "%s phase restored from checkpoint" name);
      v
  | (Fresh | Loaded (`At _)) as resume ->
      let opt = Nn.Optimizer.adam store ~lr in
      let sched = make_schedule rng ~n ~steps in
      let losses = Array.make (max steps 1) 0.0 in
      let running = Welford.create () in
      let base_lr = ref lr in
      let lr_dropped = ref false in
      let cursor = ref 0 in
      let backoffs = ref 0 in
      let set_effective_lr () =
        Nn.Optimizer.set_lr opt
          (!base_lr *. if !lr_dropped then 0.3 else 1.0)
      in
      let take_snapshot () =
        {
          ts_cursor = !cursor;
          ts_weights = Nn.Store.export_values store;
          ts_opt = Nn.Optimizer.export_state opt;
          ts_lr = !base_lr;
          ts_lr_dropped = !lr_dropped;
          ts_welford = Welford.state running;
          ts_best = !best;
          ts_rng = Rng.state rng;
        }
      in
      let restore_snapshot s =
        Nn.Store.import_values store s.ts_weights;
        Nn.Optimizer.import_state opt s.ts_opt;
        Welford.restore running s.ts_welford;
        cursor := s.ts_cursor;
        base_lr := s.ts_lr;
        lr_dropped := s.ts_lr_dropped;
        best := s.ts_best;
        set_effective_lr ()
      in
      (match resume with
      | Loaded (`At snap) when snap.ts_rng <> Rng.state rng ->
          (* The stored stream position disagrees with the rebuilt
             schedule: written by incompatible scheduling code. *)
          health.bad_checkpoints <- health.bad_checkpoints + 1;
          log "ignoring checkpoint: RNG stream mismatch"
      | Loaded (`At snap) ->
          restore_snapshot snap;
          health.resumed_steps <- health.resumed_steps + snap.ts_cursor;
          log
            (Printf.sprintf "%s phase resumed at step %d/%d" name
               snap.ts_cursor steps)
      | _ -> ());
      let good = ref (take_snapshot ()) in
      let prev_good = ref !good in
      let ckpt_every = max 1 (steps / checkpoint_segments) in
      let rollback ~b0 detail =
        health.nan_batches <- health.nan_batches + 1;
        Nn.Store.zero_grads store;
        if !backoffs >= max_backoffs then
          Fault.error
            (Fault.Numeric_divergence
               { phase = fault_phase; step = b0; retries = !backoffs; detail });
        (* A snapshot taken at the failing batch replays the identical
           forward pass; fall back to the previous one so the replayed
           optimizer steps (at the reduced rate) change the parameters
           the bad batch sees.  The rate that failed is the one halved:
           the target's own rate would replay a repeat failure at the
           same rate, bit for bit. *)
        let lr = !base_lr *. backoff_factor in
        let target = if (!good).ts_cursor < b0 then !good else !prev_good in
        good := target;
        prev_good := target;
        restore_snapshot target;
        base_lr := lr;
        set_effective_lr ();
        incr backoffs;
        health.rollbacks <- health.rollbacks + 1;
        health.lr_backoffs <- health.lr_backoffs + 1;
        log
          (Printf.sprintf
             "%s: %s at step %d; rolled back to step %d, lr -> %g (retry \
              %d/%d)"
             name detail b0 target.ts_cursor (Nn.Optimizer.get_lr opt)
             !backoffs max_backoffs)
      in
      with_pool (fun pool ->
          let grads = prepare pool ~sched ~losses in
          while !cursor < steps do
            let b0 = !cursor in
            let bsize = min batch (steps - b0) in
            grads ~b0 ~bsize;
            if Faultsim.fire "grad.nan" then poison_grads store;
            match batch_problem losses ~b0 ~bsize ~running store with
            | Some detail -> rollback ~b0 detail
            | None ->
                Option.iter
                  (fun c ->
                    Nn.Store.clip_grads store
                      ~max_norm:(c *. float_of_int bsize))
                  clip;
                (match drop_lr_at with
                | Some s when (not !lr_dropped) && s < b0 + bsize ->
                    lr_dropped := true;
                    set_effective_lr ()
                | _ -> ());
                Nn.Optimizer.step opt ~batch:bsize;
                after_step ~b0 ~bsize;
                for step = b0 to b0 + bsize - 1 do
                  Welford.add running losses.(step)
                done;
                if (b0 + bsize) / 2000 > b0 / 2000 then
                  log
                    (Printf.sprintf "%s step %d/%d loss %.3f" name (b0 + bsize)
                       steps (Welford.mean running));
                cursor := b0 + bsize;
                prev_good := !good;
                good := take_snapshot ();
                if (b0 + bsize) / ckpt_every > b0 / ckpt_every then
                  save_state 0 (fun b -> enc_snapshot b !good)
          done);
      let v =
        finish
          ~loss:
            (if Welford.count running > 0 then Welford.mean running
             else Float.nan)
      in
      save_state 1 (fun b -> enc_done b v);
      v

(* The [bucketed] tag versions the fingerprint: batched minibatches sum
   per-sample gradients in a different floating-point order than the old
   per-sequence loop, so a mid-phase checkpoint from either path must
   not resume into the other. *)
let surrogate_fp config (spec : Spec.t) ~n ~params =
  Printf.sprintf
    "surrogate|%s|seed=%d|n=%d|passes=%g|lr=%g|batch=%d|params=%d|bucketed"
    spec.name config.seed n config.surrogate_passes config.surrogate_lr
    config.batch params

(* The completed surrogate phase's payload: its weights and mean loss. *)
let enc_surrogate_done b (weights, loss) =
  enc_weights b weights;
  Enc.float b loss

let dec_surrogate_done d =
  let weights = dec_weights d in
  let loss = Dec.float d in
  (weights, loss)

let train_surrogate ?checkpoint_dir ?health config spec model
    (data : sim_sample array) blocks =
  let store = Model.store model in
  let n = Array.length data in
  let steps = int_of_float (config.surrogate_passes *. float_of_int n) in
  (* Each shard trains on its own replica, refreshed from [store] at the
     start of every minibatch; the replicas' sums are reduced into
     [store] in shard order. *)
  let prepare pool ~sched ~losses =
    let replicas = Array.init n_shards (fun _ -> replicate model) in
    let ctxs = Array.init n_shards (fun _ -> Ad.new_ctx ()) in
    fun ~b0 ~bsize ->
      Array.iter
        (fun m -> Nn.Store.copy_values ~src:store ~dst:(Model.store m))
        replicas;
      Pool.run pool n_shards (fun k ->
          let lo, hi = shard_range ~lo:b0 ~size:bsize k in
          train_shard_batched replicas.(k) ctxs.(k) spec blocks data sched
            losses ~lo ~hi);
      Array.iter
        (fun m ->
          let rs = Model.store m in
          Nn.Store.accum_grads ~src:rs ~dst:store;
          Nn.Store.zero_grads rs)
        replicas
  in
  snd
    (run_phase ?checkpoint_dir ?health ~log:config.log ~name:"surrogate"
       ~fault_phase:Fault.Surrogate
       ~fp:(surrogate_fp config spec ~n ~params:(Nn.Store.size store))
       ~rng:(Rng.create (config.seed lxor 0x5e_ed))
       ~n ~steps ~batch:config.batch ~store ~lr:config.surrogate_lr
       ~clip:config.grad_clip ~drop_lr_at:(2 * steps / 3)
       ~restored:(fun (weights, _) -> Nn.Store.import_values store weights)
       ~prepare
       ~finish:(fun ~loss -> (Nn.Store.export_values store, loss))
       ~enc_done:enc_surrogate_done ~dec_done:dec_surrogate_done ())

(* Extract the current relaxed table into raw integer space. *)
let extract_table (spec : Spec.t) theta_per theta_global =
  let n_opc = Dt_x86.Opcode.count in
  {
    Spec.per =
      Array.init n_opc (fun i ->
          Array.init spec.per_width (fun j ->
              Float.round (Float.abs (T.get theta_per i j))
              +. spec.per_lower.(j)));
    global =
      Array.init spec.global_width (fun j ->
          Float.round (Float.abs (T.get theta_global 0 j))
          +. spec.global_lower.(j));
  }

(* True-simulator validation error of a raw table on a block sample. *)
let validation_error (spec : Spec.t) table valid =
  let timing = spec.timing table in
  let acc = ref 0.0 in
  Array.iter
    (fun (b, y) -> acc := !acc +. (Float.abs (timing b -. y) /. y))
    valid;
  !acc /. float_of_int (Array.length valid)

(* Per-lane state for the parameter-descent phase: a relaxed table
   (leaves + store) for the lane's traces to read, a frozen-surrogate
   replica, and the context those traces run in.  Tasks on one pool
   lane never overlap, so a lane's context, like any context, has one
   caller at a time. *)
type theta_replica = {
  tstore : Nn.Store.t;
  pnode : Ad.node;
  gnode : Ad.node;
  smodel : Model.t;
  tctx : Ad.ctx;
}

let table_fp config (spec : Spec.t) ~n ~init ~n_valid =
  Printf.sprintf "table|%s|seed=%d|n=%d|passes=%g|lr=%g|batch=%d|init=%s|valid=%d"
    spec.name config.seed n config.table_passes config.table_lr
    config.table_batch (table_digest init) n_valid

let optimize_table ?init ?(valid = [||]) ?checkpoint_dir ?health config
    (spec : Spec.t) model ~train =
  let rng = Rng.create (config.seed lxor 0x7ab1e) in
  (* Initialize the relaxed table in offset space (value - lower bound):
     a random draw from the sampling distribution, per the paper, unless
     a warm start is provided (iterative refinement). *)
  let init = match init with Some t -> t | None -> spec.sample rng in
  let n_opc = Dt_x86.Opcode.count in
  let make_theta () =
    let theta_per = T.zeros ~rows:n_opc ~cols:(max 1 spec.per_width) in
    for i = 0 to n_opc - 1 do
      for j = 0 to spec.per_width - 1 do
        T.set theta_per i j (init.per.(i).(j) -. spec.per_lower.(j))
      done
    done;
    let theta_global = T.zeros ~rows:1 ~cols:(max 1 spec.global_width) in
    for j = 0 to spec.global_width - 1 do
      T.set theta_global 0 j (init.global.(j) -. spec.global_lower.(j))
    done;
    let store = Nn.Store.create () in
    let pnode = Nn.Store.param store ~name:"theta.per" theta_per in
    let gnode = Nn.Store.param store ~name:"theta.global" theta_global in
    (store, theta_per, theta_global, pnode, gnode)
  in
  let theta_store, theta_per, theta_global, _, _ = make_theta () in
  let per_scale = T.vector (Array.copy spec.per_scale) in
  let global_scale =
    (* Specs without globals (e.g. write-latency-only) have an empty
       scale vector; the node is never built in that case. *)
    if spec.global_width = 0 then T.scalar 0.0
    else T.vector (Array.copy spec.global_scale)
  in
  let eligible = eligible_labeled config (Array.to_list train) in
  let n = Array.length eligible in
  if n = 0 then
    Fault.error
      (Fault.No_training_blocks
         {
           phase = Fault.Table;
           detail =
             Printf.sprintf "all %d blocks exceed max_train_block_len %d"
               (Array.length train) config.max_train_block_len;
         });
  let steps = int_of_float (config.table_passes *. float_of_int n) in
  let fp = table_fp config spec ~n ~init ~n_valid:(Array.length valid) in
  (* Validation-gated extraction: periodically extract the integer table
     and keep the snapshot with the lowest true-simulator error on the
     validation split (the split the paper reserves for development
     decisions).  Gradient descent through an imperfect surrogate can
     wander; selection on the *original* simulator is cheap and unbiased
     with respect to the test set. *)
  let valid =
    if Array.length valid > 256 then Array.sub valid 0 256 else valid
  in
  let best_table = ref None in
  let consider () =
    if Array.length valid > 0 then begin
      let candidate = extract_table spec theta_per theta_global in
      let err = validation_error spec candidate valid in
      match !best_table with
      | Some (_, best_err) when best_err <= err -> ()
      | _ -> best_table := Some (candidate, err)
    end
  in
  let snapshot_every = max 500 (steps / 12) in
  let after_step ~b0 ~bsize =
    (* Keep |theta| inside the sampling distribution's support: the
       surrogate cannot be trusted to extrapolate outside the region
       it was trained on (paper Section VII, "Sampling
       distributions"). *)
    for i = 0 to n_opc - 1 do
      for j = 0 to spec.per_width - 1 do
        let hi = spec.per_upper.(j) -. spec.per_lower.(j) in
        let v = T.get theta_per i j in
        if Float.abs v > hi then
          T.set theta_per i j (if v < 0.0 then -.hi else hi)
      done
    done;
    for j = 0 to spec.global_width - 1 do
      let hi = spec.global_upper.(j) -. spec.global_lower.(j) in
      let v = T.get theta_global 0 j in
      if Float.abs v > hi then
        T.set theta_global 0 j (if v < 0.0 then -.hi else hi)
    done;
    if (b0 + bsize) / snapshot_every > b0 / snapshot_every then consider ()
  in
  let prepare pool ~sched ~losses =
    (* A shard sums its steps' theta gradients from zero on its lane's
       replica and leaves the sum in its own slot, so the reduction
       below runs in shard-index order whichever lane ran the shard:
       every float is the same at any pool size. *)
    let slots =
      Array.init n_shards (fun _ ->
          let slot, _, _, _, _ = make_theta () in
          slot)
    in
    let lanes =
      Array.init (Pool.size pool) (fun _ ->
          let tstore, _, _, pnode, gnode = make_theta () in
          {
            tstore;
            pnode;
            gnode;
            smodel = replicate model;
            tctx = Ad.new_ctx ();
          })
    in
    (* The frozen surrogate's token stage, once per eligible block:
       [token_h.(i)] holds block i's per-instruction token vectors.
       Each block's vectors depend only on the block and the frozen
       weights, so any split over the lanes gives the same bits. *)
    let token_h = Array.make n [||] in
    Pool.run_lanes pool n_shards (fun ~lane k ->
        let r = lanes.(lane) in
        let lo, hi = shard_range ~lo:0 ~size:n k in
        for bi = lo to hi - 1 do
          Ad.reset r.tctx;
          token_h.(bi) <-
            Array.map
              (fun h -> T.copy (Ad.value h))
              (Model.token_stage r.smodel r.tctx (fst eligible.(bi)))
        done);
    let shard_task r slot lo hi =
      let ctx = r.tctx in
      Nn.Store.zero_grads r.tstore;
      for step = lo to hi - 1 do
        let bi = sched.(step) in
        let block, y = eligible.(bi) in
        Ad.reset ctx;
        let loss =
          let scale_node v = Ad.constant ctx v in
          let per_inputs =
            Array.map
              (fun (instr : Dt_x86.Instruction.t) ->
                let row = Ad.row ctx ~m:r.pnode instr.opcode.index in
                let row = Ad.abs_ ctx row in
                let row =
                  if spec.per_width = T.size (Ad.value row) then row
                  else Ad.slice ctx row ~pos:0 ~len:spec.per_width
                in
                Ad.mul ctx row (scale_node per_scale))
              block.instrs
          in
          let global_input =
            if spec.global_width = 0 then None
            else
              let gview = Ad.row ctx ~m:r.gnode 0 in
              let g = Ad.abs_ ctx gview in
              Some (Ad.mul ctx g (scale_node global_scale))
          in
          let params =
            { Model.per_instr = per_inputs; global = global_input }
          in
          let features =
            if (Model.config r.smodel).feature_width = 0 then None
            else
              match spec.bounds with
              | Some f ->
                  Some (f ctx block ~per:per_inputs ~global:global_input)
              | None -> None
          in
          let pred =
            Model.instr_stage r.smodel ctx
              (Array.map (Ad.constant ctx) token_h.(bi))
              ~params:(Some params) ~features
          in
          Ad.mape ctx pred ~target:(Float.max y 1e-3)
        in
        Ad.backward ctx loss;
        losses.(step) <- Ad.scalar_value loss
      done;
      Nn.Store.copy_grads ~src:r.tstore ~dst:slot
    in
    fun ~b0 ~bsize ->
      Array.iter
        (fun r -> Nn.Store.copy_values ~src:theta_store ~dst:r.tstore)
        lanes;
      Pool.run_lanes pool n_shards (fun ~lane k ->
          let lo, hi = shard_range ~lo:b0 ~size:bsize k in
          shard_task lanes.(lane) slots.(k) lo hi);
      Array.iter
        (fun slot -> Nn.Store.accum_grads ~src:slot ~dst:theta_store)
        slots;
      (* The surrogate is frozen: the gradients its instruction stage
         accumulated are simply discarded. *)
      Array.iter (fun r -> Nn.Store.zero_grads (Model.store r.smodel)) lanes
  in
  (* Extraction: |theta| + lower bound, rounded; prefer the best
     validation snapshot when a validation split was provided. *)
  let finish ~loss:_ =
    let final = extract_table spec theta_per theta_global in
    match !best_table with
    | None -> final
    | Some (best, best_err) ->
        let final_err = validation_error spec final valid in
        if final_err <= best_err then final else best
  in
  run_phase ?checkpoint_dir ?health ~log:config.log ~name:"table"
    ~fault_phase:Fault.Table ~fp ~rng ~n ~steps ~batch:config.table_batch
    ~store:theta_store ~lr:config.table_lr ~after_step ~best:best_table
    ~prepare ~finish ~enc_done:enc_table ~dec_done:dec_table ()

type result = {
  table : Spec.table;
  model : Model.t;
  surrogate_loss : float;
  health : Fault.health;
}

(* Collect the simulated dataset and train [model] on it, or restore
   both at once when [checkpoint_dir] already holds the completed
   surrogate phase: its weights make the dataset unnecessary.  The
   probe is silent; a stale or corrupt file is counted when
   [train_surrogate] reads it. *)
let collect_and_train ?checkpoint_dir ~(health : Fault.health) config
    (spec : Spec.t) model blocks =
  let store = Model.store model in
  let completed =
    match checkpoint_dir with
    | None -> None
    | Some dir -> (
        let n =
          config.sim_multiplier * Array.length (eligible_blocks config blocks)
        in
        let fp = surrogate_fp config spec ~n ~params:(Nn.Store.size store) in
        match
          Checkpoint.load ~dir ~name:"surrogate" (fun d ->
              if Dec.string d <> fp then None
              else
                match dec_phase_state ~name:"surrogate" dec_surrogate_done d with
                | `Done v -> Some v
                | `At _ -> None)
        with
        | Ok v -> v
        | Error _ -> None)
  in
  match completed with
  | Some (weights, loss) ->
      Nn.Store.import_values store weights;
      health.skipped_phases <- health.skipped_phases + 2;
      config.log
        (Printf.sprintf
           "difftune[%s]: collect + surrogate phases restored from checkpoint \
            (loss %.4f)"
           spec.name loss);
      loss
  | None ->
      config.log
        (Printf.sprintf "difftune[%s]: collecting simulated dataset" spec.name);
      let data = collect ?checkpoint_dir ~health config spec blocks in
      config.log
        (Printf.sprintf "difftune[%s]: training surrogate on %d samples"
           spec.name (Array.length data));
      train_surrogate ?checkpoint_dir ~health config spec model data blocks

let learn ?(valid = [||]) ?checkpoint_dir config (spec : Spec.t) ~train =
  let health = Fault.create_health () in
  let rng = Rng.create config.seed in
  let blocks = Array.map fst train in
  let model = make_model config spec rng in
  let surrogate_loss =
    collect_and_train ?checkpoint_dir ~health config spec model blocks
  in
  config.log
    (Printf.sprintf "difftune[%s]: optimizing parameter table" spec.name);
  let table =
    optimize_table ~valid ?checkpoint_dir ~health config spec model ~train
  in
  { table; model; surrogate_loss; health }

(* ------------------------------------------------------------------ *)
(* Iterative refinement (paper Section VII, after Shirobokov et al.):   *)
(* re-collect the simulated dataset in a shrinking neighbourhood of the *)
(* current parameter estimate, re-train the surrogate there, and        *)
(* continue the parameter descent from the previous estimate.  This     *)
(* removes the dependence on a hand-specified global sampling           *)
(* distribution: the surrogate only ever needs local fidelity.          *)
(* ------------------------------------------------------------------ *)

let local_sample (spec : Spec.t) ~center ~radius rng =
  let jitter v lo hi =
    let span = radius *. (hi -. lo) in
    Float.min hi (Float.max lo (v +. Rng.float_range rng (-.span) span))
  in
  (* An epsilon of global samples keeps coverage of the full support. *)
  if Rng.bernoulli rng 0.2 then spec.sample rng
  else
    {
      Spec.per =
        Array.map
          (fun row ->
            Array.mapi
              (fun j v ->
                Float.round (jitter v spec.per_lower.(j) spec.per_upper.(j)))
              row)
          center.Spec.per;
      global =
        Array.mapi
          (fun j v ->
            Float.round (jitter v spec.global_lower.(j) spec.global_upper.(j)))
          center.Spec.global;
    }

let learn_iterative ?(valid = [||]) ?checkpoint_dir config ?(rounds = 3)
    (spec : Spec.t) ~train =
  if rounds < 1 then invalid_arg "Engine.learn_iterative: rounds must be >= 1";
  let health = Fault.create_health () in
  let rng = Rng.create config.seed in
  let blocks = Array.map fst train in
  let model = make_model config spec rng in
  (* Round budgets: split the configured budget across rounds. *)
  let per_round =
    {
      config with
      sim_multiplier = max 1 (config.sim_multiplier / rounds);
      surrogate_passes = config.surrogate_passes;
      table_passes = Float.max 1.0 (config.table_passes /. float_of_int rounds);
    }
  in
  let center = ref (spec.sample (Rng.create (config.seed lxor 0xce11e))) in
  let loss = ref Float.nan in
  for round = 1 to rounds do
    let round_dir =
      Option.map
        (fun d -> Filename.concat d (Printf.sprintf "round%d" round))
        checkpoint_dir
    in
    let radius = 0.5 /. float_of_int round in
    let local_spec =
      if round = 1 then spec
      else
        { spec with sample = (fun rng -> local_sample spec ~center:!center ~radius rng) }
    in
    config.log
      (Printf.sprintf "difftune[%s]: refinement round %d/%d (radius %.2f)"
         spec.name round rounds radius);
    let round_cfg = { per_round with seed = config.seed + round } in
    loss :=
      collect_and_train ?checkpoint_dir:round_dir ~health round_cfg local_spec
        model blocks;
    let table =
      optimize_table ~init:!center ~valid ?checkpoint_dir:round_dir ~health
        round_cfg spec model ~train
    in
    center := table
  done;
  { table = !center; model; surrogate_loss = !loss; health }

(* ------------------------------------------------------------------ *)
(* Ithemal baseline: no parameter inputs, trained on ground truth.      *)
(* ------------------------------------------------------------------ *)

let spec_features (spec : Spec.t) ~reference block =
  let per, global = Spec.normalize_block spec reference block in
  Option.value ~default:[||]
    (Spec.bound_values spec (Ad.new_ctx ()) block ~per ~global)

let make_ithemal_model config ~feature_width rng =
  Model.create ~config:(model_config config ~params:None ~feature_width) rng

(* The shared Ithemal fitting loop: SGD/Adam over [eligible] on an
   existing [model] (either freshly initialized by {!train_ithemal} or a
   warm-started clone handed over by {!retrain_ithemal}).  Under
   [Guided] sampling the first epoch stays uniform and records
   per-block losses; the remaining step budget is then reallocated
   across strata by the same [Sampler.allocate] rule as guided
   collection, so high-loss strata get more gradient steps.  Total
   step count is identical either way, and the loop is sequential, so
   both modes are deterministic. *)
let fit_ithemal config ~features rng model eligible =
  let store = Model.store model in
  let opt = Nn.Optimizer.adam store ~lr:config.surrogate_lr in
  let n = Array.length eligible in
  (* Features are static per block: precompute them once. *)
  let feats = Hashtbl.create n in
  (match features with
  | None -> ()
  | Some f ->
      Array.iter
        (fun (b, _) ->
          Hashtbl.replace feats (Dt_x86.Block.to_string b) (f b))
        eligible);
  (* Match the surrogate's optimization budget per sample. *)
  let steps =
    int_of_float
      (config.surrogate_passes *. float_of_int (config.sim_multiplier * n))
  in
  let in_batch = ref 0 in
  let ctx = Ad.new_ctx () in
  let block_loss = Array.make (max n 1) 0.0 in
  let do_step step bi =
    let block, y = eligible.(bi) in
    let bstr = Dt_x86.Block.to_string block in
    Ad.reset ctx;
    let loss =
      let features =
        if (Model.config model).feature_width = 0 then None
        else Some (Ad.constant ctx (T.vector (Hashtbl.find feats bstr)))
      in
      let pred = Model.predict model ctx block ~params:None ~features in
      Ad.mape ctx pred ~target:(Float.max y 1e-3)
    in
    Ad.backward ctx loss;
    block_loss.(bi) <- Ad.scalar_value loss;
    incr in_batch;
    if !in_batch = config.batch || step = steps - 1 then begin
      Nn.Store.clip_grads store
        ~max_norm:(config.grad_clip *. float_of_int !in_batch);
      Nn.Optimizer.step opt ~batch:!in_batch;
      in_batch := 0
    end;
    if step = (2 * steps) / 3 then
      Nn.Optimizer.set_lr opt (config.surrogate_lr *. 0.3);
    if (step + 1) mod 5000 = 0 then
      config.log (Printf.sprintf "ithemal step %d/%d" (step + 1) steps)
  in
  let order = Array.init n Fun.id in
  Rng.shuffle rng order;
  match config.sampling with
  | Uniform ->
      for step = 0 to steps - 1 do
        if step > 0 && step mod n = 0 then Rng.shuffle rng order;
        do_step step order.(step mod n)
      done
  | Guided scfg ->
      let uniform_steps = min steps n in
      for step = 0 to uniform_steps - 1 do
        do_step step order.(step)
      done;
      let remaining = steps - uniform_steps in
      if remaining > 0 then begin
        let strata = Strata.stratify scfg (Array.map fst eligible) in
        let k = Strata.n_strata strata in
        let sizes = Array.map Array.length strata.Strata.members in
        let scores =
          Array.init k (fun h ->
              let members = strata.Strata.members.(h) in
              let s =
                Array.fold_left
                  (fun acc bi -> acc +. block_loss.(bi))
                  0.0 members
              in
              let v = s /. float_of_int (max 1 (Array.length members)) in
              if Float.is_finite v then v else 0.0)
        in
        let alloc =
          Sampler.allocate ~budget:remaining ~floor_frac:alloc_floor_frac
            ~sizes ~scores
        in
        config.log
          (Printf.sprintf
             "ithemal: guided allocation of %d remaining steps over %d strata"
             remaining k);
        let step = ref uniform_steps in
        Array.iteri
          (fun h a ->
            if a > 0 then begin
              let members = Array.copy strata.Strata.members.(h) in
              Rng.shuffle rng members;
              let m = Array.length members in
              for j = 0 to a - 1 do
                if j > 0 && j mod m = 0 then Rng.shuffle rng members;
                do_step !step members.(j mod m);
                incr step
              done
            end)
          alloc
      end

let train_ithemal config ~features ~train =
  let rng = Rng.create (config.seed lxor 0x17e3a1) in
  let feature_width =
    match (features, train) with
    | Some f, (b, _) :: _ -> Array.length (f b)
    | Some _, [] -> invalid_arg "Engine.train_ithemal: empty training set"
    | None, _ -> 0
  in
  let model = make_ithemal_model config ~feature_width rng in
  let eligible = eligible_labeled config train in
  if Array.length eligible = 0 then
    invalid_arg "Engine.train_ithemal: no usable training blocks";
  fit_ithemal config ~features rng model eligible;
  model

let retrain_ithemal config ~features ~init ~train =
  let eligible = eligible_labeled config train in
  if Array.length eligible = 0 then
    invalid_arg "Engine.retrain_ithemal: no usable training blocks";
  (* Fine-tune a clone: [init] may be live in a serving degradation
     chain, and zero-downtime hot-swap depends on its weights never
     changing while it serves. *)
  let model = replicate init in
  let rng = Rng.create (config.seed lxor 0x5c1f7b) in
  fit_ithemal config ~features rng model eligible;
  model

let ithemal_predict_batch ~features model blocks =
  let with_feats = (Model.config model).feature_width <> 0 in
  let samples =
    Array.map
      (fun block ->
        {
          Model.bblock = block;
          bparams = None;
          bfeatures =
            (match features with
            | Some f when with_feats -> Some (f block)
            | _ -> None);
        })
      blocks
  in
  Model.predict_batch_value model samples

let ithemal_predict ~features model block =
  (ithemal_predict_batch ~features model [| block |]).(0)
