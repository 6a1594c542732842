module Simcache = Dt_difftune.Simcache

type t = {
  name : string;
  predict : cycle_budget:int -> Dt_x86.Block.t -> float;
  predict_batch : (cycle_budget:int -> Dt_x86.Block.t array -> float array) option;
  xstats : (unit -> (string * string) list) option;
}

(* A table that makes the mca simulation run past any deadline: every
   opcode takes a million cycles to produce its result and holds its
   ports as long.  Swapped in for one call when the [serve.slow_block]
   fault site is armed, so the deadline watchdog is exercised by a
   simulation that genuinely overruns rather than a synthetic raise.
   The simulator jumps over idle cycles, so the call reaches the real
   cycle-budget watchdog after a few events. *)
let pathological (p : Dt_mca.Params.t) =
  {
    p with
    Dt_mca.Params.write_latency =
      Array.map (fun _ -> 1_000_000) p.Dt_mca.Params.write_latency;
    port_map =
      Array.map
        (Array.map (fun c -> if c > 0 then 1_000_000 else 0))
        p.Dt_mca.Params.port_map;
  }

(* The serving table is fixed per backend instance, so its digest is a
   constant; only the block digest varies per request. *)
let params_digest (p : Dt_mca.Params.t) =
  Simcache.digest_string
    (String.concat ","
       (string_of_int p.dispatch_width
       :: string_of_int p.reorder_buffer_size
       :: Array.to_list (Array.map string_of_int p.num_micro_ops)
       @ Array.to_list (Array.map string_of_int p.write_latency)
       @ List.concat_map
           (fun rows ->
             Array.to_list (Array.map (Array.fold_left (fun a v ->
                 a ^ "." ^ string_of_int v) "") rows))
           [ p.read_advance; p.port_map ]
       @ Array.to_list (Array.map string_of_bool p.zero_idiom_enabled)))

let mca ?params ?(cache_capacity = 1024) uarch =
  let params =
    match params with Some p -> p | None -> Dt_mca.Params.default uarch
  in
  Dt_mca.Params.validate params;
  let slow = lazy (pathological params) in
  let cache = Simcache.create ~capacity:cache_capacity in
  let table_key = params_digest params in
  {
    name = "mca";
    predict =
      (fun ~cycle_budget block ->
        if Dt_util.Faultsim.fire "serve.slow_block" then
          (* The injected pathological table must reach the real
             deadline watchdog: bypass the memo entirely, and never
             cache its result. *)
          Dt_mca.Pipeline.timing_unchecked (Lazy.force slow) ~cycle_budget
            block
        else
          Simcache.find_or_add cache
            (Simcache.key ~table:table_key ~block:(Simcache.block_key block))
            (fun () ->
              Dt_mca.Pipeline.timing_unchecked params ~cycle_budget block));
    predict_batch = None;
    xstats =
      Some
        (fun () ->
          [
            ("cache_hits", string_of_int (Simcache.hits cache));
            ("cache_misses", string_of_int (Simcache.misses cache));
            ("cache_entries", string_of_int (Simcache.length cache));
          ]);
  }

let bound uarch =
  {
    name = "bound";
    predict =
      (fun ~cycle_budget:_ block ->
        let b = Dt_iaca.Iaca.bounds uarch block in
        Float.max b.Dt_iaca.Iaca.frontend
          (Float.max b.Dt_iaca.Iaca.backend b.Dt_iaca.Iaca.latency));
    predict_batch = None;
    xstats = None;
  }

let custom ?batch ?xstats name predict =
  { name; predict; predict_batch = batch; xstats }
