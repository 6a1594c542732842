(** Prediction backends for the serving degradation chain.

    A backend is a named timing predictor.  The canonical chain, in
    decreasing fidelity and increasing robustness, is

    {v surrogate -> mca -> bound v}

    - the surrogate lane is {!Lifecycle.backend} (named
      ["surrogate"]): a trained neural model (Ithemal-style) behind
      drift scoring, retraining and hot-swap; fixed compute per
      instruction, never needs a cycle budget;
    - {!mca}: the llvm-mca clone under a parameter table (possibly a
      learned one — which is exactly when a pathological table can make
      it pathologically slow, hence the enforced [cycle_budget]);
    - {!bound}: the analytic max(frontend, port-pressure, dependency
      chain) lower bound — microseconds per block, no simulation loop,
      the always-available last resort.

    The [serve.slow_block] {!Dt_util.Faultsim} site lives in {!mca}: an
    armed hit swaps in a pathological million-cycle table for that one
    call, so tests can force a genuine deadline overrun through the real
    watchdog machinery. *)

type t = {
  name : string;
  predict : cycle_budget:int -> Dt_x86.Block.t -> float;
      (** May raise; the runtime treats
          [Dt_mca.Pipeline.Budget_exceeded] as a deadline and any other
          exception as a transient worker fault. *)
  predict_batch : (cycle_budget:int -> Dt_x86.Block.t array -> float array) option;
      (** Optional batched entry point: one call predicting a whole
          admitted batch.  The runtime uses it to prefetch the first
          lane's predictions on the drain thread (single caller at a
          time); per-request results must match [predict] on each block.
          May raise — the runtime then falls back to per-request
          [predict]. *)
  xstats : (unit -> (string * string) list) option;
      (** Optional backend-specific counters merged into the [stats]
          response under [<name>.<key>]. *)
}

(** [mca ?params ?cache_capacity uarch] — the llvm-mca clone under
    [params] (default: the expert table for [uarch]).  Validates
    [params] once, here.  Timings are memoized per canonical block in a
    bounded LRU ({!Dt_difftune.Simcache}, [cache_capacity] entries,
    default 1024) — the serving table is fixed, so repeated blocks cost
    one lookup; hit/miss counters surface through [xstats].  A
    [serve.slow_block] fault hit bypasses the cache in both directions
    (the pathological table must reach the deadline watchdog, and its
    timing must never be cached). *)
val mca :
  ?params:Dt_mca.Params.t -> ?cache_capacity:int -> Dt_refcpu.Uarch.uarch -> t

(** Analytic bound backend (named ["bound"]); ignores the cycle
    budget — its cost is O(block length). *)
val bound : Dt_refcpu.Uarch.uarch -> t

(** Arbitrary predictor, for tests and custom deployments; [?batch] and
    [?xstats] populate the optional fields. *)
val custom :
  ?batch:(cycle_budget:int -> Dt_x86.Block.t array -> float array) ->
  ?xstats:(unit -> (string * string) list) ->
  string -> (cycle_budget:int -> Dt_x86.Block.t -> float) -> t
