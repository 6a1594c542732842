(** Deterministic fault injection for exercising recovery paths.

    Long training runs must survive worker crashes, NaN gradients, and
    torn checkpoint files; those paths are worthless if they are only
    executed in production.  This module lets tests (and the
    [fault_smoke] matrix) *force* each failure at a precise, reproducible
    point.

    Code under test declares named {e sites} by calling {!fire} (or
    {!fire_exn}) at the place where a fault could occur; each call counts
    one {e hit} of that site.  A site is {e armed} at hit number [k]
    (1-based) by {!arm} or by {!configure} with a spec, a [;]- or
    [,]-separated list of [site\@k] entries (bare [site] means
    [site\@1]).  A serve daemon takes the spec as [--faults], and a
    fleet passes each shard its [shard_faults] entry that way:

    {v difftune_cli serve --faults "pool.worker@2;grad.nan@3" v}

    Sites used by this repository:
    - [pool.worker] — raise {!Injected} inside a {!Pool.run} task;
    - [grad.nan] — poison a minibatch gradient to NaN
      (checked in [Engine.train_surrogate] / [Engine.optimize_table]);
    - [ckpt.truncate] — truncate a checkpoint file just after it is
      atomically written ([Checkpoint.save]);
    - [engine.abort] — raise {!Injected} right after a periodic
      checkpoint write: a SIGKILL-style interruption at a resumable
      boundary;
    - [collect.pilot_crash] — raise {!Injected} mid-pilot during
      complexity-guided collection ([Engine.collect] with [Guided]
      sampling), after the uniform pilot draw but before the pilot
      fits are checkpointed: the re-run must redo the pilot and
      produce a bit-identical dataset;
    - [serve.worker_crash] — raise {!Injected} inside a serving backend
      attempt ([Dt_serve.Runtime]): exercises retry with backoff,
      breaker accounting, and the degradation chain;
    - [serve.slow_block] — swap a pathological million-cycle table into
      one [Dt_serve.Backend.mca] call, forcing a genuine
      [Pipeline.Budget_exceeded] deadline through the real watchdog;
    - [serve.malformed_input] — corrupt the tail of one request line at
      admission ([Dt_serve.Runtime.submit]); the id survives, so the
      structured parse error stays attributable to its sender;
    - [lifecycle.corrupt_model] — truncate a versioned surrogate model
      file just after [Dt_serve.Lifecycle.Registry.save] atomically
      installed it: the validating reload before a hot-swap must reject
      the candidate (CRC) and keep the old model serving;
    - [lifecycle.retrain_crash] — raise {!Injected} inside the
      lifecycle's background retraining job; serving must continue on
      the current model and drift tracking restart;
    - [lifecycle.drift_storm] — force one drift window out of band at
      its finalization ([Dt_serve.Lifecycle]): drives the whole
      drift -> retrain -> swap -> canary/rollback path at a precise
      window ordinal regardless of the real error level;
    - [race.unlocked_write] — make one [Simcache.add] mutate the LRU
      structure {e outside} its mutex: a seeded data race that the
      dynamic sanitizer ({!Dt_util.Sync.set_racecheck}[ true]) must
      report as {!Dt_util.Sync.Race} with both conflicting sites, and
      that must pass silently with checking off;
    - [race.lock_cycle] — probe two lock-order edges in opposite
      directions inside [Dt_serve.Runtime.process]: a seeded deadlock
      candidate the sanitizer must raise as {!Dt_util.Sync.Lock_cycle}
      {e before} blocking, and that must pass silently with checking
      off;
    - [cluster.shard_crash] — kill a serve daemon abruptly
      ([Unix._exit 70], no drain, stale socket file left behind) at the
      armed request: the fleet supervisor must restart it and the
      router must fail the in-flight request over to a replica;
    - [cluster.net_partition] — from the armed hit on, a serve daemon
      keeps accepting connections and reading requests but never
      replies: the half-open partition only the router's reply timeout
      can detect;
    - [cluster.slow_shard] — stall a serve daemon on one request for a
      fixed 0.75 s, past any reasonable router budget: the reply lands
      {e after} failover, exercising late-reply discard.

    Hit counters are shared across domains (mutex-protected) so a spec
    like [pool.worker\@5] fires exactly once regardless of how the pool
    schedules tasks.  When nothing is armed, {!fire} is a single atomic
    load. *)

(** Raised by {!fire_exn} at an armed hit; the payload is the site. *)
exception Injected of string

(** [configure spec] replaces the armed set with the parse of [spec]
    (the [site\@k] list above) and resets all hit counters.  Raises
    [Invalid_argument] on a malformed spec. *)
val configure : string -> unit

(** Disarms every site and resets hit counters. *)
val clear : unit -> unit

(** [arm site ~at] additionally arms [site] at hit [at] (1-based). *)
val arm : string -> at:int -> unit

(** [fire site] counts one hit of [site] and reports whether a fault is
    armed at exactly this hit.  While nothing is armed it counts nothing
    and returns [false]. *)
val fire : string -> bool

(** [fire_exn site] — [if fire site then raise (Injected site)]. *)
val fire_exn : string -> unit

(** Hits of [site] counted since the last {!configure}/{!clear}. *)
val hits : string -> int

(** Whether any site is currently armed. *)
val active : unit -> bool
