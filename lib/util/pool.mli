(** A persistent pool of worker domains for data-parallel loops.

    Workers are spawned once at {!create} and parked on a condition
    variable between jobs, so per-job overhead is a broadcast + join
    rather than domain spawns.  {!run} executes [f 0 .. f (n-1)] across
    the pool (the calling domain participates too); tasks are handed out
    by an atomic counter, so callers that need deterministic results must
    make each [f i] write only to slot [i] of preallocated output and do
    any reduction themselves in index order afterwards.

    Pool size comes from [?domains], else the [DIFFTUNE_DOMAINS]
    environment variable, else [Domain.recommended_domain_count ()].
    A pool of size 1 runs everything inline on the caller — useful both
    for determinism checks and on single-core machines. *)

type t

(** [create ?domains ()] spawns [domains - 1] workers ([domains] total
    execution lanes including the caller).  Raises [Invalid_argument] on
    a non-positive count. *)
val create : ?domains:int -> unit -> t

(** Number of execution lanes (workers + the calling domain). *)
val size : t -> int

(** [run t n f] evaluates [f i] for every [i] in [0, n); returns when all
    are done.  If any task raises, the {e first} exception (in completion
    order) is re-raised with the failing worker's backtrace
    ([Printexc.raise_with_backtrace]) after the job completes; later
    failures are only counted (see {!suppressed_errors}).  The
    [pool.worker] {!Faultsim} site fires once per task, before [f].
    Not reentrant: [f] must not call {!run} on the same pool.  This is
    {!run_lanes} with the lane ignored. *)
val run : t -> int -> (int -> unit) -> unit

(** [run_lanes t n f] is {!run} that also tells each task where it runs:
    [f ~lane i] executes on lane [lane] in [\[0, size t)].  Lane 0 is the
    calling domain and lanes [1 .. size t - 1] are the workers.  Tasks on
    one lane run one after another and never overlap, so a caller can
    keep one mutable workspace per lane (a model replica, an autodiff
    context, a plan cache) and index it by [lane] without locking.
    Which lane runs which task is unspecified: results must not depend
    on it.  Error handling and the [pool.worker] site are those of
    {!run}. *)
val run_lanes : t -> int -> (lane:int -> int -> unit) -> unit

(** Cumulative count of worker exceptions beyond the first of each
    failing job — failures whose details were dropped in favour of the
    job's primary error. *)
val suppressed_errors : t -> int

(** Joins the workers.  Idempotent: later calls are no-ops.  The pool
    must not be used for {!run} afterwards. *)
val shutdown : t -> unit

(** The pool size {!create} would pick with no [?domains] argument:
    [DIFFTUNE_DOMAINS] if set and positive, else
    [Domain.recommended_domain_count ()]. *)
val default_domains : unit -> int
