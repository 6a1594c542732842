(** Instrumented synchronization — the dynamic layer of the dt_race
    concurrency-correctness suite.

    Wraps [Mutex]/[Condition]/[Atomic] behind one API so every lock in
    the concurrent runtime goes through a single chokepoint.  Checking
    is off by default (one atomic load per operation); call
    {!set_racecheck}[ true] (a test suite's or [serve]'s [--racecheck]
    flag does) to turn on:

    - a per-process {b lock-acquisition-order graph}: acquiring lock B
      while holding lock A records the edge A→B; a later acquisition
      that would close a cycle raises {!Lock_cycle} with the full chain
      {e before} blocking, so a potential deadlock is reported as a
      structured fault instead of a hang;
    - {b guard stamps} on mutex-disciplined structures: accesses
      declared via {!check} while the owning mutex is not held leave a
      sticky (domain, site) token; the next properly locked access — or
      an access overlapping a concurrent holder — raises {!Race} naming
      both sites;
    - {b owner tokens} for single-domain (confined) structures:
      {!with_owner} raises {!Race} when two domains overlap inside the
      confined region;
    - counters exported by {!stats} for the serve [stats] response. *)

exception Lock_cycle of string list
(** Lock-order cycle, as the chain of lock names closing it
    (e.g. [["a"; "b"; "a"]], or [["a"; "a"]] for a self-relock). *)

exception Race of { structure : string; first : string; second : string }
(** Lock-discipline violation on [structure], naming both access
    sites: [first] is the earlier (or concurrent-holder) site, [second]
    the access that detected it. *)

val set_racecheck : bool -> unit
(** Turn dynamic checking on or off (default off). *)

val racecheck : unit -> bool
(** Is dynamic checking currently enabled? *)

val reset_graph : unit -> unit
(** Clear the lock-order graph and all counters (tests only: lets
    independent scenarios not see each other's edges). *)

(** {2 Mutexes and conditions} *)

type mutex

val mutex : string -> mutex
(** [mutex name] creates a named lock.  Names are the nodes of the
    order graph: give every lock protecting the same kind of structure
    the same name (e.g. ["simcache.lru"]) so inversions between
    instances are still caught, and unrelated locks distinct names. *)

val mutex_name : mutex -> string
val lock : mutex -> unit
val unlock : mutex -> unit

val with_lock : mutex -> (unit -> 'a) -> 'a
(** [lock] + [Fun.protect] unlock: exception-safe critical section. *)

val held_by_self : mutex -> bool
(** Is this mutex currently held by the calling domain?  (Only
    meaningful while checking is enabled; [false] otherwise.) *)

type cond

val condition : string -> cond
val signal : cond -> unit
val broadcast : cond -> unit

val wait : cond -> mutex -> unit
(** [Condition.wait] that keeps the holder/held-stack bookkeeping
    consistent across the implicit release. *)

(** {2 Guarded structures} *)

type guard

val guard : string -> mutex -> guard
(** [guard name m] declares a structure whose mutations require [m]. *)

val check : guard -> site:string -> unit
(** Call at each access to the guarded structure.  Under racecheck: if
    the owning mutex is held by the caller, consumes (and reports) any
    sticky unlocked token; otherwise stamps the token — or raises
    {!Race} immediately if another domain holds the mutex right now. *)

(** {2 Confined structures} *)

type owner

val owner : string -> owner
(** Declares a structure meant to be touched by one domain at a time
    (drain-thread state, a per-model plan cache). *)

val with_owner : owner -> site:string -> (unit -> 'a) -> 'a
(** Runs [f] stamped as the current owner; raises {!Race} if another
    domain is inside a [with_owner] region for the same structure.
    Reentrant within a domain. *)

(** {2 Atomics} *)

(** Pass-through over [Stdlib.Atomic] that counts operations under
    racecheck (exported via {!stats}); same semantics otherwise. *)
module A : sig
  type 'a t

  val make : 'a -> 'a t
  val get : 'a t -> 'a
  val set : 'a t -> 'a -> unit
  val exchange : 'a t -> 'a -> 'a
  val compare_and_set : 'a t -> 'a -> 'a -> bool
  val fetch_and_add : int t -> int -> int
  val incr : int t -> unit
end

(** {2 Fault-site helper} *)

val cycle_probe : mutex -> mutex -> unit
(** Acquire [a] then [b], then [b] then [a].  Under racecheck the
    second nesting closes a cycle and raises {!Lock_cycle}; with
    checking off it is four uncontended lock/unlock pairs (no
    deadlock).  Used by the seeded [race.lock_cycle] fault site. *)

(** {2 Stats} *)

val stats : unit -> (string * string) list
(** Counter snapshot: enabled flag, mutexes created, acquisitions,
    order edges, cycles, races, unlocked accesses, owner checks,
    atomic ops. *)
