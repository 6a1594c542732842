(* Instrumented synchronization: the dynamic half of the dt_race suite.

   Wraps Mutex/Condition/Atomic behind one API so every lock in the
   concurrent runtime (Pool, Simcache, Breaker, the serve runtime, the
   lifecycle) goes through a single chokepoint.  Off by default, this
   adds one atomic load per operation; after [set_racecheck true] (the
   test suites' and [serve]'s [--racecheck]) every acquisition is
   recorded in a per-process lock-acquisition-order graph (cycle =>
   potential deadlock => {!Lock_cycle}), and guarded structures carry
   owner-domain stamps so lock-discipline violations raise {!Race}
   naming both access sites.

   The module must never deadlock against itself: its own bookkeeping is
   guarded by one plain [Mutex.t] ([gm]) that is only ever held for
   pure in-memory graph edits, never while acquiring a wrapped lock. *)

exception Lock_cycle of string list
exception Race of { structure : string; first : string; second : string }

let () =
  Printexc.register_printer (function
    | Lock_cycle chain ->
        Some
          (Printf.sprintf "Dt_util.Sync.Lock_cycle: lock-order cycle %s"
             (String.concat " -> " chain))
    | Race { structure; first; second } ->
        Some
          (Printf.sprintf
             "Dt_util.Sync.Race: unlocked concurrent access to %s (%s vs %s)"
             structure first second)
    | _ -> None)

(* ---- enablement ---- *)

let enabled = Atomic.make false

let set_racecheck on = Atomic.set enabled on
let racecheck () = Atomic.get enabled

(* ---- counters (all only touched when racecheck is on, except the
   creation counters, which are cheap and rare) ---- *)

let c_mutexes = Atomic.make 0
let c_acquisitions = Atomic.make 0
let c_edges = Atomic.make 0
let c_cycles = Atomic.make 0
let c_races = Atomic.make 0
let c_unlocked = Atomic.make 0
let c_owner_checks = Atomic.make 0
let c_atomic_ops = Atomic.make 0

(* ---- lock-order graph ----

   Nodes are lock NAMES (not objects): "breaker.mca" and "breaker.iaca"
   are distinct, but every instance of "simcache.lru" is one node, so an
   inversion observed between any two instances is still reported.
   Edge a -> b means "b was acquired while a was held".  A cycle in this
   graph is a potential deadlock even if no run ever blocks on it. *)

let gm = Mutex.create ()
let graph : (string, string list ref) Hashtbl.t = Hashtbl.create 32

let glocked f =
  Mutex.lock gm;
  Fun.protect ~finally:(fun () -> Mutex.unlock gm) f

(* Callers hold [gm]. *)
let succs_locked a =
  match Hashtbl.find_opt graph a with Some l -> !l | None -> []

(* Path from [src] to [dst] over recorded edges, as a node list
   including both endpoints; [None] if unreachable.  Callers hold
   [gm].  The graph is a handful of named locks, so a simple DFS with a
   list-based visited set is plenty. *)
let find_path_locked src dst =
  let rec dfs visited node path =
    if String.equal node dst then Some (List.rev (node :: path))
    else if List.mem node visited then None
    else
      let visited = node :: visited in
      List.fold_left
        (fun acc s ->
          match acc with
          | Some _ -> acc
          | None -> dfs visited s (node :: path))
        None (succs_locked node)
  in
  dfs [] src []

let add_edge_locked a b =
  match Hashtbl.find_opt graph a with
  | Some l -> if not (List.mem b !l) then begin
      l := b :: !l;
      Atomic.incr c_edges
    end
  | None ->
      Hashtbl.replace graph a (ref [ b ]);
      Atomic.incr c_edges

(* Bumped on every {!reset_graph} so per-domain validated-pair caches
   (below) know their entries describe a dead graph. *)
let graph_gen = Atomic.make 0

let reset_graph () =
  glocked (fun () -> Hashtbl.reset graph);
  Atomic.incr graph_gen;
  Atomic.set c_edges 0;
  Atomic.set c_cycles 0;
  Atomic.set c_races 0;
  Atomic.set c_unlocked 0;
  Atomic.set c_acquisitions 0;
  Atomic.set c_owner_checks 0;
  Atomic.set c_atomic_ops 0

(* ---- mutexes ---- *)

type mutex = {
  m : Mutex.t;
  name : string;
  holder : int Atomic.t; (* domain id currently inside, -1 when free *)
}

let self_id () = (Domain.self () :> int)

let mutex name =
  Atomic.incr c_mutexes;
  { m = Mutex.create (); name; holder = Atomic.make (-1) }

let mutex_name t = t.name

(* Per-domain stack of held wrapped locks, innermost first. *)
let held_key : mutex list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

(* Per-domain cache of (outer, inner) name pairs already validated
   against the order graph.  Sound because the graph is add-only and
   acyclic — an edge that would close a cycle raises {!Lock_cycle}
   before it is recorded — so a pair once proven safe stays safe until
   {!reset_graph} starts a new generation.  This keeps the steady-state
   nested acquisition off the global graph mutex entirely. *)
let seen_key : (int ref * (string * string, unit) Hashtbl.t) Domain.DLS.key =
  Domain.DLS.new_key (fun () -> (ref (-1), Hashtbl.create 16))

(* Lock-order accounting for an acquisition of [t] by a domain already
   holding [held].  Raises {!Lock_cycle} BEFORE blocking on the OS
   mutex, so a detected inversion can never turn into a real hang. *)
let note_acquire t held =
  (match held with
  | [] -> ()
  | top :: _ ->
      if List.exists (fun h -> h == t || String.equal h.name t.name) held then begin
        Atomic.incr c_cycles;
        raise (Lock_cycle [ t.name; t.name ])
      end;
      let gen = Atomic.get graph_gen in
      let sgen, seen = Domain.DLS.get seen_key in
      if !sgen <> gen then begin
        Hashtbl.reset seen;
        sgen := gen
      end;
      let key = (top.name, t.name) in
      if Hashtbl.mem seen key then ()
      else begin
      let cycle =
        glocked (fun () ->
            let found =
              List.fold_left
                (fun acc h ->
                  match acc with
                  | Some _ -> acc
                  | None -> find_path_locked t.name h.name)
                None held
            in
            (* Only record the ordering fact when the acquisition will
               actually proceed: a detected inversion raises before
               locking, so its edge never happens — recording it would
               poison every later acquisition of the victim pair. *)
            if Option.is_none found then add_edge_locked top.name t.name;
            found)
      in
      (match cycle with
      | None -> ()
      | Some path ->
          Atomic.incr c_cycles;
          raise (Lock_cycle (path @ [ t.name ])));
      Hashtbl.add seen key ()
      end);
  Atomic.incr c_acquisitions

let lock t =
  if Atomic.get enabled then begin
    let held = Domain.DLS.get held_key in
    note_acquire t !held;
    Mutex.lock t.m;
    Atomic.set t.holder (self_id ());
    held := t :: !held
  end
  else Mutex.lock t.m

let unlock t =
  if Atomic.get enabled then begin
    let held = Domain.DLS.get held_key in
    (held :=
       match !held with
       | h :: rest when h == t -> rest
       | l -> List.filter (fun h -> not (h == t)) l);
    Atomic.set t.holder (-1)
  end;
  Mutex.unlock t.m

let with_lock t f =
  lock t;
  Fun.protect ~finally:(fun () -> unlock t) f

let held_by_self t = Atomic.get t.holder = self_id ()

(* ---- conditions ---- *)

type cond = { c : Condition.t; cname : string }

let condition cname = { c = Condition.create (); cname }
let signal c = Condition.signal c.c
let broadcast c = Condition.broadcast c.c

let wait c t =
  if Atomic.get enabled then begin
    (* The OS releases [t.m] for the duration of the wait; mirror that
       in the bookkeeping so other domains' guard checks do not see a
       phantom holder. *)
    let held = Domain.DLS.get held_key in
    held := List.filter (fun h -> not (h == t)) !held;
    Atomic.set t.holder (-1);
    Fun.protect
      ~finally:(fun () ->
        Atomic.set t.holder (self_id ());
        held := t :: !held)
      (fun () -> Condition.wait c.c t.m)
  end
  else Condition.wait c.c t.m

(* ---- guards: mutex-disciplined structures ---- *)

type guard = {
  gname : string;
  gmutex : mutex;
  (* Last access made without holding [gmutex]: (domain, site).  Sticky
     until the next locked access observes and reports it, so even a
     fully sequential unlocked write is caught. *)
  gtok : (int * string) option Atomic.t;
}

let guard gname gmutex = { gname; gmutex; gtok = Atomic.make None }

let check g ~site =
  if Atomic.get enabled then
    if held_by_self g.gmutex then (
      match Atomic.exchange g.gtok None with
      | Some (_, osite) ->
          Atomic.incr c_races;
          raise (Race { structure = g.gname; first = osite; second = site })
      | None -> ())
    else begin
      Atomic.incr c_unlocked;
      let h = Atomic.get g.gmutex.holder in
      if h >= 0 then begin
        Atomic.incr c_races;
        raise
          (Race
             {
               structure = g.gname;
               first = Printf.sprintf "%s held by domain %d" g.gmutex.name h;
               second = site;
             })
      end
      else Atomic.set g.gtok (Some (self_id (), site))
    end

(* ---- owners: single-domain (confined) structures ---- *)

type owner = { oname : string; otok : (int * string) option Atomic.t }

let owner oname = { oname; otok = Atomic.make None }

let with_owner o ~site f =
  if not (Atomic.get enabled) then f ()
  else begin
    Atomic.incr c_owner_checks;
    let self = self_id () in
    (match Atomic.get o.otok with
    | Some (od, osite) when od <> self ->
        Atomic.incr c_races;
        raise (Race { structure = o.oname; first = osite; second = site })
    | _ -> ());
    let prev = Atomic.exchange o.otok (Some (self, site)) in
    Fun.protect ~finally:(fun () -> Atomic.set o.otok prev) f
  end

(* ---- Atomic passthrough ---- *)

module A = struct
  type 'a t = 'a Atomic.t

  let count () = if Atomic.get enabled then Atomic.incr c_atomic_ops

  let make v = Atomic.make v

  let get a =
    count ();
    Atomic.get a

  let set a v =
    count ();
    Atomic.set a v

  let exchange a v =
    count ();
    Atomic.exchange a v

  let compare_and_set a seen v =
    count ();
    Atomic.compare_and_set a seen v

  let fetch_and_add a n =
    count ();
    Atomic.fetch_and_add a n

  let incr a = ignore (fetch_and_add a 1)
end

(* ---- seeded-fault helper ---- *)

(* Acquire [a] then [b], release both, then acquire them in the
   opposite order: with racecheck on, the second nesting closes an
   a <-> b cycle and raises {!Lock_cycle}; with it off, this is four
   uncontended lock/unlock pairs and no deadlock (the caller arms it at
   a single Faultsim hit, so two domains never run the probe
   concurrently). *)
let cycle_probe a b =
  with_lock a (fun () -> with_lock b (fun () -> ()));
  with_lock b (fun () -> with_lock a (fun () -> ()))

(* ---- stats ---- *)

let stats () =
  let i k a = (k, string_of_int (Atomic.get a)) in
  [
    ("enabled", if Atomic.get enabled then "1" else "0");
    i "mutexes" c_mutexes;
    i "acquisitions" c_acquisitions;
    i "order_edges" c_edges;
    i "lock_cycles" c_cycles;
    i "races" c_races;
    i "unlocked_accesses" c_unlocked;
    i "owner_checks" c_owner_checks;
    i "atomic_ops" c_atomic_ops;
  ]
