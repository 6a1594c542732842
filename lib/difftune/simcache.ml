(* Content-addressed memo cache for simulator timings.

   A simulated timing is a pure function of (parameter table, canonical
   block), so it can be memoized under a digest of both.  The cache is a
   bounded LRU guarded by one mutex; values are computed OUTSIDE the
   lock (a slow simulation must not serialize unrelated lookups), and
   only successful computations are inserted — exceptions (deadline
   overruns, injected faults) propagate uncached.

   All locking goes through Dt_util.Sync, so racecheck gets
   lock-order edges and a guard stamp on the LRU structure.  The
   race.unlocked_write fault site deliberately runs one insert without
   the lock to prove the guard catches it. *)

type node = {
  key : string;
  mutable value : float;
  mutable prev : node option;
  mutable next : node option;
}

type t = {
  capacity : int;
  tbl : (string, node) Hashtbl.t;
  m : Dt_util.Sync.mutex;
  g : Dt_util.Sync.guard;
  mutable head : node option; (* most recently used *)
  mutable tail : node option; (* least recently used *)
  mutable hits : int;
  mutable misses : int;
}

let create ~capacity =
  if capacity < 1 then invalid_arg "Simcache.create: capacity must be >= 1";
  let m = Dt_util.Sync.mutex "simcache.m" in
  {
    capacity;
    tbl = Hashtbl.create (min capacity 1024);
    m;
    g = Dt_util.Sync.guard "simcache.lru" m;
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
  }

let locked t f =
  Dt_util.Sync.with_lock t.m f

(* ---- intrusive LRU list (callers hold the lock) ---- *)

let unlink_locked t n =
  (match n.prev with Some p -> p.next <- n.next | None -> t.head <- n.next);
  (match n.next with Some s -> s.prev <- n.prev | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front_locked t n =
  n.next <- t.head;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

let find t key =
  locked t (fun () ->
      Dt_util.Sync.check t.g ~site:"Simcache.find";
      match Hashtbl.find_opt t.tbl key with
      | Some n ->
          t.hits <- t.hits + 1;
          unlink_locked t n;
          push_front_locked t n;
          Some n.value
      | None ->
          t.misses <- t.misses + 1;
          None)

(* Insert/refresh [key]; the caller must hold [t.m] — except for the
   armed race.unlocked_write fault path below, whose entire point is to
   break that contract so the guard stamp can prove it noticed. *)
let add_locked t key value =
  Dt_util.Sync.check t.g ~site:"Simcache.add";
  match Hashtbl.find_opt t.tbl key with
  | Some n ->
      (* Raced with another computer of the same key: both computed
         the same pure function, so either value is correct. *)
      n.value <- value;
      unlink_locked t n;
      push_front_locked t n
  | None ->
      let n = { key; value; prev = None; next = None } in
      Hashtbl.replace t.tbl key n;
      push_front_locked t n;
      if Hashtbl.length t.tbl > t.capacity then
        match t.tail with
        | None -> ()
        | Some lru ->
            unlink_locked t lru;
            Hashtbl.remove t.tbl lru.key

let add t key value =
  if Dt_util.Faultsim.fire "race.unlocked_write" then
    (* Seeded lock-discipline violation: mutate the LRU without the
       mutex.  With racecheck on the guard check stamps this
       site (or raises immediately if another domain holds the lock);
       the next locked access raises Sync.Race naming both sites.
       With racecheck off this is the silent race it models. *)
    add_locked t key value
  else locked t (fun () -> add_locked t key value)

let find_or_add t key compute =
  match find t key with
  | Some v -> v
  | None ->
      let v = compute () in
      add t key v;
      v

let hits t = locked t (fun () -> t.hits)
let misses t = locked t (fun () -> t.misses)
let length t = locked t (fun () -> Hashtbl.length t.tbl)

(* ---- content digests (FNV-1a 64) ---- *)

let fnv64 fold =
  let h = ref 0xcbf29ce484222325L in
  fold (fun (bits : int64) ->
      h := Int64.mul (Int64.logxor !h bits) 0x100000001b3L);
  Printf.sprintf "%016Lx" !h

let digest_string s =
  fnv64 (fun mix -> String.iter (fun c -> mix (Int64.of_int (Char.code c))) s)

let block_key block = digest_string (Dt_x86.Block.to_string block)

let key ~table ~block = table ^ ":" ^ block
