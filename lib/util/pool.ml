type job = {
  n : int;
  f : lane:int -> int -> unit;
  next : int Atomic.t;
  err : (exn * Printexc.raw_backtrace) option Atomic.t;
  suppressed : int Atomic.t; (* worker exceptions after the first *)
}

type t = {
  mutable workers : unit Domain.t array;
  m : Sync.mutex;
  work_ready : Sync.cond;
  work_done : Sync.cond;
  mutable job : job option;
  mutable generation : int;
  mutable active : int; (* workers still on the current job *)
  mutable stop : bool;
  mutable suppressed : int; (* cumulative, updated by [run] after join *)
  size : int;
}

let default_domains () =
  match Sys.getenv_opt "DIFFTUNE_DOMAINS" with
  | Some s -> (
      match int_of_string_opt (String.trim s) with
      | Some n when n > 0 -> n
      | _ -> Domain.recommended_domain_count ())
  | None -> Domain.recommended_domain_count ()

(* Pull tasks off the shared counter until exhausted, running each on
   [lane].  The first exception is kept with its backtrace; later tasks
   still run (so [run_lanes] always joins) and their failures are only
   counted. *)
let exec ~lane job =
  let rec loop () =
    let i = Atomic.fetch_and_add job.next 1 in
    if i < job.n then begin
      (try
         Faultsim.fire_exn "pool.worker";
         job.f ~lane i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         if not (Atomic.compare_and_set job.err None (Some (e, bt))) then
           Atomic.incr job.suppressed);
      loop ()
    end
  in
  loop ()

(* The worker handshake needs raw lock/wait/unlock (a [with_lock] thunk
   cannot span the condition loop), so this is one of the two modules
   whitelisted for the lock-no-protect lint rule; the wait loop itself
   is exception-free. *)
let worker t lane () =
  let seen = ref 0 in
  let rec loop () =
    Sync.lock t.m;
    while (not t.stop) && t.generation = !seen do
      Sync.wait t.work_ready t.m
    done;
    if t.stop then Sync.unlock t.m
    else begin
      seen := t.generation;
      let job = match t.job with Some j -> j | None -> assert false in
      Sync.unlock t.m;
      exec ~lane job;
      Sync.lock t.m;
      t.active <- t.active - 1;
      if t.active = 0 then Sync.broadcast t.work_done;
      Sync.unlock t.m;
      loop ()
    end
  in
  loop ()

let create ?domains () =
  let size = match domains with Some d -> d | None -> default_domains () in
  if size <= 0 then invalid_arg "Pool.create: domains must be positive";
  let t =
    {
      workers = [||];
      m = Sync.mutex "pool.m";
      work_ready = Sync.condition "pool.work_ready";
      work_done = Sync.condition "pool.work_done";
      job = None;
      generation = 0;
      active = 0;
      stop = false;
      suppressed = 0;
      size;
    }
  in
  (* Lane 0 is the caller; worker [w] is lane [w + 1]. *)
  t.workers <- Array.init (size - 1) (fun w -> Domain.spawn (worker t (w + 1)));
  t

let size t = t.size

let run_lanes t n f =
  if n <= 0 then ()
  else begin
    let job =
      {
        n;
        f;
        next = Atomic.make 0;
        err = Atomic.make None;
        suppressed = Atomic.make 0;
      }
    in
    if Array.length t.workers = 0 then begin
      exec ~lane:0 job;
      Sync.with_lock t.m (fun () ->
          t.suppressed <- t.suppressed + Atomic.get job.suppressed)
    end
    else begin
      Sync.lock t.m;
      t.job <- Some job;
      t.generation <- t.generation + 1;
      t.active <- Array.length t.workers;
      Sync.broadcast t.work_ready;
      Sync.unlock t.m;
      exec ~lane:0 job;
      Sync.lock t.m;
      while t.active > 0 do
        Sync.wait t.work_done t.m
      done;
      t.job <- None;
      (* Under the lock: [run] may be called from several domains over
         the pool's lifetime, and this counter is shared state like the
         handshake fields (dt_race audit). *)
      t.suppressed <- t.suppressed + Atomic.get job.suppressed;
      Sync.unlock t.m
    end;
    match Atomic.get job.err with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()
  end

let run t n f = run_lanes t n (fun ~lane:_ i -> f i)

let suppressed_errors t = Sync.with_lock t.m (fun () -> t.suppressed)

let shutdown t =
  let to_join =
    Sync.with_lock t.m (fun () ->
        let fresh = not t.stop in
        t.stop <- true;
        Sync.broadcast t.work_ready;
        if fresh then t.workers else [||])
  in
  (* Join outside the lock: a worker finishing its last job must be able
     to reacquire [m] to observe [stop]. *)
  Array.iter Domain.join to_join;
  if Array.length to_join > 0 then
    Sync.with_lock t.m (fun () -> t.workers <- [||])
