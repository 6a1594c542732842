(* dt_race fixture: blocking calls while holding a lock. *)

let bad_sleep t = Sync.with_lock t.m (fun () -> Unix.sleepf 0.25)

let bad_join t = Sync.with_lock t.m (fun () -> Domain.join t.worker)

let bad_wait t = Sync.with_lock t.m (fun () -> Sync.wait t.cv t.m)

let good_wait t =
  Sync.with_lock t.m (fun () ->
      while not t.ready do
        Sync.wait t.cv t.m
      done)

let good_sleep () = Unix.sleepf 0.25

let bad_send t fd s = Sync.with_lock t.m (fun () -> Unix.single_write_substring fd s 0 1)
