(* Pieces of the end-to-end benchmark that its tier-1 self-check
   (e2e_check.ml) pins down: summary statistics over measured samples,
   the phase-by-phase learn composition, and the in-process serving
   replay.  Everything here calls only the public interfaces of the
   libraries under test. *)

module Engine = Dt_difftune.Engine
module Spec = Dt_difftune.Spec
module Runtime = Dt_serve.Runtime

let now = Unix.gettimeofday

(* ---- statistics ---- *)

let median xs = Dt_util.Stats.median xs

(* Nearest-rank percentile of an ascending array: the smallest sample
   with at least [p]% of all samples at or below it. *)
let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Harness.percentile: no samples";
  let rank = int_of_float (Float.ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))

(* Tail levels as (percentile, samples beyond it per 10,000); integer
   arithmetic keeps 99.9 from rounding below its own threshold. *)
let tail_levels = [ (99.99, 1); (99.9, 10); (99.0, 100); (90.0, 1000) ]

(* The highest tail percentile that has at least ten samples beyond it
   among [n]; [None] below 100 samples. *)
let tail_percentile n =
  List.find_map
    (fun (p, per_10k) -> if n * per_10k >= 100_000 then Some p else None)
    tail_levels

(* The values of (time, value) samples grouped by the whole
   [width]-second window of [t0, t1) their time falls in; samples outside
   every whole window are dropped.  Medians over windows make a run's
   figure robust to a slowdown that lasts less than half the run. *)
let windows ~width ~t0 ~t1 samples =
  let n = int_of_float (Float.floor ((t1 -. t0) /. width)) in
  if n < 1 then invalid_arg "Harness.windows: no whole window";
  let w = Array.make n [] in
  List.iter
    (fun (t, v) ->
      let k = int_of_float (Float.floor ((t -. t0) /. width)) in
      if t >= t0 && k < n then w.(k) <- v :: w.(k))
    samples;
  Array.map Array.of_list w

(* How late an open-loop generator ran: the largest [sent.(i) - due.(i)]
   (0 when every request left on time), and how many requests left at
   least [threshold] seconds after they were due. *)
let lateness ~threshold ~due ~sent =
  let worst = ref 0.0 and late = ref 0 in
  Array.iteri
    (fun i d ->
      let l = sent.(i) -. d in
      if l > !worst then worst := l;
      if l >= threshold then incr late)
    due;
  (!worst, !late)

(* ---- host speed ---- *)

(* A fixed piece of work that calls nothing under test: boxed-float
   lists allocated and kept in a ring of hash-table slots, the mix of
   short-lived allocation and float arithmetic the learn loop runs.  On
   a shared host whose speed changes twofold within a minute, the learn
   loop's time follows this kernel's time closely, so the ratio of the
   two measures the program and not its neighbours.  It starts from a
   compacted heap, so what the program left there does not change its
   garbage collector's work.  Returns the time it took. *)
let reference_kernel () =
  Gc.compact ();
  let t = now () in
  let ring = Hashtbl.create 4096 in
  let acc = ref 0.0 in
  for i = 1 to 1_800_000 do
    let l = List.init 4 (fun j -> float_of_int (i + j) *. 0.5) in
    Hashtbl.replace ring (i land 4095) l;
    acc := !acc +. List.fold_left ( +. ) 0.0 l
  done;
  ignore (Sys.opaque_identity !acc);
  now () -. t

(* [times.(i)] divided by the mean of the kernel times just before and
   just after it: [kernel] holds one more time than [times], with
   [kernel.(i)] taken before [times.(i)] and [kernel.(i + 1)] after. *)
let per_kernel ~kernel times =
  if Array.length kernel <> Array.length times + 1 then
    invalid_arg "Harness.per_kernel: need one kernel time around each";
  Array.mapi (fun i t -> 2.0 *. t /. (kernel.(i) +. kernel.(i + 1))) times

(* ---- the learn loop, one phase at a time ---- *)

(* Bitwise table equality: learned tables must agree to the last bit,
   so compare float representations rather than values. *)
let same_table (a : Spec.table) (b : Spec.table) =
  let same x y =
    Array.length x = Array.length y
    && Array.for_all2
         (fun u v -> Int64.equal (Int64.bits_of_float u) (Int64.bits_of_float v))
         x y
  in
  Array.length a.per = Array.length b.per
  && Array.for_all2 same a.per b.per
  && same a.global b.global

type phase = Collect | Train | Optimize

let phase_name = function
  | Collect -> "collect"
  | Train -> "train"
  | Optimize -> "optimize"

(* The calls [Engine.learn] makes without a checkpoint directory, in the
   same order, so a caller can measure each phase from outside:
   [boundary (Some p)] runs just before phase [p] starts and
   [boundary None] just after the last one ends.  Returns the extracted
   table, the final surrogate loss and the collected sample count. *)
let learn_phased ~boundary ?valid cfg (spec : Spec.t) ~train =
  let blocks = Array.map fst train in
  let model = Engine.make_model cfg spec (Dt_util.Rng.create cfg.Engine.seed) in
  boundary (Some Collect);
  let data = Engine.collect cfg spec blocks in
  boundary (Some Train);
  let loss = Engine.train_surrogate cfg spec model data blocks in
  boundary (Some Optimize);
  let table = Engine.optimize_table ?valid cfg spec model ~train in
  boundary None;
  (table, loss, Array.length data)

(* ---- in-process serving replay ---- *)

type replay = {
  submitted : int;
  submit_s : float;  (** wall time inside [Runtime.submit] *)
  drains : int;  (** [Runtime.drain] calls that found work *)
  drain_s : float;  (** wall time inside those calls *)
  elapsed_s : float;
}

(* Requests kept admitted and unanswered: the fleet client's closed-loop
   depth, two connections of 32. *)
let window = 64

(* Submit [lines] through [rt] in order, keeping at most [window]
   admitted and unanswered, and drain one batch whenever the window is
   full or the input ends.  No new line is submitted after [until].
   [respond i ~since line] receives every response to line [i],
   submitted at time [since]; [around_drain] wraps each [Runtime.drain]
   call. *)
let replay ?(until = Float.infinity)
    ?(around_drain = fun drain -> drain ()) rt lines ~respond =
  let n = Array.length lines in
  let submit_s = ref 0.0 and drain_s = ref 0.0 and drains = ref 0 in
  let next = ref 0 in
  let t0 = now () in
  let drain () =
    let t = now () in
    around_drain (fun () -> Runtime.drain rt);
    drain_s := !drain_s +. (now () -. t);
    incr drains
  in
  while !next < n && now () < until do
    while !next < n && Runtime.pending rt < window do
      let i = !next in
      incr next;
      let t = now () in
      ignore (Runtime.submit rt ~line:lines.(i) ~respond:(respond i ~since:t));
      submit_s := !submit_s +. (now () -. t)
    done;
    if Runtime.pending rt > 0 then drain ()
  done;
  while Runtime.pending rt > 0 do
    drain ()
  done;
  {
    submitted = !next;
    submit_s = !submit_s;
    drains = !drains;
    drain_s = !drain_s;
    elapsed_s = now () -. t0;
  }
