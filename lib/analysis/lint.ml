(* AST-level repo lint for the DiffTune numeric substrate.

   Built directly on compiler-libs.common (Parse + Ast_iterator), no
   external dependencies.  The rules are repo-specific: each encodes a
   defect class that has bitten (or nearly bitten) this codebase — see
   DESIGN.md "Correctness tooling" for the catalogue and the whitelist
   policy.  The [bin/dt_lint] driver walks lib/ and bin/ and fails the
   @lint alias on any non-whitelisted finding. *)

open Parsetree

type finding = {
  rule : string;
  file : string;
  line : int;
  col : int;
  msg : string;
}

type rule = {
  name : string;
  summary : string;
  in_scope : string -> bool; (* normalized repo-relative path *)
  whitelist : (string * string) list; (* path fragment, justification *)
}

(* [contains hay needle] — plain substring test, so whitelist entries can
   be directory prefixes ("lib/util/") or file suffixes alike. *)
let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let everywhere _ = true

(* The paths where iteration order feeds gradient reduction, pooled
   work distribution, or checkpoint contents — nondeterminism there
   breaks the bit-identical-across-domain-counts guarantee from PR 1. *)
let substrate_paths path =
  List.exists
    (fun p -> contains path p)
    [
      "lib/util/";
      "lib/tensor/";
      "lib/autodiff/";
      "lib/nn/";
      "lib/surrogate/";
      "lib/difftune/";
    ]

let float_eq_rule =
  {
    name = "float-eq";
    summary =
      "polymorphic =/<> against a float expression; exact float equality \
       is almost always a rounding bug — use Float.equal or an epsilon";
    in_scope = everywhere;
    whitelist =
      [
        ( "lib/tensor/tensor.ml",
          "beta = 0.0 / x <> 0.0 dispatch in the gemv/gemv_t/ger kernels is \
           an intentional exact-value fast path (skip-zero, \
           overwrite-vs-accumulate), not a tolerance comparison" );
        ( "lib/tensor/gemm.ml",
          "beta = 0.0 / beta <> 1.0 dispatch in the gemm front end is the \
           same exact-value overwrite-vs-accumulate rule the gemv family \
           uses, not a tolerance comparison" );
      ];
  }

let catch_all_rule =
  {
    name = "catch-all";
    summary =
      "try ... with _ -> swallows every exception, including \
       Out_of_memory, Stack_overflow and injected faults; match the \
       exceptions you expect, or bind and reraise";
    in_scope = everywhere;
    whitelist = [];
  }

let hashtbl_order_rule =
  {
    name = "hashtbl-order";
    summary =
      "Hashtbl.iter/fold enumerate in unspecified hash order; in \
       gradient-reduction / pool / checkpoint paths this breaks the \
       deterministic ordered reduction — iterate a sorted or insertion- \
       ordered structure instead";
    in_scope = substrate_paths;
    whitelist = [];
  }

let unsafe_index_rule =
  {
    name = "unsafe-index";
    summary =
      "unsafe_get/unsafe_set skip bounds checks; outside the audited \
       kernel files an index bug corrupts arena memory silently (the \
       PR 2 gemv class) — use checked accessors";
    in_scope = everywhere;
    whitelist =
      [
        ("lib/tensor/tensor.ml", "audited kernel file (gemv/ger/axpy loops)");
        ( "lib/tensor/gemm.ml",
          "audited kernel file (gemm front end: beta prescale over \
           shape-checked destinations; the inner loops live in \
           gemm_stubs.c behind the same shape checks)" );
        ("lib/autodiff/ad.ml", "audited kernel file (tape op forward/backward)");
        ("lib/nn/nn.ml",
         "audited kernel file (Adam update; checked path under sanitize)");
      ];
  }

let bare_eprintf_rule =
  {
    name = "bare-eprintf";
    summary =
      "direct eprintf scatters diagnostics; route library messages \
       through Dt_util.Log (or an explicit config.log callback) so \
       output stays controllable";
    in_scope = everywhere;
    whitelist =
      [ ("lib/util/", "Dt_util.Log owns the actual stderr writes") ];
  }

(* The batched compute path (PR 5) exists so per-sample work becomes
   one gemm per timestep; a gemv/matvec issued from inside a loop is
   the exact per-row pattern it replaces and costs the SIMD width. *)
let gemv_batch_rule =
  {
    name = "gemv-batch-loop";
    summary =
      "per-row gemv/matvec issued from inside a for loop in the batched \
       network code; batch the rows and make one gemm/matmul call per \
       step instead";
    in_scope = (fun path -> contains path "lib/nn/");
    whitelist = [];
  }

(* Network code that issues Ad tape-op constructors from inside a for
   loop builds a trace op by op on every call, where one fused node or
   one batched op per step would do (an LSTM stack of any batch size is
   one Ad.lstm_batch node).  The whitelisted file builds the batched
   traces, whose per-bucket loops are the design. *)
let tape_op_loop_rule =
  {
    name = "tape-op-loop";
    summary =
      "Ad tape-op constructor called inside a for loop in network code; \
       batch the per-row work into one op per step, or fuse the loop \
       into one node as Ad.lstm_batch does";
    in_scope =
      (fun path -> contains path "lib/nn/" || contains path "lib/surrogate/");
    whitelist =
      [
        ( "lib/surrogate/model.ml",
          "the surrogate's trace builder: its loops over length buckets \
           build the batched trace, one op per bucket and step" );
      ];
  }

(* ---- lock-discipline catalog (dt_race static layer, PR 8) ----

   The dynamic half lives in Dt_util.Sync; these tables are the static
   declaration of the same discipline: which record fields are guarded
   by which lock, and in what order locks may nest.  A field is "in a
   lock scope" when the mutation sits inside a [with_lock]/[locked]/
   [Mutex.protect] thunk, in the statement sequence following a raw
   [Sync.lock]/[Mutex.lock], inside a [*_locked]-suffixed helper (the
   caller-holds-the-lock convention), or inside [create] (the structure
   has not escaped yet). *)

let guarded_fields =
  [
    ( "lib/util/pool.ml",
      [ "workers"; "job"; "generation"; "active"; "stop"; "suppressed" ] );
    ("lib/util/faultsim.ml", [ "armed" ]);
    ( "lib/serve/breaker.ml",
      [
        "st"; "consecutive_failures"; "opened_at"; "probe_inflight"; "opened";
        "half_opened"; "closed"; "rejected";
      ] );
    ( "lib/serve/runtime.ml",
      [
        "received"; "answered"; "ok"; "degraded"; "failed"; "overloaded";
        "malformed"; "queue_hwm"; "stopped"; "requests"; "served";
        "served_fallback"; "retries"; "timeouts"; "faults"; "breaker_skips";
        "exhausted";
      ] );
    ( "lib/difftune/simcache.ml",
      [ "value"; "prev"; "next"; "head"; "tail"; "hits"; "misses" ] );
  ]

let fields_for path =
  List.concat_map
    (fun (p, fs) -> if contains path p then fs else [])
    guarded_fields

(* Declared lock order: acquisitions must nest in strictly increasing
   rank.  Outermost (held across slow work) ranks low; leaf counter
   locks rank high.  Names are per-file mutex field/binding names; the
   path-independent order_* entries exist for the lint fixtures.  This
   is the static twin of the runtime order graph in Dt_util.Sync. *)
let lock_ranks =
  [
    ("", "order_lo", 10);
    ("", "order_mid", 20);
    ("", "order_hi", 30);
    ("lib/serve/lifecycle.ml", "pm", 10);
    ("lib/serve/lifecycle.ml", "jmutex", 20);
    ("lib/util/pool.ml", "m", 30);
    ("lib/difftune/simcache.ml", "m", 40);
    ("lib/serve/breaker.ml", "m", 50);
    ("lib/util/faultsim.ml", "m", 55);
    ("lib/serve/runtime.ml", "m", 60);
  ]

let rank_of path name =
  List.find_map
    (fun (p, n, r) ->
      if String.equal n name && (p = "" || contains path p) then Some r
      else None)
    lock_ranks

(* Cross-module calls that acquire a lock internally ("point"
   acquisitions): calling one while holding a higher- or equal-ranked
   lock is the stats_pairs class of inversion — the callee's lock nests
   inside the caller's.  Thunk arguments are NOT treated as running
   under the callee's lock (Simcache computes outside its mutex). *)
let call_locks =
  [
    ( "Breaker",
      [ "state"; "acquire"; "success"; "failure"; "counters" ],
      "breaker.m", 50 );
    ( "Simcache",
      [ "find"; "add"; "find_or_add"; "hits"; "misses"; "length" ],
      "simcache.m", 40 );
    ( "Pool",
      [ "run"; "run_lanes"; "shutdown"; "suppressed_errors" ],
      "pool.m", 30 );
    ( "Faultsim",
      [ "fire"; "fire_exn"; "arm"; "configure"; "clear"; "hits" ],
      "faultsim.m", 55 );
  ]

let unguarded_mutation_rule =
  {
    name = "unguarded-mutation";
    summary =
      "mutation of a lock-guarded field outside its lock scope \
       (with_lock/locked thunk, raw lock..unlock sequence, a *_locked \
       helper, or the constructor); the dt_race catalog lists the \
       guarded fields per file";
    in_scope =
      (fun path -> List.exists (fun (p, _) -> contains path p) guarded_fields);
    whitelist = [];
  }

let lock_no_protect_rule =
  {
    name = "lock-no-protect";
    summary =
      "raw Mutex.lock/Sync.lock not immediately followed by Fun.protect \
       ~finally:unlock; an exception between lock and unlock leaves the \
       mutex held forever — use Sync.with_lock or the lock-then-protect \
       idiom";
    in_scope = everywhere;
    whitelist =
      [
        ( "lib/util/sync.ml",
          "the instrumented lock implementation itself: lock/unlock here \
           are the primitives the protected idiom is built from" );
        ( "lib/util/pool.ml",
          "the worker handshake must interleave lock/wait/unlock across \
           a condition loop; the critical sections are exception-free by \
           construction (exec catches worker exceptions)" );
      ];
  }

let blocking_under_lock_rule =
  {
    name = "blocking-under-lock";
    summary =
      "blocking call (Unix I/O or sleep, Domain.join, clock sleep) while \
       a lock is held serializes every other holder; Condition/Sync.wait \
       outside a predicate while-loop misses spurious wakeups";
    in_scope = everywhere;
    whitelist =
      [
        ( "lib/util/sync.ml",
          "Sync.wait is the instrumented wrapper around Condition.wait; \
           its callers supply the predicate loop" );
      ];
  }

let lock_order_rule =
  {
    name = "lock-order";
    summary =
      "nested lock acquisition violating the declared rank order \
       (lifecycle.pm outermost .. runtime.m innermost; see \
       Lint.lock_ranks) or re-acquiring a lock already held; these are \
       the deadlocks Dt_util.Sync.Lock_cycle catches dynamically";
    in_scope = everywhere;
    whitelist = [];
  }

let atomic_rmw_rule =
  {
    name = "atomic-rmw";
    summary =
      "Atomic.set whose value expression reads Atomic.get of the same \
       atomic: a lost-update read-modify-write — use fetch_and_add, \
       exchange, or a compare_and_set loop";
    in_scope = everywhere;
    whitelist = [];
  }

(* A library or CLI that reads the environment is reconfigured by
   whatever launched the process, and nothing in its arguments shows
   it: every setting is an argument, a setter or a CLI flag where it is
   used.  The one switch left is the pool size's default. *)
let env_read_rule =
  {
    name = "env-read";
    summary =
      "environment access (Sys.getenv/getenv_opt, Unix.getenv/putenv/\
       environment) in lib/ or bin/ is a process-global switch no \
       argument shows; take the setting as an argument, a setter or a \
       CLI flag";
    in_scope = (fun path -> contains path "lib/" || contains path "bin/");
    whitelist =
      [
        ( "lib/util/pool.ml",
          "DIFFTUNE_DOMAINS in Pool.default_domains: the CLI's default \
           pool size and the end-to-end benchmark's pin" );
      ];
  }

let rules =
  [
    float_eq_rule;
    catch_all_rule;
    hashtbl_order_rule;
    unsafe_index_rule;
    bare_eprintf_rule;
    gemv_batch_rule;
    tape_op_loop_rule;
    unguarded_mutation_rule;
    lock_no_protect_rule;
    blocking_under_lock_rule;
    lock_order_rule;
    atomic_rmw_rule;
    env_read_rule;
  ]

(* ---- detection helpers ---- *)

let last_of = function
  | Longident.Lident s | Longident.Ldot (_, s) -> Some s
  | Longident.Lapply _ -> None

let ident_of e =
  match e.pexp_desc with Pexp_ident { txt; _ } -> Some txt | _ -> None

(* Syntactic "this expression is a float": literal, float operator
   application, or a Float.* call.  Conservative on purpose — type
   information is not available at the AST level. *)
let rec floatish e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | Pexp_apply (f, args) -> (
      match ident_of f with
      | Some (Longident.Lident ("~-." | "~+.")) -> (
          match args with [ (_, a) ] -> floatish a | _ -> false)
      | Some (Longident.Lident ("+." | "-." | "*." | "/." | "**")) -> true
      | Some (Longident.Lident ("float_of_int" | "sqrt" | "exp" | "log")) ->
          true
      | Some (Longident.Ldot (Longident.Lident "Float", _)) -> true
      | _ -> false)
  | _ -> false

let is_poly_eq li =
  match li with
  | Longident.Lident ("=" | "<>")
  | Longident.Ldot (Longident.Lident "Stdlib", ("=" | "<>")) ->
      true
  | _ -> false

let rec pattern_catches_all p =
  match p.ppat_desc with
  | Ppat_any -> true
  | Ppat_or (a, b) -> pattern_catches_all a || pattern_catches_all b
  | _ -> false

(* ---- lock-discipline detection helpers ---- *)

(* Name of a mutex expression: the last field/ident component, so
   [t.m] -> "m", [t.pm] -> "pm", [order_lo] -> "order_lo". *)
let lock_name_of e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> last_of txt
  | Pexp_field (_, { txt; _ }) -> last_of txt
  | _ -> None

(* [Mutex.lock]/[Sync.lock] application (raw acquisition). *)
let is_raw_lock e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_of f with
      | Some (Longident.Ldot (q, "lock")) -> (
          match last_of q with Some ("Mutex" | "Sync") -> true | _ -> false)
      | _ -> false)
  | _ -> false

let is_fun_protect e =
  match e.pexp_desc with
  | Pexp_apply (f, _) -> (
      match ident_of f with
      | Some (Longident.Ldot (Longident.Lident "Fun", "protect")) -> true
      | _ -> false)
  | _ -> false

(* Helper applications whose function argument runs with the lock held:
   [Sync.with_lock m f], the per-module [locked] wrappers,
   [Mutex.protect m f], and Sync's own [glocked]. *)
let scope_helper f =
  match ident_of f with
  | Some li -> (
      match last_of li with
      | Some (("with_lock" | "locked" | "glocked") as h) -> Some h
      | Some "protect" -> (
          match li with
          | Longident.Ldot (q, _) -> (
              match last_of q with Some "Mutex" -> Some "protect" | _ -> None)
          | _ -> None)
      | _ -> None)
  | _ -> None

(* Which lock a scope helper acquires.  The [locked t f] wrappers in
   runtime/breaker/simcache/faultsim close over a fixed [m] field;
   elsewhere ([lifecycle], fixtures) the first argument IS the mutex. *)
let scope_lock_name path helper args =
  let from_first_arg () =
    match args with (_, a) :: _ -> lock_name_of a | [] -> None
  in
  match helper with
  | "with_lock" | "protect" -> from_first_arg ()
  | "locked" ->
      if
        List.exists (contains path)
          [
            "lib/serve/runtime.ml"; "lib/serve/breaker.ml";
            "lib/difftune/simcache.ml"; "lib/util/faultsim.ml";
          ]
      then Some "m"
      else from_first_arg ()
  | _ -> None

let blocking_unix_calls =
  [
    "sleep"; "sleepf"; "select"; "read"; "write"; "write_substring";
    "single_write"; "single_write_substring"; "accept"; "connect"; "recv";
    "send"; "wait"; "waitpid"; "system";
  ]

(* Stable textual form of a simple access path ([x], [t.current]);
   [None] for anything more complex, which the atomic-rmw rule then
   conservatively ignores. *)
let rec expr_path e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match txt with
      | Longident.Lapply _ -> None
      | _ -> Some (String.concat "." (Longident.flatten txt)))
  | Pexp_field (b, { txt; _ }) -> (
      match (expr_path b, last_of txt) with
      | Some bp, Some f -> Some (bp ^ "." ^ f)
      | _ -> None)
  | _ -> None

let is_atomic_qual q =
  match last_of q with Some ("Atomic" | "A") -> true | _ -> false

(* Does [v] contain [Atomic.get] of the access path [tp]? *)
let expr_reads_atomic tp v =
  let found = ref false in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_apply (g, (_, a) :: _) -> (
        match ident_of g with
        | Some (Longident.Ldot (q, "get")) when is_atomic_qual q -> (
            match expr_path a with
            | Some ap when String.equal ap tp -> found := true
            | _ -> ())
        | _ -> ())
    | _ -> ());
    Ast_iterator.default_iterator.expr sub e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it v;
  !found

(* ---- the walk ---- *)

let lint_ast ~path ?only ast =
  let findings = ref [] and suppressed = ref 0 in
  let active rule =
    match only with None -> true | Some names -> List.mem rule.name names
  in
  let add rule loc msg =
    if active rule && rule.in_scope path then
      if List.exists (fun (frag, _) -> contains path frag) rule.whitelist then
        incr suppressed
      else
        let pos = loc.Location.loc_start in
        findings :=
          {
            rule = rule.name;
            file = path;
            line = pos.Lexing.pos_lnum;
            col = pos.Lexing.pos_cnum - pos.Lexing.pos_bol;
            msg;
          }
          :: !findings
  in
  let for_depth = ref 0 in
  (* Lock-discipline walk state.  [lock_depth] counts every way of being
     inside a critical section (thunk helpers, raw lock sequences,
     *_locked helpers, constructors); [lock_stack] tracks only named
     acquisitions from thunk helpers, innermost first, for the order
     rule; [while_depth] distinguishes predicate-looped waits.
     [sanctioned] holds source positions of raw lock calls immediately
     followed by Fun.protect (the approved idiom). *)
  let lock_depth = ref 0 in
  let while_depth = ref 0 in
  let lock_stack : (string * int option) list ref = ref [] in
  let sanctioned : (int * int, unit) Hashtbl.t = Hashtbl.create 4 in
  let pos_key loc =
    let p = loc.Location.loc_start in
    (p.Lexing.pos_lnum, p.Lexing.pos_cnum)
  in
  let guarded = fields_for path in
  let check_order loc name rank =
    if List.exists (fun (n, _) -> String.equal n name) !lock_stack then
      add lock_order_rule loc
        (Printf.sprintf
           "lock %s acquired while already held; relocking a non-reentrant \
            mutex self-deadlocks"
           name)
    else
      match rank with
      | None -> ()
      | Some r ->
          List.iter
            (fun (n0, r0) ->
              match r0 with
              | Some r0 when r0 >= r ->
                  add lock_order_rule loc
                    (Printf.sprintf
                       "lock %s (rank %d) acquired while holding %s (rank \
                        %d); the declared order acquires strictly \
                        increasing ranks"
                       name r n0 r0)
              | _ -> ())
            !lock_stack
  in
  let expr sub e =
    (match e.pexp_desc with
    | Pexp_apply (f, [ (_, a); (_, b) ])
      when (match ident_of f with
           | Some li -> is_poly_eq li
           | None -> false)
           && (floatish a || floatish b) ->
        add float_eq_rule e.pexp_loc
          "float compared with polymorphic =/<>; use Float.equal, an \
           epsilon, or classify with Float.classify_float"
    | Pexp_try (_, cases) ->
        List.iter
          (fun c ->
            if pattern_catches_all c.pc_lhs then
              add catch_all_rule c.pc_lhs.ppat_loc
                "catch-all exception handler ('with _ ->') swallows \
                 unexpected failures; name the exceptions this code can \
                 actually recover from")
          cases
    | Pexp_apply (f, [ (_, target); (_, v) ])
      when match ident_of f with
           | Some (Longident.Ldot (q, "set")) -> is_atomic_qual q
           | _ -> false -> (
        match expr_path target with
        | Some tp when expr_reads_atomic tp v ->
            add atomic_rmw_rule e.pexp_loc
              (Printf.sprintf
                 "Atomic.set %s reads Atomic.get %s in its value: a \
                  concurrent writer between the get and the set is \
                  silently lost — use fetch_and_add, exchange, or a \
                  compare_and_set loop"
                 tp tp)
        | _ -> ())
    | Pexp_apply _ when is_raw_lock e ->
        if not (Hashtbl.mem sanctioned (pos_key e.pexp_loc)) then
          add lock_no_protect_rule e.pexp_loc
            "raw lock acquisition without an immediate Fun.protect \
             ~finally:unlock; an exception in the critical section leaves \
             the mutex held — use Sync.with_lock or lock-then-protect"
    | Pexp_apply (f, _)
      when (match ident_of f with
           | Some (Longident.Ldot (q, "wait")) -> (
               match last_of q with
               | Some ("Condition" | "Sync") -> true
               | _ -> false)
           | _ -> false)
           && !while_depth = 0 ->
        add blocking_under_lock_rule e.pexp_loc
          "condition wait outside a predicate while-loop; wakeups can be \
           spurious and the guarded predicate must be re-checked after \
           every wait"
    | Pexp_apply (f, _)
      when (match f.pexp_desc with
           | Pexp_field (_, { txt; _ }) -> last_of txt = Some "sleep"
           | _ -> false)
           && !lock_depth > 0 ->
        add blocking_under_lock_rule e.pexp_loc
          "clock sleep while holding a lock stalls every other domain \
           waiting on it; sleep outside the critical section"
    | Pexp_apply (f, _) when !lock_stack <> [] -> (
        match ident_of f with
        | Some (Longident.Ldot (q, fn)) -> (
            match last_of q with
            | Some m -> (
                match
                  List.find_opt
                    (fun (mn, fns, _, _) ->
                      String.equal mn m && List.mem fn fns)
                    call_locks
                with
                | Some (_, _, lockname, r) ->
                    List.iter
                      (fun (n0, r0) ->
                        match r0 with
                        | Some r0 when r0 >= r ->
                            add lock_order_rule e.pexp_loc
                              (Printf.sprintf
                                 "%s.%s acquires %s (rank %d) while \
                                  holding %s (rank %d); hoist the call \
                                  out of the critical section (the \
                                  stats_pairs inversion class)"
                                 m fn lockname r n0 r0)
                        | _ -> ())
                      !lock_stack
                | None -> ())
            | None -> ())
        | _ -> ())
    | Pexp_setfield (_, { txt = fld; _ }, _)
      when !lock_depth = 0
           && (match last_of fld with
              | Some f -> List.mem f guarded
              | None -> false) -> (
        match last_of fld with
        | Some f ->
            add unguarded_mutation_rule e.pexp_loc
              (Printf.sprintf
                 "field %s is lock-guarded (dt_race catalog) but mutated \
                  outside any lock scope; wrap the mutation in \
                  with_lock, or mark the helper *_locked if its caller \
                  holds the lock"
                 f)
        | None -> ())
    | Pexp_ident { txt = Longident.Ldot (Longident.Lident "Hashtbl", fn); loc }
      when fn = "iter" || fn = "fold" ->
        add hashtbl_order_rule loc
          (Printf.sprintf
             "Hashtbl.%s iterates in unspecified order inside the \
              deterministic numeric substrate; sort keys first or use an \
              ordered container"
             fn)
    | Pexp_ident { txt; loc } -> (
        (match last_of txt with
        | Some
            (("unsafe_get" | "unsafe_set" | "unsafe_get1" | "unsafe_set1"
             | "unsafe_blit" | "unsafe_fill") as fn) ->
            add unsafe_index_rule loc
              (Printf.sprintf
                 "%s outside the audited kernel whitelist; a bad index \
                  silently corrupts shared arena memory"
                 fn)
        | _ -> ());
        (match last_of txt with
        | Some (("gemv" | "gemv_t" | "matvec") as fn) when !for_depth > 0 ->
            add gemv_batch_rule loc
              (Printf.sprintf
                 "%s inside a for loop runs one row at a time; batch the \
                  rows and call gemm/matmul once per step"
                 fn)
        | _ -> ());
        (match txt with
        | Longident.Ldot (qual, fn) -> (
            match (last_of qual, fn) with
            | Some "Sys", ("getenv" | "getenv_opt")
            | Some "Unix", ("getenv" | "putenv" | "environment") ->
                add env_read_rule loc
                  (Printf.sprintf
                     "%s reads or writes the process environment, a \
                      switch no argument shows; pass the setting as an \
                      argument, a setter or a CLI flag"
                     (String.concat "." (Longident.flatten txt)))
            | _ -> ())
        | _ -> ());
        (match txt with
        | Longident.Ldot (qual, fn) when !for_depth > 0 -> (
            let is_ad =
              match qual with
              | Longident.Lident "Ad"
              | Longident.Ldot (_, "Ad")
              | Longident.Lident "Dt_autodiff" ->
                  true
              | _ -> false
            in
            match fn with
            | ( "matvec" | "matmul" | "row" | "add" | "mul" | "concat"
              | "slice" | "sigmoid" | "tanh_" | "relu" | "exp_" | "affine"
              | "max2" | "div" | "sum_all" | "reduce_max" | "abs_" | "scale"
              | "mape" | "add_row" | "stack_rows" | "cols" | "concat_cols"
              | "row_blend" | "mape_batch" | "lstm_batch" | "constant"
              | "scalar" )
              when is_ad ->
                add tape_op_loop_rule loc
                  (Printf.sprintf
                     "Ad.%s constructs a tape op on every loop iteration; \
                      batch the rows into one op per step"
                     fn)
            | _ -> ())
        | _ -> ());
        (if !lock_depth > 0 then
           match txt with
           | Longident.Ldot (Longident.Lident "Unix", fn)
             when List.mem fn blocking_unix_calls ->
               add blocking_under_lock_rule loc
                 (Printf.sprintf
                    "Unix.%s can block indefinitely while a lock is held; \
                     move the call outside the critical section"
                    fn)
           | Longident.Ldot (Longident.Lident "Domain", "join") ->
               add blocking_under_lock_rule loc
                 "Domain.join while a lock is held deadlocks if the joined \
                  domain needs the same lock; join outside the critical \
                  section"
           | _ -> ());
        match txt with
        | Longident.Ldot (Longident.Lident ("Printf" | "Format"), "eprintf")
        | Longident.Lident "eprintf" ->
            add bare_eprintf_rule loc
              "bare eprintf; route diagnostics through Dt_util.Log or a \
               config.log callback"
        | _ -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_for _ ->
        incr for_depth;
        Ast_iterator.default_iterator.expr sub e;
        decr for_depth
    | Pexp_while _ ->
        incr while_depth;
        Ast_iterator.default_iterator.expr sub e;
        decr while_depth
    | Pexp_sequence (e1, e2) when is_raw_lock e1 ->
        (* Everything sequenced after a raw lock is treated as inside the
           critical section (over-approximate past the unlock — sound for
           flagging, a raw-lock function rarely mutates after unlock). *)
        if is_fun_protect e2 then
          Hashtbl.replace sanctioned (pos_key e1.pexp_loc) ();
        sub.expr sub e1;
        incr lock_depth;
        sub.expr sub e2;
        decr lock_depth
    | Pexp_apply (f, args) when scope_helper f <> None ->
        let helper = Option.get (scope_helper f) in
        let entered =
          match scope_lock_name path helper args with
          | Some name ->
              let r = rank_of path name in
              check_order e.pexp_loc name r;
              lock_stack := (name, r) :: !lock_stack;
              true
          | None -> false
        in
        sub.expr sub f;
        incr lock_depth;
        List.iter (fun (_, a) -> sub.expr sub a) args;
        decr lock_depth;
        if entered then lock_stack := List.tl !lock_stack
    | _ -> Ast_iterator.default_iterator.expr sub e
  in
  (* Bindings named [*_locked] (caller holds the lock by convention),
     [create] (the structure has not escaped its constructor), and the
     lock-helper definitions themselves run in lock context. *)
  let value_binding sub vb =
    let exempt =
      match vb.pvb_pat.ppat_desc with
      | Ppat_var { txt = n; _ } ->
          let l = String.length n in
          String.equal n "create" || String.equal n "locked"
          || String.equal n "with_lock"
          || (l >= 7 && String.equal (String.sub n (l - 7) 7) "_locked")
      | _ -> false
    in
    if exempt then begin
      incr lock_depth;
      Ast_iterator.default_iterator.value_binding sub vb;
      decr lock_depth
    end
    else Ast_iterator.default_iterator.value_binding sub vb
  in
  let iterator = { Ast_iterator.default_iterator with expr; value_binding } in
  iterator.structure iterator ast;
  let ordered =
    List.sort
      (fun a b -> compare (a.line, a.col, a.rule) (b.line, b.col, b.rule))
      !findings
  in
  (ordered, !suppressed)

let lint_string ~path ?only src =
  let lexbuf = Lexing.from_string src in
  Lexing.set_filename lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> lint_ast ~path ?only ast
  | exception Syntaxerr.Error _ ->
      ( [
          {
            rule = "parse-error";
            file = path;
            line = lexbuf.Lexing.lex_curr_p.Lexing.pos_lnum;
            col = 0;
            msg = "file does not parse as OCaml; dt_lint cannot analyse it";
          };
        ],
        0 )
  | exception e ->
      ( [
          {
            rule = "parse-error";
            file = path;
            line = 1;
            col = 0;
            msg = Printf.sprintf "parser failed: %s" (Printexc.to_string e);
          };
        ],
        0 )

let lint_file ?only path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  lint_string ~path ?only src
