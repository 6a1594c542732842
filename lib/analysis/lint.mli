(** AST-level repo lint (the static half of the PR 3 analysis suite).

    Parses OCaml sources with compiler-libs and walks them with
    {!Ast_iterator}, applying repo-specific rules: float [=]/[<>]
    comparisons, catch-all exception handlers, order-dependent
    [Hashtbl.iter]/[fold] in the deterministic numeric substrate,
    [unsafe_get]/[unsafe_set] outside the audited kernel files, and bare
    [eprintf] outside [lib/util].  The dt_race pass (PR 8) adds the
    lock-discipline rules: mutation of cataloged lock-guarded fields
    outside their lock scope, raw lock acquisition without
    [Fun.protect], blocking calls while a lock is held (and condition
    waits outside predicate loops), nested acquisition violating the
    declared lock-rank order, and non-atomic [Atomic.t]
    read-modify-write.  The env-read rule flags environment access in
    [lib/] and [bin/] outside [Pool.default_domains].  Whitelists are
    part of the rule definitions and carry a written justification; see
    DESIGN.md "Correctness tooling" and "Concurrency checking". *)

type finding = {
  rule : string;
  file : string;
  line : int; (* 1-based *)
  col : int; (* 0-based *)
  msg : string;
}

type rule = {
  name : string;
  summary : string;
  in_scope : string -> bool;
      (** whether the rule applies to a repo-relative path *)
  whitelist : (string * string) list;
      (** (path fragment, justification); matching files suppress
          findings of this rule, counted separately *)
}

(** The rule catalogue, in reporting order. *)
val rules : rule list

(** The dt_race shared-state catalog: (path fragment, lock-guarded
    mutable field names).  The unguarded-mutation rule flags setfield of
    these outside a lock scope. *)
val guarded_fields : (string * string list) list

(** Declared lock-acquisition order: (path fragment or [""] for
    path-independent names, lock name, rank).  Nested acquisitions must
    use strictly increasing ranks; the lock-order rule flags the rest. *)
val lock_ranks : (string * string * int) list

(** [lint_string ~path ?only src] lints source text as though it lived
    at [path] (scoping and whitelists key off the path).  [only]
    restricts checking to the named rules (default: all).  Returns
    findings ordered by position plus the count of whitelisted
    (suppressed) findings.  Unparseable input yields a single
    [parse-error] finding. *)
val lint_string : path:string -> ?only:string list -> string -> finding list * int

(** [lint_file ?only path] reads and lints one file; see {!lint_string}. *)
val lint_file : ?only:string list -> string -> finding list * int
