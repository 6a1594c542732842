(* Helpers shared by the test executables. *)

(* [with_domains_env v f] runs [f] with DIFFTUNE_DOMAINS, the pool's one
   process-global switch, set to [v], and restores the previous value;
   an unset variable comes back as empty (OCaml has no unsetenv; empty
   reads as unset).  A child process spawned inside [f] inherits [v]. *)
let with_domains_env v f =
  let prev = Sys.getenv_opt "DIFFTUNE_DOMAINS" in
  Unix.putenv "DIFFTUNE_DOMAINS" v;
  Fun.protect
    ~finally:(fun () ->
      Unix.putenv "DIFFTUNE_DOMAINS" (Option.value ~default:"" prev))
    f

let with_domains d f = with_domains_env (string_of_int d) f

(* [run name suites] is [Alcotest.run name suites] for a suite that also
   has a runtest rule with [--racecheck]: the flag arms the dynamic race
   checker for every case, is taken out of the argv Alcotest parses, and
   names the run [name-racecheck] so its output directory is not the
   plain run's. *)
let run name suites =
  let racecheck = Array.mem "--racecheck" Sys.argv in
  if racecheck then Dt_util.Sync.set_racecheck true;
  let argv = List.filter (( <> ) "--racecheck") (Array.to_list Sys.argv) in
  Alcotest.run ~argv:(Array.of_list argv)
    (if racecheck then name ^ "-racecheck" else name)
    suites
