(* dt_lint fixture: env-read fires on every environment access. *)
let domains () = Sys.getenv_opt "DIFFTUNE_DOMAINS"
let home () = Sys.getenv "HOME"
let user () = Unix.getenv "USER"
let pin () = Unix.putenv "DIFFTUNE_DOMAINS" "1"
let inherited () = Unix.environment ()
let args () = Array.length Sys.argv
