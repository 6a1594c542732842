(* dt_lint: repo lint driver over Dt_analysis.Lint.

   Usage:
     dt_lint [--rules] [--only RULE[,RULE...]] [ROOT ...]

   Walks every .ml file under the given roots (default: lib bin),
   prints non-whitelisted findings, and exits 1 if there are any.
   --only restricts the run to the named rules (e.g. the five dt_race
   lock-discipline rules).  Wired into `dune build @lint`, which
   `dune runtest` builds. *)

module Lint = Dt_analysis.Lint

let rec collect acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list |> List.sort compare
    |> List.fold_left
         (fun acc entry ->
           if String.length entry > 0 && (entry.[0] = '.' || entry.[0] = '_')
           then acc
           else collect acc (Filename.concat path entry))
         acc
  else if Filename.check_suffix path ".ml" then path :: acc
  else acc

let print_rules () =
  List.iter
    (fun (r : Lint.rule) ->
      Printf.printf "%-14s %s\n" r.name r.summary;
      List.iter
        (fun (frag, why) -> Printf.printf "%14s   whitelisted %s: %s\n" "" frag why)
        r.whitelist)
    Lint.rules

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  if List.mem "--rules" args then begin
    print_rules ();
    exit 0
  end;
  let only = ref None in
  let rec parse_args acc = function
    | [] -> List.rev acc
    | "--only" :: spec :: rest ->
        let names =
          String.split_on_char ',' spec
          |> List.map String.trim
          |> List.filter (fun s -> s <> "")
        in
        List.iter
          (fun n ->
            if not (List.exists (fun (r : Lint.rule) -> r.name = n) Lint.rules)
            then begin
              Printf.printf "dt_lint: unknown rule %S (see --rules)\n" n;
              exit 2
            end)
          names;
        only := Some names;
        parse_args acc rest
    | "--only" :: [] ->
        Printf.printf "dt_lint: --only needs a comma-separated rule list\n";
        exit 2
    | a :: rest -> parse_args (a :: acc) rest
  in
  let args = parse_args [] args in
  let only = !only in
  let roots = match args with [] -> [ "lib"; "bin" ] | roots -> roots in
  List.iter
    (fun root ->
      if not (Sys.file_exists root) then begin
        Printf.printf "dt_lint: no such path %S\n" root;
        exit 2
      end)
    roots;
  let files = List.rev (List.fold_left collect [] roots) in
  let total = ref 0 and whitelisted = ref 0 in
  List.iter
    (fun file ->
      let findings, suppressed = Lint.lint_file ?only file in
      whitelisted := !whitelisted + suppressed;
      List.iter
        (fun (f : Lint.finding) ->
          incr total;
          Printf.printf "%s:%d:%d: [%s] %s\n" f.file f.line f.col f.rule f.msg)
        findings)
    files;
  Printf.printf "dt_lint: %d files, %d findings, %d whitelisted\n"
    (List.length files) !total !whitelisted;
  exit (if !total = 0 then 0 else 1)
