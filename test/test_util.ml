(* Tests for Dt_util: PRNG, statistics, text tables, JSON, and the pool
   size's one environment switch. *)

module Rng = Dt_util.Rng
module Stats = Dt_util.Stats

let check = Alcotest.check
let checkf = Alcotest.check (Alcotest.float 1e-9)

let contains ~affix s =
  let n = String.length s and m = String.length affix in
  let rec go i = i + m <= n && (String.sub s i m = affix || go (i + 1)) in
  m = 0 || go 0

(* ---- Rng ---- *)

let test_determinism () =
  let a = Rng.create 42 and b = Rng.create 42 in
  for _ = 1 to 100 do
    check Alcotest.int "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_seeds_differ () =
  let a = Rng.create 1 and b = Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Rng.int a 1_000_000 = Rng.int b 1_000_000 then incr same
  done;
  Alcotest.(check bool) "streams differ" true (!same < 4)

let test_split_independent () =
  let parent = Rng.create 7 in
  let child = Rng.split parent in
  let xs = Array.init 32 (fun _ -> Rng.int parent 1000) in
  let ys = Array.init 32 (fun _ -> Rng.int child 1000) in
  Alcotest.(check bool) "child differs from parent" true (xs <> ys)

let test_copy () =
  let a = Rng.create 3 in
  let _ = Rng.int a 10 in
  let b = Rng.copy a in
  check Alcotest.int "copy same next" (Rng.int a 1000) (Rng.int b 1000)

let test_int_bounds () =
  let rng = Rng.create 11 in
  for _ = 1 to 10_000 do
    let v = Rng.int rng 7 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 7)
  done

let test_int_range_bounds () =
  let rng = Rng.create 12 in
  for _ = 1 to 1000 do
    let v = Rng.int_range rng (-5) 5 in
    Alcotest.(check bool) "in range" true (v >= -5 && v <= 5)
  done

let test_int_rejects_nonpositive () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_float_bounds () =
  let rng = Rng.create 13 in
  for _ = 1 to 1000 do
    let v = Rng.float rng 2.5 in
    Alcotest.(check bool) "in range" true (v >= 0.0 && v < 2.5)
  done

let test_int_uniformity () =
  let rng = Rng.create 5 in
  let counts = Array.make 10 0 in
  let n = 100_000 in
  for _ = 1 to n do
    let v = Rng.int rng 10 in
    counts.(v) <- counts.(v) + 1
  done;
  Array.iter
    (fun c ->
      let expected = n / 10 in
      Alcotest.(check bool) "within 10% of uniform" true
        (abs (c - expected) < expected / 10))
    counts

let test_gaussian_moments () =
  let rng = Rng.create 17 in
  let n = 50_000 in
  let xs = Array.init n (fun _ -> Rng.gaussian rng ~mu:2.0 ~sigma:3.0) in
  Alcotest.(check bool) "mean approx 2" true (Float.abs (Stats.mean xs -. 2.0) < 0.1);
  Alcotest.(check bool) "stddev approx 3" true (Float.abs (Stats.stddev xs -. 3.0) < 0.1)

let test_bernoulli () =
  let rng = Rng.create 19 in
  let n = 50_000 in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.bernoulli rng 0.3 then incr hits
  done;
  let rate = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "rate approx 0.3" true (Float.abs (rate -. 0.3) < 0.02)

let test_weighted_choice () =
  let rng = Rng.create 23 in
  let counts = Hashtbl.create 3 in
  for _ = 1 to 30_000 do
    let v = Rng.weighted_choice rng [ (1.0, "a"); (3.0, "b"); (0.0, "c") ] in
    Hashtbl.replace counts v (1 + Option.value ~default:0 (Hashtbl.find_opt counts v))
  done;
  let get k = Option.value ~default:0 (Hashtbl.find_opt counts k) in
  check Alcotest.int "zero-weight never picked" 0 (get "c");
  Alcotest.(check bool) "b approx 3x a" true
    (let ratio = float_of_int (get "b") /. float_of_int (get "a") in
     ratio > 2.6 && ratio < 3.4)

let test_weighted_choice_invalid () =
  let rng = Rng.create 1 in
  Alcotest.check_raises "all zero"
    (Invalid_argument "Rng.weighted_choice: no positive weight") (fun () ->
      ignore (Rng.weighted_choice rng [ (0.0, 1) ]))

let test_shuffle_permutation () =
  let rng = Rng.create 29 in
  let arr = Array.init 50 Fun.id in
  Rng.shuffle rng arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  check Alcotest.(array int) "same multiset" (Array.init 50 Fun.id) sorted

let test_sample_without_replacement () =
  let rng = Rng.create 31 in
  let arr = Array.init 20 Fun.id in
  let s = Rng.sample_without_replacement rng ~k:10 arr in
  check Alcotest.int "size" 10 (Array.length s);
  let distinct = Array.to_list s |> List.sort_uniq compare in
  check Alcotest.int "distinct" 10 (List.length distinct)

(* ---- Stats ---- *)

let test_mean_median () =
  checkf "mean" 2.5 (Stats.mean [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "median even" 2.5 (Stats.median [| 1.0; 2.0; 3.0; 4.0 |]);
  checkf "median odd" 3.0 (Stats.median [| 5.0; 1.0; 3.0 |])

let test_stddev () =
  checkf "constant array" 0.0 (Stats.stddev [| 3.0; 3.0; 3.0 |]);
  checkf "known" 2.0 (Stats.stddev [| 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 |])

let test_percentile () =
  let xs = Array.init 101 float_of_int in
  checkf "p0" 0.0 (Stats.percentile xs 0.0);
  checkf "p50" 50.0 (Stats.percentile xs 50.0);
  checkf "p100" 100.0 (Stats.percentile xs 100.0);
  checkf "p25" 25.0 (Stats.percentile xs 25.0)

let test_min_max () =
  let lo, hi = Stats.min_max [| 3.0; -1.0; 7.0 |] in
  checkf "min" (-1.0) lo;
  checkf "max" 7.0 hi

let test_welford_matches_batch () =
  let rng = Rng.create 37 in
  let xs = Array.init 1000 (fun _ -> Rng.float rng 10.0) in
  let w = Stats.Welford.create () in
  Array.iter (Stats.Welford.add w) xs;
  Alcotest.(check bool) "mean matches" true
    (Float.abs (Stats.Welford.mean w -. Stats.mean xs) < 1e-9);
  Alcotest.(check bool) "stddev matches" true
    (Float.abs (Stats.Welford.stddev w -. Stats.stddev xs) < 1e-9)

let test_histogram () =
  let h = Stats.histogram ~lo:0.0 ~hi:10.0 ~bins:5 [| 0.5; 1.5; 9.9; -3.0; 42.0 |] in
  check Alcotest.(array int) "buckets" [| 3; 0; 0; 0; 2 |] h

let test_int_histogram () =
  let h = Stats.int_histogram ~max_value:3 [| 0; 1; 1; 3; 9; -2 |] in
  check Alcotest.(array int) "buckets" [| 2; 2; 0; 2 |] h

let test_empty_raises () =
  Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty array")
    (fun () -> ignore (Stats.mean [||]))

(* ---- Text_table ---- *)

let test_table_render () =
  let t = Dt_util.Text_table.create [ "name"; "value" ] in
  Dt_util.Text_table.add_row t [ "alpha"; "1" ];
  Dt_util.Text_table.add_row t [ "b"; "22" ];
  let s = Dt_util.Text_table.render t in
  Alcotest.(check bool) "contains header" true (contains ~affix:"name" s);
  Alcotest.(check bool) "contains row" true (contains ~affix:"alpha" s)

let test_table_mismatch () =
  let t = Dt_util.Text_table.create [ "a"; "b" ] in
  Alcotest.check_raises "bad row"
    (Invalid_argument "Text_table.add_row: cell count mismatch") (fun () ->
      Dt_util.Text_table.add_row t [ "only-one" ])

(* ---- Json ---- *)

module Json = Dt_util.Json

let test_json_roundtrip () =
  let src =
    {|{"shards":3,"replica":2,"paths":["/tmp/a.sock","/tmp/b.sock"],
       "knobs":{"timeout_s":0.25,"verbose":false,"label":null},
       "name":"fleet A\n"}|}
  in
  let j = Json.parse src in
  check Alcotest.int "shards" 3
    (Json.get_int ~ctx:"shards" (Option.get (Json.member "shards" j)));
  check Alcotest.(list string) "paths"
    [ "/tmp/a.sock"; "/tmp/b.sock" ]
    (List.filter_map Json.to_str (Option.get (Json.to_list (Option.get (Json.member "paths" j)))));
  let knobs = Option.get (Json.member "knobs" j) in
  check (Alcotest.float 1e-12) "timeout" 0.25
    (Json.mem_num ~ctx:"knobs" "timeout_s" ~default:1.0 knobs);
  check Alcotest.(option bool) "verbose" (Some false)
    (Option.bind (Json.member "verbose" knobs) Json.to_bool);
  check Alcotest.bool "null" true (Json.member "label" knobs = Some Json.Null);
  check Alcotest.string "escapes decoded" "fleet A\n"
    (Json.get_str ~ctx:"name" (Option.get (Json.member "name" j)));
  (* print -> parse is the identity on the tree *)
  check Alcotest.bool "roundtrip" true (Json.parse (Json.to_string j) = j)

let test_json_numbers () =
  let num s = Json.to_num (Json.parse s) in
  check Alcotest.(option (float 1e-12)) "int" (Some 42.) (num "42");
  check Alcotest.(option (float 1e-12)) "neg frac" (Some (-0.5)) (num "-0.5");
  check Alcotest.(option (float 1e-9)) "exp" (Some 1500.) (num "1.5e3");
  check Alcotest.(option int) "to_int rejects frac" None
    (Json.to_int (Json.parse "1.5"));
  check Alcotest.string "integral prints bare" "7"
    (Json.to_string (Json.Num 7.))

let test_json_errors () =
  let bad s =
    match Json.parse s with
    | exception Json.Parse_error _ -> true
    | _ -> false
  in
  check Alcotest.bool "trailing garbage" true (bad "{} x");
  check Alcotest.bool "unterminated string" true (bad {|"abc|});
  check Alcotest.bool "missing colon" true (bad {|{"a" 1}|});
  check Alcotest.bool "bare word" true (bad "nope");
  check Alcotest.bool "unclosed list" true (bad "[1,2");
  check Alcotest.bool "mem_int wrong type" true
    (match Json.mem_int ~ctx:"spec" "n" ~default:0 (Json.parse {|{"n":"x"}|}) with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* ---- qcheck properties ---- *)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (array_of_size Gen.(int_range 1 50) (float_range (-100.) 100.))
              (pair (float_range 0. 100.) (float_range 0. 100.)))
    (fun (xs, (p1, p2)) ->
      QCheck.assume (Array.length xs > 0);
      let lo = Float.min p1 p2 and hi = Float.max p1 p2 in
      Stats.percentile xs lo <= Stats.percentile xs hi +. 1e-9)

let prop_shuffle_preserves =
  QCheck.Test.make ~name:"shuffle preserves elements" ~count:200
    QCheck.(pair small_int (array small_int))
    (fun (seed, arr) ->
      let rng = Rng.create seed in
      let a = Array.copy arr in
      Rng.shuffle rng a;
      List.sort compare (Array.to_list a)
      = List.sort compare (Array.to_list arr))

let prop_int_range =
  QCheck.Test.make ~name:"int_range stays in range" ~count:500
    QCheck.(triple small_int (int_range (-100) 100) (int_range 0 100))
    (fun (seed, lo, span) ->
      let rng = Rng.create seed in
      let v = Rng.int_range rng lo (lo + span) in
      v >= lo && v <= lo + span)

(* ---- Pool.default_domains ---- *)

let test_default_domains () =
  let recommended = Domain.recommended_domain_count () in
  let read v = Testkit.with_domains_env v Dt_util.Pool.default_domains in
  check Alcotest.int "empty is the recommended count" recommended (read "");
  check Alcotest.int "blank is the recommended count" recommended (read " ");
  check Alcotest.int "positive used as is" 3 (read "3");
  check Alcotest.int "surrounding blanks ignored" 2 (read " 2 ");
  let rejects what f =
    match f () with
    | n -> Alcotest.failf "%s: got %d, expected Invalid_argument" what n
    | exception Invalid_argument msg ->
        if
          not
            (contains ~affix:"DIFFTUNE_DOMAINS" msg && contains ~affix:what msg)
        then
          Alcotest.failf "message %S does not name DIFFTUNE_DOMAINS=%s" msg
            what
  in
  List.iter
    (fun v -> rejects (Printf.sprintf "%S" v) (fun () -> read v))
    [ "four"; "0"; "-2"; "2.5" ];
  (* Pool.create with no ?domains rejects it too, rather than running at
     the recommended count. *)
  rejects "\"0\"" (fun () ->
      Testkit.with_domains_env "0" (fun () ->
          let p = Dt_util.Pool.create () in
          Dt_util.Pool.shutdown p;
          Dt_util.Pool.size p))

let () =
  Alcotest.run "util"
    [
      ( "rng",
        [
          Alcotest.test_case "determinism" `Quick test_determinism;
          Alcotest.test_case "seeds differ" `Quick test_seeds_differ;
          Alcotest.test_case "split independent" `Quick test_split_independent;
          Alcotest.test_case "copy" `Quick test_copy;
          Alcotest.test_case "int bounds" `Quick test_int_bounds;
          Alcotest.test_case "int_range bounds" `Quick test_int_range_bounds;
          Alcotest.test_case "int rejects nonpositive" `Quick test_int_rejects_nonpositive;
          Alcotest.test_case "float bounds" `Quick test_float_bounds;
          Alcotest.test_case "int uniformity" `Quick test_int_uniformity;
          Alcotest.test_case "gaussian moments" `Quick test_gaussian_moments;
          Alcotest.test_case "bernoulli" `Quick test_bernoulli;
          Alcotest.test_case "weighted choice" `Quick test_weighted_choice;
          Alcotest.test_case "weighted invalid" `Quick test_weighted_choice_invalid;
          Alcotest.test_case "shuffle permutation" `Quick test_shuffle_permutation;
          Alcotest.test_case "sample without replacement" `Quick
            test_sample_without_replacement;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean/median" `Quick test_mean_median;
          Alcotest.test_case "stddev" `Quick test_stddev;
          Alcotest.test_case "percentile" `Quick test_percentile;
          Alcotest.test_case "min_max" `Quick test_min_max;
          Alcotest.test_case "welford" `Quick test_welford_matches_batch;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "int histogram" `Quick test_int_histogram;
          Alcotest.test_case "empty raises" `Quick test_empty_raises;
        ] );
      ( "text_table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "mismatch" `Quick test_table_mismatch;
        ] );
      ( "json",
        [
          Alcotest.test_case "roundtrip" `Quick test_json_roundtrip;
          Alcotest.test_case "numbers" `Quick test_json_numbers;
          Alcotest.test_case "errors" `Quick test_json_errors;
        ] );
      ( "pool",
        [ Alcotest.test_case "default domains" `Quick test_default_domains ] );
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_percentile_monotone; prop_shuffle_preserves; prop_int_range ]
      );
    ]
