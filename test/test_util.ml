(* Tests for the util library: the FNV-1a checksum, growable vectors,
   PRNG determinism, statistics, and table rendering. *)

open Util

let check_int = Alcotest.(check int)
let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* FNV-1a-64: known answers from the reference implementation *)

let test_fnv_known_answers () =
  List.iter
    (fun (input, want) ->
      Alcotest.(check string)
        (Printf.sprintf "fnv1a64 %S" input)
        want
        (Printf.sprintf "%016Lx" (Fnv.fnv1a64 input)))
    [ ("", "cbf29ce484222325"); ("a", "af63dc4c8601ec8c"); ("foobar", "85944171f73967e8") ];
  Alcotest.(check string) "prefix length" "af63dc4c8601ec8c"
    (Printf.sprintf "%016Lx" (Fnv.fnv1a64 ~len:1 "abc"))

(* ------------------------------------------------------------------ *)
(* Growvec *)

let test_growvec_push_get () =
  let v = Growvec.create ~dummy:0 () in
  for i = 0 to 99 do
    Growvec.push v (i * i)
  done;
  check_int "length" 100 (Growvec.length v);
  check_int "get 7" 49 (Growvec.get v 7);
  check_int "get 99" 9801 (Growvec.get v 99)

let test_growvec_bounds () =
  let v = Growvec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.check_raises "get -1" (Invalid_argument "Growvec: index -1 out of bounds [0,3)")
    (fun () -> ignore (Growvec.get v (-1)));
  Alcotest.check_raises "get 3" (Invalid_argument "Growvec: index 3 out of bounds [0,3)")
    (fun () -> ignore (Growvec.get v 3))

let test_growvec_pop () =
  let v = Growvec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Alcotest.(check (option int)) "top" (Some 3) (Growvec.top v);
  Alcotest.(check (option int)) "pop" (Some 3) (Growvec.pop v);
  Alcotest.(check (option int)) "pop" (Some 2) (Growvec.pop v);
  Alcotest.(check (option int)) "pop" (Some 1) (Growvec.pop v);
  Alcotest.(check (option int)) "pop empty" None (Growvec.pop v);
  Alcotest.(check bool) "is_empty" true (Growvec.is_empty v)

let test_growvec_clear_reuse () =
  let v = Growvec.of_list ~dummy:0 [ 1; 2; 3 ] in
  Growvec.clear v;
  check_int "cleared" 0 (Growvec.length v);
  Growvec.push v 42;
  check_int "reuse" 42 (Growvec.get v 0)

let test_growvec_iter_fold () =
  let v = Growvec.of_list ~dummy:0 [ 1; 2; 3; 4 ] in
  check_int "fold sum" 10 (Growvec.fold ( + ) 0 v);
  let seen = ref [] in
  Growvec.iteri (fun i x -> seen := (i, x) :: !seen) v;
  Alcotest.(check (list (pair int int)))
    "iteri order" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (List.rev !seen);
  Alcotest.(check (list int)) "to_list" [ 1; 2; 3; 4 ] (Growvec.to_list v);
  Alcotest.(check (array int)) "to_array" [| 1; 2; 3; 4 |] (Growvec.to_array v)

let test_growvec_find () =
  let v = Growvec.of_list ~dummy:0 [ 5; 8; 13 ] in
  Alcotest.(check bool) "exists even" true (Growvec.exists (fun x -> x mod 2 = 0) v);
  Alcotest.(check (option int)) "find >8" (Some 13) (Growvec.find_opt (fun x -> x > 8) v);
  Alcotest.(check (option int)) "find none" None (Growvec.find_opt (fun x -> x > 99) v);
  Alcotest.(check (list int)) "map" [ 10; 16; 26 ] (Growvec.map_to_list (fun x -> 2 * x) v)

let growvec_model =
  QCheck.Test.make ~name:"growvec behaves like a list"
    ~count:200
    QCheck.(list small_int)
    (fun ops ->
      let v = Growvec.create ~dummy:(-1) () in
      List.iter (Growvec.push v) ops;
      Growvec.to_list v = ops && Growvec.length v = List.length ops)

(* ------------------------------------------------------------------ *)
(* Prng *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next64 a) (Prng.next64 b)
  done

let test_prng_seed_sensitivity () =
  let a = Prng.create 1 and b = Prng.create 2 in
  Alcotest.(check bool) "different seeds differ" true (Prng.next64 a <> Prng.next64 b)

let test_prng_int_range () =
  let t = Prng.create 7 in
  for _ = 1 to 1000 do
    let x = Prng.int t 10 in
    Alcotest.(check bool) "in range" true (x >= 0 && x < 10)
  done;
  for _ = 1 to 1000 do
    let x = Prng.int_in t (-5) 5 in
    Alcotest.(check bool) "in closed range" true (x >= -5 && x <= 5)
  done

let test_prng_int_coverage () =
  let t = Prng.create 11 in
  let seen = Array.make 6 false in
  for _ = 1 to 300 do
    seen.(Prng.int t 6) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_prng_float_range () =
  let t = Prng.create 3 in
  for _ = 1 to 1000 do
    let x = Prng.float t 2.5 in
    Alcotest.(check bool) "float in range" true (x >= 0.0 && x < 2.5)
  done

let test_prng_invalid () =
  let t = Prng.create 0 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int t 0));
  Alcotest.check_raises "empty range" (Invalid_argument "Prng.int_in: empty range")
    (fun () -> ignore (Prng.int_in t 3 2));
  Alcotest.check_raises "empty choose" (Invalid_argument "Prng.choose: empty array")
    (fun () -> ignore (Prng.choose t [||]))

let test_prng_split_independent () =
  let t = Prng.create 5 in
  let u = Prng.split t in
  let xs = List.init 10 (fun _ -> Prng.next64 t) in
  let ys = List.init 10 (fun _ -> Prng.next64 u) in
  Alcotest.(check bool) "split streams differ" true (xs <> ys)

let test_prng_shuffle_permutation () =
  let t = Prng.create 9 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle t a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "is permutation" (Array.init 50 Fun.id) sorted

(* ------------------------------------------------------------------ *)
(* Stats *)

let test_stats_mean () =
  check_float "mean" 2.5 (Stats.mean [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "mean empty" 0.0 (Stats.mean [])

let test_stats_variance () =
  check_float "variance" 1.25 (Stats.variance [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "stddev" (sqrt 1.25) (Stats.stddev [ 1.0; 2.0; 3.0; 4.0 ]);
  check_float "variance singleton" 0.0 (Stats.variance [ 5.0 ])

let test_stats_minmax () =
  check_float "min" (-2.0) (Stats.minimum [ 3.0; -2.0; 7.0 ]);
  check_float "max" 7.0 (Stats.maximum [ 3.0; -2.0; 7.0 ]);
  Alcotest.check_raises "min empty" (Invalid_argument "Stats.minimum: empty list")
    (fun () -> ignore (Stats.minimum []))

let test_stats_percentile () =
  let xs = [ 1.0; 2.0; 3.0; 4.0; 5.0 ] in
  check_float "p0" 1.0 (Stats.percentile 0.0 xs);
  check_float "p50" 3.0 (Stats.percentile 50.0 xs);
  check_float "p100" 5.0 (Stats.percentile 100.0 xs);
  check_float "p25" 2.0 (Stats.percentile 25.0 xs);
  check_float "p10 interpolated" 1.4 (Stats.percentile 10.0 xs)

let test_stats_errors () =
  check_float "mae" 1.0 (Stats.mean_abs_error [ 1.0; 2.0 ] [ 2.0; 1.0 ]);
  check_float "rel" 0.5 (Stats.rel_error ~actual:1.5 ~expected:1.0);
  Alcotest.(check bool) "rel near zero finite" true
    (Float.is_finite (Stats.rel_error ~actual:1.0 ~expected:0.0))

let test_stats_linear_fit () =
  let slope, intercept = Stats.linear_fit [ (0.0, 1.0); (1.0, 3.0); (2.0, 5.0) ] in
  check_float "slope" 2.0 slope;
  check_float "intercept" 1.0 intercept

let stats_percentile_monotone =
  QCheck.Test.make ~name:"percentile is monotone in p" ~count:200
    QCheck.(pair (list_of_size Gen.(int_range 1 20) (float_bound_exclusive 100.0))
              (pair (float_bound_inclusive 100.0) (float_bound_inclusive 100.0)))
    (fun (xs, (p1, p2)) ->
      let lo = min p1 p2 and hi = max p1 p2 in
      Stats.percentile lo xs <= Stats.percentile hi xs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Table *)

let test_table_render () =
  let t = Table.create [ ("name", Table.Left); ("value", Table.Right) ] in
  Table.add_row t [ "alpha"; "1" ];
  Table.add_row t [ "b"; "22" ];
  let s = Table.render t in
  Alcotest.(check bool) "has header" true
    (String.length s > 0 && String.sub s 0 4 = "name");
  (* Right-aligned narrow cell is padded on the left: column widths
     are 5 ("alpha") and 5 ("value"), separated by two spaces. *)
  Alcotest.(check bool) "right aligned" true
    (let lines = String.split_on_char '\n' s in
     List.exists (fun l -> l = "b      " ^ "   22") lines)

let test_table_width_mismatch () =
  let t = Table.create [ ("a", Table.Left) ] in
  Alcotest.check_raises "row too wide"
    (Invalid_argument "Table.add_row: 2 cells, 1 columns") (fun () ->
      Table.add_row t [ "x"; "y" ])

let test_table_cells () =
  Alcotest.(check string) "cell_f" "1.500" (Table.cell_f 1.5);
  Alcotest.(check string) "cell_pct" "12.3%" (Table.cell_pct 12.34)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "util"
    [
      ("fnv", [ Alcotest.test_case "known answers" `Quick test_fnv_known_answers ]);
      ( "growvec",
        [
          Alcotest.test_case "push/get" `Quick test_growvec_push_get;
          Alcotest.test_case "bounds" `Quick test_growvec_bounds;
          Alcotest.test_case "pop/top" `Quick test_growvec_pop;
          Alcotest.test_case "clear/reuse" `Quick test_growvec_clear_reuse;
          Alcotest.test_case "iter/fold" `Quick test_growvec_iter_fold;
          Alcotest.test_case "find/exists/map" `Quick test_growvec_find;
          qt growvec_model;
        ] );
      ( "prng",
        [
          Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_prng_seed_sensitivity;
          Alcotest.test_case "int range" `Quick test_prng_int_range;
          Alcotest.test_case "int coverage" `Quick test_prng_int_coverage;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "invalid args" `Quick test_prng_invalid;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent;
          Alcotest.test_case "shuffle permutation" `Quick test_prng_shuffle_permutation;
        ] );
      ( "stats",
        [
          Alcotest.test_case "mean" `Quick test_stats_mean;
          Alcotest.test_case "variance" `Quick test_stats_variance;
          Alcotest.test_case "min/max" `Quick test_stats_minmax;
          Alcotest.test_case "percentile" `Quick test_stats_percentile;
          Alcotest.test_case "errors" `Quick test_stats_errors;
          Alcotest.test_case "linear fit" `Quick test_stats_linear_fit;
          qt stats_percentile_monotone;
        ] );
      ( "table",
        [
          Alcotest.test_case "render" `Quick test_table_render;
          Alcotest.test_case "width mismatch" `Quick test_table_width_mismatch;
          Alcotest.test_case "cells" `Quick test_table_cells;
        ] );
    ]
