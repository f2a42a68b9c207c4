(* Tests for line-level profiling: the line table emitted by the
   compiler, the VM's exact instruction counts, the Icount data file,
   and the annotated-source listing. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let source =
  {|var total;

fun hot(x) {
  var i;
  var s = 0;
  for (i = 0; i < 40; i = i + 1) { s = s + x * i; }
  return s;
}

fun cold(x) {
  return x + 1;
}

fun main() {
  var k;
  for (k = 0; k < 2000; k = k + 1) { total = total + hot(k); }
  total = total + cold(7);
  print(total);
  return 0;
}
|}

let compile ?(options = Compile.Codegen.profiling_options) () =
  match Compile.Codegen.compile_source ~options source with
  | Ok o -> o
  | Error e -> Alcotest.failf "compile: %s" e

(* A default machine: every run keeps its exact instruction counts. *)
let run_default o =
  let m = Vm.Machine.create o in
  (match Vm.Machine.run m with
  | Vm.Machine.Halted -> ()
  | _ -> Alcotest.fail "did not halt");
  m

(* ------------------------------------------------------------------ *)
(* Line tables *)

let test_line_table_emitted () =
  let o = compile () in
  check_bool "line table nonempty" true (Array.length o.Objcode.Objfile.lines > 0);
  (match Objcode.Objfile.validate o with
  | Ok () -> ()
  | Error es -> Alcotest.fail (String.concat "; " es));
  (* The hot loop is on source line 6; its body instructions must map
     back to line 6. *)
  let ranges = Objcode.Objfile.addrs_of_line o 6 in
  check_bool "line 6 has code" true (ranges <> []);
  List.iter
    (fun (first, last) ->
      for a = first to last do
        Alcotest.(check (option int))
          (Printf.sprintf "addr %d maps to line 6" a)
          (Some 6)
          (Objcode.Objfile.line_of_addr o a)
      done)
    ranges

let test_line_table_covers_functions () =
  let o = compile () in
  (* every instruction of a compiled-from-source binary has a line *)
  Array.iteri
    (fun pc _ ->
      check_bool
        (Printf.sprintf "pc %d has a line" pc)
        true
        (Objcode.Objfile.line_of_addr o pc <> None))
    o.Objcode.Objfile.text

let test_line_table_roundtrips () =
  let o = compile () in
  match Objcode.Objfile.of_string (Objcode.Objfile.to_string o) with
  | Ok o2 ->
    check_bool "line table survives serialization" true
      (o.Objcode.Objfile.lines = o2.Objcode.Objfile.lines)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Instruction counts *)

let test_instruction_counts () =
  let o = compile () in
  let m = run_default o in
  let counts = Vm.Machine.instruction_counts m in
  (* hot's entry (the mcount instruction) runs once per call. *)
  let hot = Option.get (Objcode.Objfile.symbol_by_name o "hot") in
  check_int "hot entered 2000 times" 2000 counts.(hot.addr);
  let cold = Option.get (Objcode.Objfile.symbol_by_name o "cold") in
  check_int "cold entered once" 1 counts.(cold.addr);
  (* total executed instructions bounded by cycles *)
  let total = Array.fold_left ( + ) 0 counts in
  check_int "counts sum to the instructions executed"
    (Vm.Machine.instructions_executed m) total;
  check_bool "cycles exceed instruction count" true (Vm.Machine.cycles m >= total)

let test_icount_roundtrip () =
  let o = compile () in
  let m = run_default o in
  let ic = Gmon.Icount.of_counts (Vm.Machine.instruction_counts m) in
  (match Gmon.Icount.of_bytes (Gmon.Icount.to_bytes ic) with
  | Ok ic2 -> check_bool "roundtrip" true (Gmon.Icount.equal ic ic2)
  | Error e -> Alcotest.fail e);
  let path = Filename.temp_file "icount" ".bin" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      (match Gmon.Icount.save ic path with
      | Ok () -> ()
      | Error e -> Alcotest.fail e);
      match Gmon.Icount.load path with
      | Ok ic2 -> check_bool "file roundtrip" true (Gmon.Icount.equal ic ic2)
      | Error e -> Alcotest.fail e)

let test_icount_merge_and_errors () =
  let a = Gmon.Icount.of_counts [| 1; 0; 3 |] in
  let b = Gmon.Icount.of_counts [| 2; 5; 0 |] in
  (match Gmon.Icount.merge a b with
  | Ok m -> Alcotest.(check (array int)) "merged" [| 3; 5; 3 |] m.counts
  | Error e -> Alcotest.fail e);
  (match Gmon.Icount.merge a (Gmon.Icount.of_counts [| 1 |]) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "size mismatch accepted");
  (match Gmon.Icount.of_bytes "junk" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "junk accepted");
  Alcotest.check_raises "count bounds"
    (Invalid_argument "Icount.count: address out of range") (fun () ->
      ignore (Gmon.Icount.count a 3))

let icount_roundtrip_prop =
  QCheck.Test.make ~name:"icount binary round-trip" ~count:200
    QCheck.(list_of_size Gen.(int_range 1 60) (int_range 0 1000))
    (fun counts ->
      let ic = Gmon.Icount.of_counts (Array.of_list counts) in
      match Gmon.Icount.of_bytes (Gmon.Icount.to_bytes ic) with
      | Ok ic2 -> Gmon.Icount.equal ic ic2
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Annotated listings *)

let annotate () =
  let o = compile () in
  let m = run_default o in
  let gmon = Vm.Machine.profile m in
  let ic = Gmon.Icount.of_counts (Vm.Machine.instruction_counts m) in
  match Gprof_core.Annotate.analyze ~icounts:ic ~source o gmon with
  | Ok t -> t
  | Error e -> Alcotest.failf "annotate: %s" e

let test_annotate_basic () =
  let t = annotate () in
  check_int "one info per source line" (List.length (String.split_on_char '\n' source))
    (List.length t.infos);
  (* the hot loop line dominates *)
  (match Gprof_core.Annotate.hottest t 1 with
  | [ li ] ->
    check_int "hottest line is the loop" 6 li.li_line;
    check_bool "majority of time" true (li.li_ticks > 0.5 *. t.total_ticks);
    (match li.li_execs with
    | Some n -> check_int "loop entered once per call" 2000 n
    | None -> Alcotest.fail "execs missing")
  | _ -> Alcotest.fail "hottest empty");
  (* declaration-only and blank lines carry no code *)
  let info n = List.nth t.infos (n - 1) in
  check_bool "line 1 (global) has no code" false (info 1).li_has_code;
  check_bool "line 2 (blank) has no code" false (info 2).li_has_code;
  check_bool "line 16 (main loop) has code" true (info 16).li_has_code

let test_annotate_listing_renders () =
  let t = annotate () in
  let s = Gprof_core.Annotate.listing t in
  check_bool "mentions loop source" true
    (contains ~needle:"for (i = 0; i < 40; i = i + 1)" s);
  check_bool "headers" true (contains ~needle:"executions" s)

let test_annotate_without_counts () =
  let o = compile () in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  match Gprof_core.Annotate.analyze ~source o (Vm.Machine.profile m) with
  | Ok t ->
    List.iter
      (fun (li : Gprof_core.Annotate.line_info) ->
        check_bool "no exec column" true (li.li_execs = None))
      t.infos
  | Error e -> Alcotest.fail e

let test_annotate_requires_line_table () =
  let o = compile () in
  let o_stripped = { o with Objcode.Objfile.lines = [||] } in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  match Gprof_core.Annotate.analyze ~source o_stripped (Vm.Machine.profile m) with
  | Error e -> check_bool "explains" true (contains ~needle:"line table" e)
  | Ok _ -> Alcotest.fail "accepted a binary without line info"

let test_annotate_rejects_foreign_counts () =
  let o = compile () in
  let m = Vm.Machine.create o in
  ignore (Vm.Machine.run m);
  let bad = Gmon.Icount.of_counts [| 1; 2; 3 |] in
  match Gprof_core.Annotate.analyze ~icounts:bad ~source o (Vm.Machine.profile m) with
  | Error e -> check_bool "explains" true (contains ~needle:"different binary" e)
  | Ok _ -> Alcotest.fail "accepted counts for a different binary"

let test_annotate_tick_conservation () =
  let t = annotate () in
  let o = compile () in
  let m = run_default o in
  let gmon = Vm.Machine.profile m in
  check_bool "annotated ticks equal histogram ticks" true
    (abs_float (t.total_ticks -. float_of_int (Gmon.total_ticks gmon)) < 1e-6)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "annotate"
    [
      ( "lines",
        [
          Alcotest.test_case "emitted" `Quick test_line_table_emitted;
          Alcotest.test_case "covers all code" `Quick test_line_table_covers_functions;
          Alcotest.test_case "serialization" `Quick test_line_table_roundtrips;
        ] );
      ( "icount",
        [
          Alcotest.test_case "exact counts" `Quick test_instruction_counts;
          Alcotest.test_case "roundtrip" `Quick test_icount_roundtrip;
          Alcotest.test_case "merge and errors" `Quick test_icount_merge_and_errors;
          qt icount_roundtrip_prop;
        ] );
      ( "annotate",
        [
          Alcotest.test_case "basic" `Quick test_annotate_basic;
          Alcotest.test_case "listing" `Quick test_annotate_listing_renders;
          Alcotest.test_case "without counts" `Quick test_annotate_without_counts;
          Alcotest.test_case "requires line table" `Quick test_annotate_requires_line_table;
          Alcotest.test_case "foreign counts" `Quick test_annotate_rejects_foreign_counts;
          Alcotest.test_case "tick conservation" `Quick test_annotate_tick_conservation;
        ] );
    ]
