(* Tests for the prof(1) baseline and its counter file. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_time = Alcotest.(check (float 1e-6))

let fixture () =
  let src =
    {|
fun busy(n) {
  var i;
  var s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i * i; }
  return s;
}
fun light(n) { return n + 1; }
fun main() {
  var r;
  var s = 0;
  for (r = 0; r < 400; r = r + 1) {
    s = s + busy(150);
    s = s + light(r);
  }
  return s % 100;
}
|}
  in
  let options =
    { Compile.Codegen.default_options with count = true; profile = false }
  in
  let o =
    match Compile.Codegen.compile_source ~options src with
    | Ok o -> o
    | Error e -> Alcotest.failf "compile: %s" e
  in
  let m = Vm.Machine.create o in
  (match Vm.Machine.run m with
  | Vm.Machine.Halted -> ()
  | _ -> Alcotest.fail "did not halt");
  (o, m)

let test_prof_analyze () =
  let o, m = fixture () in
  let g = Vm.Machine.profile m in
  let t =
    Profbase.Prof.analyze o ~hist:g.Gmon.hist ~counts:(Vm.Machine.pcounts m)
      ~ticks_per_second:60
  in
  (match t.rows with
  | busy :: _ ->
    Alcotest.(check string) "busy dominates" "busy" busy.r_name;
    check_int "busy calls" 400 busy.r_calls;
    check_bool "ms/call present" true (busy.r_ms_per_call <> None)
  | [] -> Alcotest.fail "no rows");
  let light = List.find (fun (r : Profbase.Prof.row) -> r.r_name = "light") t.rows in
  check_int "light calls counted though cheap" 400 light.r_calls;
  (* Self seconds sum to total. *)
  let sum = List.fold_left (fun a (r : Profbase.Prof.row) -> a +. r.r_seconds) 0.0 t.rows in
  check_time "rows sum to total" t.total_seconds (sum +. t.unattributed);
  check_bool "listing has header" true
    (String.length (Profbase.Prof.listing t) > 0)

let test_prof_counts_length_check () =
  let o, _ = fixture () in
  let hist = Gmon.make_hist ~lowpc:0 ~highpc:(Array.length o.Objcode.Objfile.text)
      ~bucket_size:1 in
  Alcotest.check_raises "length mismatch"
    (Invalid_argument "Prof.analyze: counts must have one entry per symbol")
    (fun () ->
      ignore (Profbase.Prof.analyze o ~hist ~counts:[| 1 |] ~ticks_per_second:60))

let test_profcounts_roundtrip () =
  let o, m = fixture () in
  let counts = Vm.Machine.pcounts m in
  match Profbase.Profcounts.of_string o (Profbase.Profcounts.to_string o counts) with
  | Ok c2 -> Alcotest.(check (array int)) "roundtrip" counts c2
  | Error e -> Alcotest.fail e

let test_profcounts_file_roundtrip () =
  let o, m = fixture () in
  let counts = Vm.Machine.pcounts m in
  let path = Filename.temp_file "prof" ".counts" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Profbase.Profcounts.save o counts path;
      match Profbase.Profcounts.load o path with
      | Ok c2 -> Alcotest.(check (array int)) "file roundtrip" counts c2
      | Error e -> Alcotest.fail e)

let test_profcounts_errors () =
  let o, _ = fixture () in
  List.iter
    (fun s ->
      match Profbase.Profcounts.of_string o s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted %S" s)
    [
      "";
      "WRONG";
      "PROFCOUNTS 1\nnope 3\nbusy 1\nlight 1\nmain 1";
      "PROFCOUNTS 1\nbusy x\nlight 1\nmain 1";
      "PROFCOUNTS 1\nbusy 1\nbusy 2\nlight 1\nmain 1";
      "PROFCOUNTS 1\nbusy 1\nlight 1" (* main missing *);
      "PROFCOUNTS 1\nbusy -1\nlight 1\nmain 1";
    ]

(* Two routines named [f], as an object may hold: each keeps its own
   count, the k-th [f] line belonging to the k-th routine named f. *)
let test_profcounts_duplicate_names () =
  let open Objcode.Instr in
  let o =
    {
      Objcode.Objfile.text =
        [| Pcount 0; Enter 0; Const 1; Ret;
           Pcount 1; Enter 0; Const 2; Ret;
           Pcount 2; Enter 0; Call (0, 0); Pop; Call (4, 0); Pop; Const 0; Ret |];
      symbols =
        [|
          { Objcode.Objfile.name = "f"; addr = 0; size = 4; profiled = false };
          { Objcode.Objfile.name = "f"; addr = 4; size = 4; profiled = false };
          { Objcode.Objfile.name = "main"; addr = 8; size = 8; profiled = false };
        |];
      entry = 8;
      globals = [||];
      global_init = [||];
      arrays = [||];
      lines = [||];
      source_name = "twof";
    }
  in
  let counts = [| 3; 4; 1 |] in
  let text = Profbase.Profcounts.to_string o counts in
  Alcotest.(check string) "one line per routine, in symbol order"
    "PROFCOUNTS 1\nf 3\nf 4\nmain 1\n" text;
  (match Profbase.Profcounts.of_string o text with
  | Ok c2 -> Alcotest.(check (array int)) "roundtrip" counts c2
  | Error e -> Alcotest.fail e);
  (match Profbase.Profcounts.of_string o "PROFCOUNTS 1\nmain 1\nf 3\nf 4\n" with
  | Ok c2 -> Alcotest.(check (array int)) "names in any order" counts c2
  | Error e -> Alcotest.fail e);
  Alcotest.(check (result (array int) string)) "a third f is a duplicate"
    (Error "duplicate entry for f")
    (Profbase.Profcounts.of_string o "PROFCOUNTS 1\nf 3\nf 4\nf 5\nmain 1\n");
  Alcotest.(check (result (array int) string)) "one f short"
    (Error "missing count for f")
    (Profbase.Profcounts.of_string o "PROFCOUNTS 1\nf 3\nmain 1\n")

(* prof vs gprof on the abstraction-spreading workload: both see the
   same self times; only gprof recovers inclusive cost. *)
let test_prof_vs_gprof_agree_on_self () =
  let options = { Compile.Codegen.profiling_options with count = true } in
  let r = Result.get_ok (Workloads.Driver.run ~options Workloads.Programs.matrix) in
  let prof =
    Profbase.Prof.analyze r.objfile ~hist:r.gmon.Gmon.hist
      ~counts:(Vm.Machine.pcounts r.machine)
      ~ticks_per_second:r.gmon.Gmon.ticks_per_second
  in
  let report = Result.get_ok (Gprof_core.Report.analyze r.objfile r.gmon) in
  let p = report.profile in
  List.iter
    (fun (row : Profbase.Prof.row) ->
      let e = p.entries.(row.r_id) in
      check_time (row.r_name ^ " self agrees") row.r_seconds e.e_self;
      check_int (row.r_name ^ " calls agree") row.r_calls
        (e.e_calls + e.e_self_calls))
    prof.rows

let () =
  Alcotest.run "prof"
    [
      ( "prof",
        [
          Alcotest.test_case "analyze" `Quick test_prof_analyze;
          Alcotest.test_case "length check" `Quick test_prof_counts_length_check;
          Alcotest.test_case "agrees with gprof self" `Quick
            test_prof_vs_gprof_agree_on_self;
        ] );
      ( "profcounts",
        [
          Alcotest.test_case "string roundtrip" `Quick test_profcounts_roundtrip;
          Alcotest.test_case "file roundtrip" `Quick test_profcounts_file_roundtrip;
          Alcotest.test_case "errors" `Quick test_profcounts_errors;
          Alcotest.test_case "duplicate names" `Quick test_profcounts_duplicate_names;
        ] );
    ]
