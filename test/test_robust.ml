(* Fault-injection harness for the profile data path.

   Emission: the crash-safe writer and the torn-write hook. Ingestion:
   truncation at every byte boundary and single-byte corruption at
   every position — the decoder must never raise, strict mode must
   reject with an offset-bearing error, and salvage mode must recover
   a valid sub-profile of what the intact file held. Summing: a
   quarantined batch must equal the sum of its good subset. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(lowpc = 0) ?(highpc = 12) ?(bucket = 1) ?(ticks = []) ?(arcs = [])
    ?(runs = 1) () =
  let hist = Gmon.make_hist ~lowpc ~highpc ~bucket_size:bucket in
  let counts = Array.copy hist.h_counts in
  List.iter (fun (b, c) -> counts.(b) <- c) ticks;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) arcs
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs;
  }

let sample =
  mk ~ticks:[ (0, 3); (4, 7); (11, 2) ]
    ~arcs:[ (1, 4, 9); (2, 8, 1); (5, 4, 3) ]
    ()

(* Magic (11 bytes) + six header fields + the stored bucket count:
   before this point nothing is recoverable, after it salvage always
   yields a profile. *)
let header_end = 11 + (7 * 8)

(* ... then twelve buckets and the stored arc count: a cut at or past
   this point has read the count, so every arc is accounted for. *)
let arc_count_end = header_end + (12 * 8) + 8

(* [sub] never invents data: same geometry, every bucket count and
   every arc bounded by (here: present in) the original. *)
let sub_profile (s : Gmon.t) (o : Gmon.t) =
  s.hist.h_lowpc = o.hist.h_lowpc
  && s.hist.h_highpc = o.hist.h_highpc
  && s.hist.h_bucket_size = o.hist.h_bucket_size
  && Array.for_all2 ( >= ) o.hist.h_counts s.hist.h_counts
  && List.for_all (fun a -> List.mem a o.Gmon.arcs) s.Gmon.arcs

let assert_valid what g =
  match Gmon.validate g with
  | Ok () -> ()
  | Error es -> Alcotest.failf "%s: invalid: %s" what (String.concat "; " es)

(* ------------------------------------------------------------------ *)
(* Ingestion: truncation at every byte boundary *)

let test_truncate_everywhere () =
  let bytes = Gmon.to_bytes sample in
  let len = String.length bytes in
  for cut = 0 to len - 1 do
    let s = String.sub bytes 0 cut in
    (match Gmon.decode ~mode:`Strict s with
    | Error e ->
      check_bool
        (Printf.sprintf "cut %d: strict offset in range" cut)
        true
        (e.de_offset >= 0 && e.de_offset <= cut)
    | Ok _ -> Alcotest.failf "cut %d: strict accepted a truncated file" cut);
    match Gmon.decode ~mode:`Salvage s with
    | Ok (g, rep) ->
      check_bool
        (Printf.sprintf "cut %d: salvage past header" cut)
        true (cut >= header_end);
      assert_valid (Printf.sprintf "cut %d" cut) g;
      check_bool
        (Printf.sprintf "cut %d: salvaged is a sub-profile" cut)
        true (sub_profile g sample);
      check_bool
        (Printf.sprintf "cut %d: report degraded" cut)
        true (Gmon.report_degraded rep);
      if cut >= arc_count_end then
        check_int
          (Printf.sprintf "cut %d: kept + dropped arcs = stored" cut)
          (List.length sample.arcs)
          (List.length g.arcs + rep.Gmon.r_dropped_arcs)
    | Error _ ->
      check_bool
        (Printf.sprintf "cut %d: only header damage is unrecoverable" cut)
        true (cut < header_end)
  done;
  (* the intact file is lossless in both modes *)
  match (Gmon.decode ~mode:`Strict bytes, Gmon.decode ~mode:`Salvage bytes) with
  | Ok (g1, r1), Ok (g2, r2) ->
    check_bool "strict roundtrip" true (Gmon.equal g1 sample);
    check_bool "salvage roundtrip" true (Gmon.equal g2 sample);
    check_bool "no strict losses" false (Gmon.report_degraded r1);
    check_bool "no salvage losses" false (Gmon.report_degraded r2)
  | _ -> Alcotest.fail "intact file rejected"

(* ------------------------------------------------------------------ *)
(* Ingestion: a flipped byte at every position *)

let test_flip_everywhere () =
  let bytes = Gmon.to_bytes sample in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    let s = Bytes.to_string b in
    (* the checksum footer catches every single-byte corruption *)
    (match Gmon.decode ~mode:`Strict s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flip %d: strict accepted corrupt bytes" i);
    match Gmon.decode ~mode:`Salvage s with
    | Ok (g, rep) ->
      assert_valid (Printf.sprintf "flip %d" i) g;
      check_bool
        (Printf.sprintf "flip %d: degradation reported" i)
        true (Gmon.report_degraded rep)
    | Error _ -> ()
  done

let test_strict_errors_carry_offsets () =
  (match Gmon.decode ~mode:`Strict "garbage" with
  | Error e ->
    check_int "magic offset" 0 e.Gmon.de_offset;
    Alcotest.(check string) "magic context" "magic" e.Gmon.de_context
  | Ok _ -> Alcotest.fail "garbage accepted");
  let bytes = Gmon.to_bytes sample in
  let cut = String.length bytes - 5 in
  match Gmon.decode ~path:"some.gmon" ~mode:`Strict (String.sub bytes 0 cut) with
  | Error e ->
    Alcotest.(check (option string)) "path carried" (Some "some.gmon") e.de_path;
    let s = Gmon.decode_error_to_string e in
    let has frag =
      let n = String.length frag and h = String.length s in
      let rec go i = i + n <= h && (String.sub s i n = frag || go (i + 1)) in
      go 0
    in
    check_bool "message names the file" true (has "some.gmon");
    check_bool "message has a byte offset" true (has "at byte ")
  | Ok _ -> Alcotest.fail "torn file accepted"

(* A flipped geometry field must not shift the record grid: with
   highpc raised from 12 to 20 the geometry implies 20 buckets, and
   reading on would take the stored count and all three arc records as
   buckets 12..19. The stored count is header, so both modes refuse
   it — strict too when the checksum is recomputed over the flip. *)
let test_header_flip_refused () =
  let b = Bytes.of_string (Gmon.to_bytes sample) in
  check_int "highpc byte" 12 (Char.code (Bytes.get b 19));
  Bytes.set b 19 (Char.chr 20);
  let flipped = Bytes.to_string b in
  let refooted =
    let buf = Buffer.create 256 in
    Buffer.add_string buf (String.sub flipped 0 (String.length flipped - 16));
    Gmon.Wire.add_footer buf;
    Buffer.contents buf
  in
  List.iter
    (fun (name, mode, s) ->
      match Gmon.decode ~mode s with
      | Ok (g, rep) ->
        Alcotest.failf "%s: accepted a %d-bucket profile (%s)" name
          (Array.length g.hist.h_counts) (Gmon.report_summary rep)
      | Error e ->
        check_int (name ^ ": offset") 59 e.de_offset;
        Alcotest.(check string) (name ^ ": context") "bucket count" e.de_context)
    [
      ("salvage", `Salvage, flipped);
      ("salvage, checksum recomputed", `Salvage, refooted);
      ("strict, checksum recomputed", `Strict, refooted);
    ]

(* ------------------------------------------------------------------ *)
(* Salvaged data keeps working downstream *)

let test_salvaged_merges_with_clean () =
  let bytes = Gmon.to_bytes sample in
  (* cut inside the bucket array: geometry survives, data is partial *)
  let cut = header_end + 8 + (5 * 8) + 3 in
  match Gmon.decode ~mode:`Salvage (String.sub bytes 0 cut) with
  | Error e -> Alcotest.fail (Gmon.decode_error_to_string e)
  | Ok (salvaged, rep) ->
    check_bool "buckets were zero-filled" true (rep.Gmon.r_dropped_buckets > 0);
    let clean = mk ~ticks:[ (0, 1); (7, 5) ] ~arcs:[ (1, 4, 2) ] () in
    (match Gmon.merge salvaged clean with
    | Error e -> Alcotest.failf "salvaged profile refused to merge: %s" e
    | Ok m ->
      assert_valid "salvaged+clean" m;
      check_int "ticks add" (Gmon.total_ticks salvaged + Gmon.total_ticks clean)
        (Gmon.total_ticks m))

(* ------------------------------------------------------------------ *)
(* Quarantined summing *)

let test_quarantine_equals_good_subset () =
  let a = mk ~ticks:[ (0, 5) ] ~arcs:[ (1, 4, 2) ] () in
  let b = mk ~ticks:[ (3, 7) ] ~arcs:[ (1, 4, 1); (2, 8, 9) ] () in
  let other_layout = mk ~highpc:99 () in
  match
    Gmon.merge_all_quarantine
      [
        ("a.gmon", Ok a);
        ("torn.gmon", Error "at byte 12: checksum footer: missing");
        ("b.gmon", Ok b);
        ("wrong.gmon", Ok other_layout);
      ]
  with
  | Error e -> Alcotest.fail e
  | Ok (sum, quarantined) ->
    (match Gmon.merge_all [ a; b ] with
    | Ok expected ->
      check_bool "sum equals sum of the good subset" true (Gmon.equal sum expected)
    | Error e -> Alcotest.fail e);
    Alcotest.(check (list string))
      "quarantined, in order"
      [ "torn.gmon"; "wrong.gmon" ]
      (List.map (fun (q : Gmon.quarantined) -> q.q_path) quarantined);
    List.iter
      (fun (q : Gmon.quarantined) ->
        check_bool "reason nonempty" true (q.q_reason <> ""))
      quarantined

let test_quarantine_edge_cases () =
  (match Gmon.merge_all_quarantine [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty batch accepted");
  match
    Gmon.merge_all_quarantine
      [ ("x.gmon", Error "bad"); ("y.gmon", Error "worse") ]
  with
  | Ok _ -> Alcotest.fail "all-quarantined batch produced a sum"
  | Error e ->
    let has frag =
      let n = String.length frag and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = frag || go (i + 1)) in
      go 0
    in
    check_bool "error lists the files" true (has "x.gmon" && has "y.gmon")

(* ------------------------------------------------------------------ *)
(* Emission: atomic writes and the torn-write hook *)

let in_tmpdir f =
  let dir = Filename.temp_file "robust" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter (fun n -> Sys.remove (Filename.concat dir n)) (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

let test_atomic_save () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "out.gmon" in
  (match Gmon.save sample path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  check_bool "no temp file left" false (Sys.file_exists (path ^ ".tmp"));
  (match Gmon.load path with
  | Ok g -> check_bool "roundtrip" true (Gmon.equal g sample)
  | Error e -> Alcotest.fail e);
  (* an unwritable destination is an Error, not an exception *)
  match Gmon.save sample (Filename.concat dir "no/such/dir/out.gmon") with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "save into a missing directory succeeded"

let test_torn_save () =
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "torn.gmon" in
  Gmon.inject_torn_save (Some 40);
  (match Gmon.save sample path with
  | Error e ->
    let has frag =
      let n = String.length frag and h = String.length e in
      let rec go i = i + n <= h && (String.sub e i n = frag || go (i + 1)) in
      go 0
    in
    check_bool "error says injected" true (has "fault injected")
  | Ok () -> Alcotest.fail "torn save reported success");
  check_int "exactly the torn prefix on disk" 40
    (In_channel.with_open_bin path (fun ic ->
         String.length (In_channel.input_all ic)));
  (match Gmon.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load accepted the torn file");
  (* the hook is one-shot: the retry is clean *)
  (match Gmon.save sample path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Gmon.load path with
  | Ok g -> check_bool "clean rewrite roundtrips" true (Gmon.equal g sample)
  | Error e -> Alcotest.fail e

let test_icount_robustness () =
  let ic = Gmon.Icount.of_counts [| 3; 0; 0; 7; 1 |] in
  let bytes = Gmon.Icount.to_bytes ic in
  for cut = 0 to String.length bytes - 1 do
    match Gmon.Icount.of_bytes (String.sub bytes 0 cut) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "icount cut %d accepted" cut
  done;
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    match Gmon.Icount.of_bytes (Bytes.to_string b) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "icount flip %d accepted" i
  done;
  in_tmpdir @@ fun dir ->
  let path = Filename.concat dir "ic.bin" in
  Gmon.inject_torn_save (Some 20);
  (match Gmon.Icount.save ic path with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "torn icount save reported success");
  (match Gmon.Icount.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "torn icount file accepted");
  (match Gmon.Icount.save ic path with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  match Gmon.Icount.load path with
  | Ok ic2 -> check_bool "icount roundtrip" true (Gmon.Icount.equal ic ic2)
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Ingestion from disk: mixed batches *)

let test_load_merge_mixed_batch () =
  in_tmpdir @@ fun dir ->
  let a = mk ~ticks:[ (0, 5) ] ~arcs:[ (1, 4, 2) ] () in
  let b = mk ~ticks:[ (3, 7) ] ~arcs:[ (2, 8, 1) ] () in
  let write name data =
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc data);
    path
  in
  let save name g =
    let path = Filename.concat dir name in
    match Gmon.save g path with
    | Ok () -> path
    | Error e -> Alcotest.fail e
  in
  let pa = save "a.gmon" a in
  let pb = save "b.gmon" b in
  let truncated = write "torn.gmon" (String.sub (Gmon.to_bytes a) 0 header_end) in
  let garbage = write "junk.gmon" "not a profile at all" in
  let salvaged_files = Obs.Metrics.counter Obs.Metrics.default "gmon.salvage.files" in
  let quarantined_files =
    Obs.Metrics.counter Obs.Metrics.default "gmon.quarantined_files"
  in
  let salvaged0 = Obs.Metrics.counter_value salvaged_files in
  let quarantined0 = Obs.Metrics.counter_value quarantined_files in
  (* gprofx --lenient's path: decode each file with its report, then
     sum what decodes and quarantine the rest *)
  let load_merge mode paths =
    let per_file = List.map (fun p -> (p, Gmon.load_report ~mode p)) paths in
    let reports =
      List.filter_map (function p, Ok (_, r) -> Some (p, r) | _, Error _ -> None) per_file
    in
    Gmon.merge_all_quarantine
      (List.map
         (fun (p, r) ->
           (p, Result.map_error Gmon.decode_error_to_string (Result.map fst r)))
         per_file)
    |> Result.map (fun (sum, quarantined) -> (sum, reports, quarantined))
  in
  (match load_merge `Salvage [ pa; truncated; pb; garbage ] with
  | Error e -> Alcotest.fail e
  | Ok (sum, reports, quarantined) ->
    Alcotest.(check (list string))
      "only the garbage is quarantined" [ garbage ]
      (List.map (fun (q : Gmon.quarantined) -> q.q_path) quarantined);
    (* the torn file salvages to all-zero buckets, so the sum equals
       the good subset's *)
    (match Gmon.merge_all [ a; b ] with
    | Ok good ->
      check_int "ticks = good subset's" (Gmon.total_ticks good)
        (Gmon.total_ticks sum);
      check_int "three files summed (runs)" 3 sum.Gmon.runs
    | Error e -> Alcotest.fail e);
    check_bool "torn file's report is degraded" true
      (List.exists
         (fun (p, r) -> p = truncated && Gmon.report_degraded r)
         reports);
    check_bool "salvage metrics advanced" true
      (Obs.Metrics.counter_value salvaged_files > salvaged0);
    check_bool "quarantine metrics advanced" true
      (Obs.Metrics.counter_value quarantined_files > quarantined0));
  (* strict mode quarantines the torn file too *)
  match load_merge `Strict [ pa; truncated; pb; garbage ] with
  | Error e -> Alcotest.fail e
  | Ok (sum, _, quarantined) ->
    Alcotest.(check (list string))
      "strict quarantines both damaged files" [ truncated; garbage ]
      (List.map (fun (q : Gmon.quarantined) -> q.q_path) quarantined);
    check_int "two files summed (runs)" 2 sum.Gmon.runs

(* ------------------------------------------------------------------ *)
(* The VM-side fault hook *)

let compile_src src =
  match
    Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options src
  with
  | Ok o -> o
  | Error e -> Alcotest.failf "compile: %s" e

let looping_src =
  {|
fun spin(n) {
  var i;
  var s = 0;
  for (i = 0; i < n; i = i + 1) { s = s + i; }
  return s;
}
fun main() {
  var r;
  var s = 0;
  for (r = 0; r < 100; r = r + 1) { s = s + spin(50); }
  return s % 1000;
}
|}

let test_vm_fault_injection () =
  let o = compile_src looping_src in
  let run budget =
    let m =
      Vm.Machine.create
        ~config:{ Vm.Machine.default_config with fault_after_instr = budget }
        o
    in
    (Vm.Machine.run m, m)
  in
  (match run (Some 1_000) with
  | Vm.Machine.Faulted f, m ->
    Alcotest.(check string)
      "injected reason" Vm.Machine.injected_fault_reason f.reason;
    (* the profile gathered up to the fault still condenses cleanly *)
    assert_valid "profile at fault" (Vm.Machine.profile m)
  | _ -> Alcotest.fail "expected the injected fault");
  (match run (Some 0) with
  | Vm.Machine.Faulted f, _ ->
    Alcotest.(check string)
      "immediate fault" Vm.Machine.injected_fault_reason f.reason
  | _ -> Alcotest.fail "budget 0 must fault before the first instruction");
  match run None with
  | Vm.Machine.Halted, _ -> ()
  | _ -> Alcotest.fail "no budget must run to completion"

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "robust"
    [
      ( "ingestion",
        [
          Alcotest.test_case "truncate everywhere" `Quick test_truncate_everywhere;
          Alcotest.test_case "flip everywhere" `Quick test_flip_everywhere;
          Alcotest.test_case "errors carry offsets" `Quick
            test_strict_errors_carry_offsets;
          Alcotest.test_case "header flip refused" `Quick test_header_flip_refused;
          Alcotest.test_case "salvaged merges with clean" `Quick
            test_salvaged_merges_with_clean;
        ] );
      ( "summing",
        [
          Alcotest.test_case "quarantine = good subset" `Quick
            test_quarantine_equals_good_subset;
          Alcotest.test_case "quarantine edge cases" `Quick
            test_quarantine_edge_cases;
          Alcotest.test_case "mixed batch from disk" `Quick
            test_load_merge_mixed_batch;
        ] );
      ( "emission",
        [
          Alcotest.test_case "atomic save" `Quick test_atomic_save;
          Alcotest.test_case "torn save" `Quick test_torn_save;
          Alcotest.test_case "icount robustness" `Quick test_icount_robustness;
        ] );
      ( "vm",
        [
          Alcotest.test_case "fault after N instructions" `Quick
            test_vm_fault_injection;
        ] );
    ]
