(* End-to-end tests of the command-line tools, driving the real
   binaries the way a user would: compile, run, post-process, diff,
   and control at run time. Paths to the executables are passed by
   dune through environment variables (see test/dune). *)

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let exe name =
  match Sys.getenv_opt ("CLI_" ^ String.uppercase_ascii name) with
  | Some p -> p
  | None -> Alcotest.failf "CLI_%s not set" (String.uppercase_ascii name)

(* Every file a case writes lands in the working directory
   (_build/default/test), which outlives the run, so CI can upload a
   failed case's logs and reports; dune deletes the TMPDIR it gives
   each action. *)
let path name = "cli_test_" ^ name

(* the offset of the first [needle] in [haystack] *)
let find ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i =
    if i + nl > hl then None
    else if String.sub haystack i nl = needle then Some i
    else go (i + 1)
  in
  go 0

let contains ~needle haystack = find ~needle haystack <> None

let parse_json what text =
  match Obs.Jsonin.parse text with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what e

(* The value at a path of object keys, converted by [conv] (one of the
   Obs.Jsonin accessors); fails the case naming the path. *)
let field conv v keys =
  let name = String.concat "." keys in
  let at =
    List.fold_left
      (fun v k ->
        match Obs.Jsonin.member k v with
        | Some v -> v
        | None -> Alcotest.failf "JSON lacks %s" name)
      v keys
  in
  match conv at with Some x -> x | None -> Alcotest.failf "%s has the wrong type" name

(* Run a command, capture stdout, return (exit code, stdout). *)
let run_cmd args =
  let out = path "stdout.txt" in
  let cmd =
    String.concat " " (List.map Filename.quote args)
    ^ " > " ^ Filename.quote out ^ " 2> " ^ Filename.quote (path "stderr.txt")
  in
  let code = Sys.command cmd in
  let stdout = In_channel.with_open_text out In_channel.input_all in
  (code, stdout)

let source =
  {|
var total;

fun square(x) { return x * x; }

fun helper(x) {
  var i;
  var s = 0;
  for (i = 0; i < 25; i = i + 1) { s = s + square(x + i); }
  return s;
}

fun main() {
  var k;
  for (k = 0; k < 4000; k = k + 1) { total = total + helper(k); }
  print(total);
  return 0;
}
|}

let write_source () =
  let src = path "prog.mini" in
  Out_channel.with_open_text src (fun oc -> Out_channel.output_string oc source);
  src

let test_compile_run_analyze () =
  let src = write_source () in
  let obj = path "prog.obj" and gmon = path "prog.gmon" in
  let counts = path "prog.counts" and icount = path "prog.icount" in
  let code, _ =
    run_cmd [ exe "minic"; src; "--pg"; "-p"; "-o"; obj ]
  in
  check_int "minic exits 0" 0 code;
  check_bool "object file written" true (Sys.file_exists obj);
  let code, out =
    run_cmd
      [ exe "minirun"; obj; "--gmon"; gmon; "--prof-out"; counts;
        "--icount"; icount ]
  in
  check_int "minirun exits 0" 0 code;
  check_bool "program output printed" true (String.length (String.trim out) > 0);
  check_bool "gmon written" true (Sys.file_exists gmon);
  (* gprofx: full listing with annotation *)
  let code, out =
    run_cmd
      [ exe "gprofx"; obj; gmon; "--annotate"; src; "--icount"; icount; "-v" ]
  in
  check_int "gprofx exits 0" 0 code;
  List.iter
    (fun needle -> check_bool needle true (contains ~needle out))
    [ "call graph profile"; "flat profile"; "helper"; "index by function name";
      "executions"; "% time" ];
  (* profx over the same data *)
  let code, out = run_cmd [ exe "profx"; obj; gmon; counts ] in
  check_int "profx exits 0" 0 code;
  check_bool "prof shows calls" true (contains ~needle:"4000" out)

let test_multirun_merge_cli () =
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let g1 = path "r1.gmon" and g2 = path "r2.gmon" in
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g1; "-q"; "--seed"; "1" ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g2; "-q"; "--seed"; "2" ]);
  let code, out = run_cmd [ exe "gprofx"; obj; g1; g2; "--flat" ] in
  check_int "summed analysis exits 0" 0 code;
  (* two identical runs: the merged total is twice a single run's *)
  let single = Result.get_ok (Gmon.load g1) in
  let merged_seconds =
    2.0 *. Gmon.total_seconds single
  in
  check_bool "flat mentions helper" true (contains ~needle:"helper" out);
  check_bool "merged time doubled" true
    (contains ~needle:(Printf.sprintf "%.2f" merged_seconds) out)

let test_profdiff_cli () =
  let src = write_source () in
  let obj_a = path "a.obj" and obj_b = path "b.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj_a ]);
  ignore (run_cmd [ exe "minic"; src; "--pg"; "--inline"; "square"; "-o"; obj_b ]);
  let ga = path "a.gmon" and gb = path "b.gmon" in
  ignore (run_cmd [ exe "minirun"; obj_a; "--gmon"; ga; "-q" ]);
  ignore (run_cmd [ exe "minirun"; obj_b; "--gmon"; gb; "-q" ]);
  let code, out = run_cmd [ exe "profdiff"; obj_a; ga; obj_b; gb ] in
  check_int "profdiff exits 0" 0 code;
  check_bool "square reported gone" true (contains ~needle:"[gone]" out);
  check_bool "total improved" true (contains ~needle:"profile diff" out)

let test_kgmonx_cli () =
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let w1 = path "w1.gmon" and w2 = path "w2.gmon" in
  let code, _ =
    run_cmd
      [ exe "kgmonx"; obj;
        Printf.sprintf "off; run 400000; on; run 1500000; dump %s; reset; run-to-end; dump %s"
          w1 w2;
        "-q" ]
  in
  check_int "kgmonx exits 0" 0 code;
  let g1 = Result.get_ok (Gmon.load w1) in
  let g2 = Result.get_ok (Gmon.load w2) in
  check_bool "first window gathered while on" true (Gmon.total_ticks g1 > 0);
  check_bool "second window disjoint and nonempty" true (Gmon.total_ticks g2 > 0)

let test_obs_flags () =
  let src = write_source () in
  let obj = path "prog.obj" and gmon = path "prog.gmon" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let vm_metrics = path "vm_metrics.json" in
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "--gmon"; gmon; "-q"; "--obs-metrics"; vm_metrics ]
  in
  check_int "minirun --obs-metrics exits 0" 0 code;
  let vm_json = In_channel.with_open_text vm_metrics In_channel.input_all in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle vm_json))
    [ "\"gauges\"";       (* registry structure *)
      "\"vm.instructions\""; "\"vm.dispatch.call\""; (* the machine *)
      "\"monitor.records\""; "\"monitor.probe_depth\""; (* mcount *)
      "\"profil.ticks\"";   (* the histogram sampler *)
      "\"gmon.bytes_written\"" (* the codec *) ];
  let metrics = path "gprofx_metrics.json" and trace = path "gprofx_trace.json" in
  let code, _ =
    run_cmd
      [ exe "gprofx"; obj; gmon; "--obs-metrics"; metrics; "--obs-trace"; trace ]
  in
  check_int "gprofx --obs-* exits 0" 0 code;
  let trace_json = In_channel.with_open_text trace In_channel.input_all in
  List.iter
    (fun needle -> check_bool needle true (contains ~needle trace_json))
    [ "\"traceEvents\":["; "\"ph\":\"X\"";
      "\"name\":\"symtab\""; "\"name\":\"arcgraph\""; "\"name\":\"propagate\"";
      "\"name\":\"flat\""; "\"name\":\"gmon-load\"" ];
  check_bool "gprofx metrics mention the gmon codec" true
    (contains ~needle:"\"gmon.bytes_read\""
       (In_channel.with_open_text metrics In_channel.input_all));
  (* --obs-metrics /dev/stdout appends the metrics JSON after the report *)
  let code, out =
    run_cmd [ exe "gprofx"; obj; gmon; "--obs-metrics"; "/dev/stdout" ]
  in
  check_int "gprofx --obs-metrics /dev/stdout exits 0" 0 code;
  (match
     ( find ~needle:"call graph profile" out,
       find ~needle:"\"gmon.bytes_read\"" out )
   with
  | Some report, Some metrics ->
    check_bool "metrics JSON follows the report" true (report < metrics)
  | _ -> Alcotest.fail "stdout lacks the report or the metrics JSON");
  (* --self-profile prints the span summary on stdout after the report. *)
  let code, out = run_cmd [ exe "gprofx"; obj; gmon; "--flat"; "--self-profile" ] in
  check_int "gprofx --self-profile exits 0" 0 code;
  check_bool "self-profile table printed" true
    (contains ~needle:"gprofx self-profile" out && contains ~needle:"analyze" out)

let stderr_text () =
  In_channel.with_open_text (path "stderr.txt") In_channel.input_all

let test_robust_cli () =
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let g1 = path "c1.gmon" and g2 = path "c2.gmon" in
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g1; "-q"; "--seed"; "1" ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g2; "-q"; "--seed"; "2" ]);
  (* a torn copy (valid header, truncated data) and an undecodable one *)
  let torn = path "torn.gmon" and junk = path "junk.gmon" in
  let bytes = In_channel.with_open_bin g1 In_channel.input_all in
  Out_channel.with_open_bin torn (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 150));
  Out_channel.with_open_text junk (fun oc ->
      Out_channel.output_string oc "this is not profile data");
  (* strict (the default): the torn file fails the whole run, with an
     offset-bearing diagnostic *)
  let code, _ = run_cmd [ exe "gprofx"; obj; g1; torn; "--flat" ] in
  check_int "strict run exits 1" 1 code;
  check_bool "strict error names the file and offset" true
    (let err = stderr_text () in
     contains ~needle:"torn.gmon" err && contains ~needle:"at byte" err);
  (* lenient: the batch degrades instead of failing — salvage the torn
     file, quarantine the undecodable one, and say so *)
  let code, out =
    run_cmd [ exe "gprofx"; obj; g1; torn; g2; junk; "--lenient"; "--flat" ]
  in
  check_int "lenient run exits 2 (degraded)" 2 code;
  check_bool "listing still produced" true (contains ~needle:"helper" out);
  let err = stderr_text () in
  check_bool "quarantine reported per file" true
    (contains ~needle:"quarantined" err && contains ~needle:"junk.gmon" err);
  check_bool "salvage reported per file" true
    (contains ~needle:"salvaged" err && contains ~needle:"torn.gmon" err);
  (* clean data under --lenient is not degraded *)
  let code, _ = run_cmd [ exe "gprofx"; obj; g1; g2; "--lenient"; "--flat" ] in
  check_int "lenient over clean data exits 0" 0 code;
  (* truncation mid-header, mid-data and inside the checksum footer:
     strict refuses each; --lenient quarantines or salvages, exit 2 *)
  let write name data =
    let p = path name in
    Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc data);
    p
  in
  List.iter
    (fun n ->
      let cut = write (Printf.sprintf "torn_%d.gmon" n) (String.sub bytes 0 n) in
      let code, _ = run_cmd [ exe "gprofx"; obj; cut ] in
      check_int (Printf.sprintf "strict refuses a %d-byte cut" n) 1 code;
      let code, _ = run_cmd [ exe "gprofx"; obj; g1; cut; "--lenient" ] in
      check_int (Printf.sprintf "lenient degrades on a %d-byte cut" n) 2 code;
      let err = stderr_text () in
      check_bool
        (Printf.sprintf "%d-byte cut quarantined or salvaged" n)
        true
        (contains ~needle:"quarantined" err || contains ~needle:"salvaged" err))
    [ 40; 150; String.length bytes - 7 ];
  (* a torn sampled profile: refused strictly, salvaged under --lenient *)
  let sp = path "c1.sprof" in
  ignore
    (run_cmd
       [ exe "minirun"; obj; "-q"; "--seed"; "1"; "--gmon"; path "c1s.gmon";
         "--sample-ticks"; "1"; "--sample-out"; sp ]);
  let torn_sp =
    write "torn.sprof" (String.sub (In_channel.with_open_bin sp In_channel.input_all) 0 80)
  in
  let code, _ = run_cmd [ exe "gprofx"; obj; torn_sp ] in
  check_bool "strict refuses a torn sprof" true (code <> 0);
  let code, _ = run_cmd [ exe "gprofx"; obj; torn_sp; "--lenient" ] in
  check_int "lenient torn sprof exits 2" 2 code;
  (* emission-side injection: a VM fault still flushes a loadable
     profile; a torn save fails loudly and leaves a rejectable file *)
  let gf = path "faulted.gmon" in
  let code, _ =
    run_cmd [ exe "minirun"; obj; "--gmon"; gf; "-q"; "--fault-after"; "200000" ]
  in
  check_int "injected VM fault exits 125" 125 code;
  check_bool "fault reported" true (contains ~needle:"fault injected" (stderr_text ()));
  (match Gmon.load gf with
  | Ok g -> check_bool "flushed profile is nonempty" true (Gmon.total_ticks g > 0)
  | Error e -> Alcotest.fail e);
  (* a program's own fault keeps the output printed before it *)
  let bad_src = path "index_fault.mini" and bad_obj = path "index_fault.obj" in
  Out_channel.with_open_text bad_src (fun oc ->
      Out_channel.output_string oc
        "array a[2]; fun main() { print(5); print(a[7]); return 0; }");
  ignore (run_cmd [ exe "minic"; bad_src; "-o"; bad_obj ]);
  let code, out = run_cmd [ exe "minirun"; bad_obj; "--gmon"; path "index_fault.gmon" ] in
  check_int "index fault exits 125" 125 code;
  Alcotest.(check string) "output before the fault printed" "5\n" out;
  check_bool "index fault reported" true
    (contains ~needle:"index 7 out of bounds" (stderr_text ()));
  let gt = path "tornsave.gmon" in
  let code, _ =
    run_cmd [ exe "minirun"; obj; "--gmon"; gt; "-q"; "--torn-save"; "50" ]
  in
  check_int "torn save exits 1" 1 code;
  check_bool "torn save reported" true
    (contains ~needle:"fault injected" (stderr_text ()));
  match Gmon.load gt with
  | Error e -> check_bool "torn file rejected with offset" true (contains ~needle:"at byte" e)
  | Ok _ -> Alcotest.fail "torn file loaded"

let test_epoch_cli () =
  let src = write_source () in
  let obj = path "prog.obj" and gmon = path "prog.gmon" in
  let epochs = path "prog.epochs" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "--gmon"; gmon; "--epoch-ticks"; "8";
        "--epochs"; epochs; "-q" ]
  in
  check_int "minirun --epoch-ticks exits 0" 0 code;
  check_bool "epoch container written" true (Sys.file_exists epochs);
  check_bool "epoch count reported" true
    (contains ~needle:"epoch(s) written" (stderr_text ()));
  (* the container's sum is bit-identical to the whole-run profile *)
  let c = Result.get_ok (Gmon.Epoch.load epochs) in
  check_bool "several epochs recorded" true (Gmon.Epoch.n_epochs c > 1);
  let whole = Result.get_ok (Gmon.load gmon) in
  let summed = Result.get_ok (Gmon.Epoch.sum c) in
  check_bool "sum of epochs is bit-identical to the run profile" true
    (Gmon.to_bytes summed = Gmon.to_bytes whole);
  (* gprofx accepts the container wherever a gmon file goes: the
     analysis of the summed container matches the plain profile's *)
  let _, flat_gmon = run_cmd [ exe "gprofx"; obj; gmon; "--flat" ] in
  let code, flat_epochs = run_cmd [ exe "gprofx"; obj; epochs; "--flat" ] in
  check_int "gprofx over the container exits 0" 0 code;
  check_bool "same flat profile from either file" true (flat_gmon = flat_epochs);
  (* single-window selection *)
  let code, out = run_cmd [ exe "gprofx"; obj; epochs; "--epoch"; "1"; "--flat" ] in
  check_int "--epoch 1 exits 0" 0 code;
  check_bool "window listing mentions a routine" true (contains ~needle:"helper" out);
  let code, _ = run_cmd [ exe "gprofx"; obj; epochs; "--epoch"; "999"; "--flat" ] in
  check_int "--epoch out of range exits 1" 1 code;
  let code, _ = run_cmd [ exe "gprofx"; obj; gmon; "--epoch"; "1"; "--flat" ] in
  check_int "--epoch on a plain profile exits 1" 1 code;
  (* the timeline digest *)
  let code, out = run_cmd [ exe "gprofx"; obj; epochs; "--timeline" ] in
  check_int "--timeline exits 0" 0 code;
  check_bool "digest header" true (contains ~needle:"timeline:" out);
  check_bool "windows listed" true (contains ~needle:"epoch 1 " out);
  let code, _ = run_cmd [ exe "gprofx"; obj; gmon; "--timeline" ] in
  check_int "--timeline rejects a plain profile" 1 code

let test_export_formats_cli () =
  let src = write_source () in
  let obj = path "prog.obj" and gmon = path "prog.gmon" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; gmon; "-q" ]);
  let code, out = run_cmd [ exe "gprofx"; obj; gmon; "--format"; "flame" ] in
  check_int "flame exits 0" 0 code;
  check_bool "folded stack line" true (contains ~needle:"main;helper;square " out);
  let code, out = run_cmd [ exe "gprofx"; obj; gmon; "--format"; "callgrind" ] in
  check_int "callgrind exits 0" 0 code;
  check_bool "callgrind header" true (contains ~needle:"# callgrind format" out);
  check_bool "callgrind events" true (contains ~needle:"events: ticks" out);
  check_bool "callgrind fn record" true (contains ~needle:"fn=helper" out);
  let code, out = run_cmd [ exe "gprofx"; obj; gmon; "--format"; "json" ] in
  check_int "json exits 0" 0 code;
  check_bool "schema tag" true (contains ~needle:"\"gprof-repro.report/1\"" out);
  check_bool "flat rows" true (contains ~needle:"\"flat\":[{" out);
  let code, _ = run_cmd [ exe "gprofx"; obj; gmon; "--format"; "nonsense" ] in
  check_bool "unknown format rejected" true (code <> 0);
  (* the sampled pipeline: a stack-sampled run renders a flat listing
     and folded stacks, and pairs with its own arc profile in the
     divergence report *)
  let sgmon = path "sampled.gmon" and sprof = path "sampled.sprof" in
  ignore
    (run_cmd
       [ exe "minirun"; obj; "--gmon"; sgmon; "-q"; "--sample-ticks"; "1";
         "--sample-out"; sprof ]);
  let code, out = run_cmd [ exe "gprofx"; obj; sprof ] in
  check_int "sampled listing exits 0" 0 code;
  check_bool "sampled flat listing" true
    (contains ~needle:"call-stack samples:" out);
  let code, out = run_cmd [ exe "gprofx"; obj; sprof; "--format"; "flame" ] in
  check_int "sampled flame exits 0" 0 code;
  check_bool "observed folded stack" true
    (contains ~needle:"main;helper;square " out);
  let code, out = run_cmd [ exe "gprofx"; "--divergence"; obj; sgmon; sprof ] in
  check_int "divergence exits 0" 0 code;
  check_bool "divergence header" true
    (contains ~needle:"divergence: gprof propagated vs stack samples" out)

let test_lenient_flags_cli () =
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-p"; "-o"; obj ]);
  let g = path "l1.gmon" and counts = path "l1.counts" in
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g; "--prof-out"; counts; "-q" ]);
  let torn = path "l_torn.gmon" in
  let bytes = In_channel.with_open_bin g In_channel.input_all in
  Out_channel.with_open_bin torn (fun oc ->
      Out_channel.output_string oc (String.sub bytes 0 150));
  (* profx: strict rejects the torn file, lenient degrades to exit 2 *)
  let code, _ = run_cmd [ exe "profx"; obj; torn; counts ] in
  check_int "profx strict exits 1" 1 code;
  let code, out = run_cmd [ exe "profx"; obj; torn; counts; "--lenient" ] in
  check_int "profx lenient exits 2" 2 code;
  check_bool "profx salvage reported" true
    (contains ~needle:"salvaged" (stderr_text ()));
  check_bool "profx listing still printed" true (contains ~needle:"name" out);
  let code, _ = run_cmd [ exe "profx"; obj; g; counts; "--lenient" ] in
  check_int "profx lenient over clean data exits 0" 0 code;
  (* profdiff: same ladder *)
  let code, _ = run_cmd [ exe "profdiff"; obj; g; obj; torn ] in
  check_int "profdiff strict exits 1" 1 code;
  let code, out = run_cmd [ exe "profdiff"; obj; g; obj; torn; "--lenient" ] in
  check_int "profdiff lenient exits 2" 2 code;
  check_bool "profdiff salvage reported" true
    (contains ~needle:"salvaged" (stderr_text ()));
  check_bool "profdiff still diffs" true (contains ~needle:"profile diff" out);
  let code, _ = run_cmd [ exe "profdiff"; obj; g; obj; g; "--lenient" ] in
  check_int "profdiff lenient over clean data exits 0" 0 code

(* The same program with a 4x hotter helper loop: the regression
   profwatch must flag. *)
let slow_source =
  {|
var total;

fun square(x) { return x * x; }

fun helper(x) {
  var i;
  var s = 0;
  for (i = 0; i < 100; i = i + 1) { s = s + square(x + i); }
  return s;
}

fun main() {
  var k;
  for (k = 0; k < 4000; k = k + 1) { total = total + helper(k); }
  print(total);
  return 0;
}
|}

let rec rm_rf p =
  if Sys.is_directory p then begin
    Array.iter (fun f -> rm_rf (Filename.concat p f)) (Sys.readdir p);
    Sys.rmdir p
  end
  else Sys.remove p

let test_profwatch_cli () =
  let src = write_source () in
  let slow_src = path "slow.mini" in
  Out_channel.with_open_text slow_src (fun oc ->
      Out_channel.output_string oc slow_source);
  let fast_obj = path "watch_fast.obj" and slow_obj = path "watch_slow.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; fast_obj ]);
  ignore (run_cmd [ exe "minic"; slow_src; "--pg"; "-o"; slow_obj ]);
  let steady = path "watch_steady" and hot = path "watch_hot" in
  List.iter (fun d -> if Sys.file_exists d then rm_rf d) [ steady; hot ];
  Sys.mkdir steady 0o755;
  Sys.mkdir hot 0o755;
  (* steady: two runs of the same build *)
  ignore
    (run_cmd
       [ exe "minirun"; fast_obj; "--gmon";
         Filename.concat steady "run-001.gmon"; "-q"; "--seed"; "1" ]);
  ignore
    (run_cmd
       [ exe "minirun"; fast_obj; "--gmon";
         Filename.concat steady "run-002.gmon"; "-q"; "--seed"; "2" ]);
  let code, out = run_cmd [ exe "profwatch"; fast_obj; steady ] in
  check_int "steady sequence exits 0" 0 code;
  check_bool "steady reported" true (contains ~needle:"steady" out);
  (* regression: the second run is the slower build, found through its
     sibling .obj file *)
  ignore
    (run_cmd
       [ exe "minirun"; fast_obj; "--gmon";
         Filename.concat hot "run-001.gmon"; "-q" ]);
  let hot_obj = Filename.concat hot "run-002.obj" in
  let copy a b =
    Out_channel.with_open_bin b (fun oc ->
        Out_channel.output_string oc (In_channel.with_open_bin a In_channel.input_all))
  in
  copy slow_obj hot_obj;
  ignore
    (run_cmd
       [ exe "minirun"; hot_obj; "--gmon";
         Filename.concat hot "run-002.gmon"; "-q" ]);
  let code, out = run_cmd [ exe "profwatch"; fast_obj; hot ] in
  check_int "regression exits 2" 2 code;
  check_bool "helper flagged" true
    (contains ~needle:"regression: helper" out);
  (* a tighter absolute floor can silence it *)
  let code, _ =
    run_cmd [ exe "profwatch"; fast_obj; hot; "--min-seconds"; "1000" ]
  in
  check_int "policy floor silences the gate" 0 code;
  (* an epoch container in the watch directory expands into windows *)
  let epochs_dir = path "watch_epochs" in
  if Sys.file_exists epochs_dir then rm_rf epochs_dir;
  Sys.mkdir epochs_dir 0o755;
  ignore
    (run_cmd
       [ exe "minirun"; fast_obj; "--gmon"; Filename.concat epochs_dir "r.gmon";
         "--epoch-ticks"; "8"; "--epochs";
         Filename.concat epochs_dir "r.epochs"; "-q" ]);
  let code, _ =
    run_cmd
      [ exe "profwatch"; fast_obj; epochs_dir; "--min-seconds"; "1000" ]
  in
  check_int "epoch windows scanned without error" 0 code;
  check_bool "window points counted" true
    (contains ~needle:"profile point(s)" (stderr_text ()))

(* A binary's statics are prepared once however many profiles are
   linted against it, so its counters count it once; gprofx --cost
   hands one Indirect resolution to the report and the bounds. *)
let test_statics_once_cli () =
  let obj = path "once.obj" and gmon = path "once.gmon" in
  ignore (run_cmd [ exe "minic"; "fixtures/smoke.mini"; "--pg"; "-o"; obj ]);
  ignore (run_cmd [ exe "minirun"; obj; "-q"; "--gmon"; gmon ]);
  let read p = In_channel.with_open_text p In_channel.input_all in
  let dead_blocks gmons =
    let metrics = path "once_metrics.json" in
    let code, _ =
      run_cmd ((exe "proflint" :: obj :: gmons) @ [ "--obs-metrics"; metrics ])
    in
    check_int "proflint exits 0" 0 code;
    field Obs.Jsonin.to_int
      (parse_json "proflint metrics" (read metrics))
      [ "counters"; "analysis.reach.dead_blocks" ]
  in
  check_int "smoke's dead blocks, one profile" 4 (dead_blocks [ gmon ]);
  check_int "smoke's dead blocks, two profiles" 4 (dead_blocks [ gmon; gmon ]);
  let trace = path "once_trace.json" in
  let code, out =
    run_cmd [ exe "gprofx"; obj; gmon; "--cost"; "--obs-trace"; trace ]
  in
  check_int "gprofx --cost exits 0" 0 code;
  check_bool "the cost listing" true
    (contains ~needle:"static cost bounds" out && contains ~needle:"leaf" out);
  let resolutions =
    List.filter
      (fun e -> Obs.Jsonin.member "name" e = Some (Obs.Jsonin.Str "indirect-resolve"))
      (field Obs.Jsonin.to_list (parse_json "gprofx trace" (read trace))
         [ "traceEvents" ])
  in
  check_int "one indirect-resolve span" 1 (List.length resolutions)

(* An indirect call whose candidate set has no arity match: legal to
   run, but minic's arity check (Indirect's candidates joined with the
   source's parameter counts) should warn and --werror should refuse
   to ship it. *)
let warn_source =
  {|
var h;

fun one(a) { return a; }

fun main() {
  h = one;
  print(h(1, 2));
  return 0;
}
|}

let test_lint_cli () =
  let src = write_source () in
  let obj = path "prog.obj" and gmon = path "prog.gmon" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; gmon; "-q" ]);
  (* an intact profile lints clean, strict or not *)
  let code, out = run_cmd [ exe "proflint"; obj; gmon ] in
  check_int "proflint over a clean run exits 0" 0 code;
  check_bool "summary line" true (contains ~needle:"proflint: 0 error(s)" out);
  (* the binary alone can be linted *)
  let code, _ = run_cmd [ exe "proflint"; obj ] in
  check_int "binary-only lint exits 0" 0 code;
  (* the built-in Figure 4 fixture is clean by construction *)
  let code, out = run_cmd [ exe "proflint"; "--figure4" ] in
  check_int "figure4 lints clean" 0 code;
  check_bool "figure4 roots are spontaneous" true
    (contains ~needle:"arc-spontaneous" out);
  (* a profile from a different binary is full of lies *)
  let slow_src = path "lintslow.mini" in
  Out_channel.with_open_text slow_src (fun oc ->
      Out_channel.output_string oc slow_source);
  let other_obj = path "lintother.obj" in
  ignore (run_cmd [ exe "minic"; slow_src; "-o"; other_obj ]);
  let code, _ = run_cmd [ exe "proflint"; other_obj; gmon ] in
  check_int "mismatched binary/profile exits 2" 2 code;
  (* the fixtures: smoke's whole-run profile and its epoch container
     lint clean together *)
  let smoke = path "lint_smoke.obj" and smoke_gmon = path "lint_smoke.gmon" in
  let smoke_epochs = path "lint_smoke.epochs" in
  ignore (run_cmd [ exe "minic"; "fixtures/smoke.mini"; "--pg"; "-o"; smoke ]);
  let code, _ =
    run_cmd
      [ exe "minirun"; smoke; "-q"; "--gmon"; smoke_gmon; "--epoch-ticks"; "4";
        "--epochs"; smoke_epochs ]
  in
  check_int "minirun --epochs exits 0" 0 code;
  let code, _ = run_cmd [ exe "proflint"; smoke; smoke_gmon; smoke_epochs ] in
  check_int "whole-run profile plus epoch container lint clean" 0 code;
  (* smoke_mismatched declares smoke's routines in another order, so
     smoke's call sites land mid-function in its build *)
  let mismatched = path "lint_mismatched.obj" in
  ignore
    (run_cmd [ exe "minic"; "fixtures/smoke_mismatched.mini"; "--pg"; "-o"; mismatched ]);
  let code, _ = run_cmd [ exe "proflint"; mismatched; smoke_gmon ] in
  check_int "smoke's profile against the reordered build exits 2" 2 code;
  (* the dataflow-backed rules over the remaining fixture *)
  let slow = path "lint_slow.obj" and slow_gmon = path "lint_slow.gmon" in
  ignore (run_cmd [ exe "minic"; "fixtures/smoke_slow.mini"; "--pg"; "-o"; slow ]);
  let code, _ = run_cmd [ exe "minirun"; slow; "-q"; "--gmon"; slow_gmon ] in
  check_int "smoke_slow runs" 0 code;
  let code, _ = run_cmd [ exe "proflint"; slow; slow_gmon ] in
  check_int "smoke_slow lints clean" 0 code;
  (* --json reruns are byte-identical, and the report finds no error
     and sees every finding in both profiles: the epoch sum is the
     whole-run profile *)
  let lint_json () =
    let code, out =
      run_cmd [ exe "proflint"; smoke; smoke_gmon; smoke_epochs; "--json" ]
    in
    check_int "proflint --json exits 0" 0 code;
    out
  in
  let report = lint_json () in
  Out_channel.with_open_text (path "lint_report.json") (fun oc ->
      Out_channel.output_string oc report);
  Alcotest.(check string) "--json reruns are byte-identical" report (lint_json ());
  let v = parse_json "lint report" report in
  Alcotest.(check string) "report schema" "gprof-repro.lint/1"
    (field Obs.Jsonin.to_string v [ "schema" ]);
  check_int "no errors" 0 (field Obs.Jsonin.to_int v [ "summary"; "errors" ]);
  let findings = field Obs.Jsonin.to_list v [ "findings" ] in
  check_bool "findings reported" true (findings <> []);
  List.iter
    (fun f ->
      check_int "finding seen in both profiles" 2
        (field Obs.Jsonin.to_int f [ "profiles" ]))
    findings;
  (* an undecodable profile is an operational failure, not a finding *)
  let junk = path "lintjunk.gmon" in
  Out_channel.with_open_text junk (fun oc ->
      Out_channel.output_string oc "not a profile");
  let code, _ = run_cmd [ exe "proflint"; obj; junk ] in
  check_int "undecodable profile exits 1" 1 code;
  (* gprofx --lint replaces the listings with the lint report *)
  let code, out = run_cmd [ exe "gprofx"; obj; gmon; "--lint" ] in
  check_int "gprofx --lint exits 0" 0 code;
  check_bool "gprofx --lint prints the lint summary" true
    (contains ~needle:"proflint:" out);
  check_bool "no listings in lint mode" true
    (not (contains ~needle:"call graph profile" out))

(* The profile-guided rebuild, closed from the command line alone:
   profile a workload, rebuild it with --profile-use twice (the
   objects and decision logs byte-identical), and hold the rebuild to
   strictly fewer executed instructions. Its fresh profile lints
   clean under the pairing rules against the baseline it came from. *)
let test_pgo_cli () =
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let src = "fixtures/pgo_matrix.mini" in
  let base = path "pgo_base.obj" and base_gmon = path "pgo_base.gmon" in
  let base_metrics = path "pgo_base.metrics" in
  let code, _ = run_cmd [ exe "minic"; src; "--pg"; "-o"; base ] in
  check_int "minic --pg exits 0" 0 code;
  let code, _ =
    run_cmd
      [ exe "minirun"; base; "-q"; "--gmon"; base_gmon; "--obs-metrics"; base_metrics ]
  in
  check_int "baseline run exits 0" 0 code;
  let rebuild obj =
    let code, decisions =
      run_cmd
        [ exe "minic"; src; "--pg"; "--profile-use"; base_gmon; "--pgo-report"; "-o";
          obj ]
    in
    check_int "minic --profile-use exits 0" 0 code;
    decisions
  in
  let opt = path "pgo_opt.obj" and opt2 = path "pgo_opt2.obj" in
  let decisions = rebuild opt in
  check_bool "decision log printed" true (String.length decisions > 0);
  Alcotest.(check string) "decision logs byte-identical" decisions (rebuild opt2);
  check_bool "objects byte-identical" true (read opt = read opt2);
  let opt_gmon = path "pgo_opt.gmon" and opt_metrics = path "pgo_opt.metrics" in
  let code, _ =
    run_cmd
      [ exe "minirun"; opt; "-q"; "--gmon"; opt_gmon; "--obs-metrics"; opt_metrics ]
  in
  check_int "rebuild run exits 0" 0 code;
  let instructions file =
    match Obs.Snapshot.of_json (read file) with
    | Error e -> Alcotest.failf "%s: %s" file e
    | Ok s -> (
      match Obs.Snapshot.find_gauge s "vm.instructions" with
      | Some n -> n
      | None -> Alcotest.failf "%s has no vm.instructions gauge" file)
  in
  let before = instructions base_metrics and after = instructions opt_metrics in
  if after >= before then
    Alcotest.failf "the rebuild is not faster: %d -> %d instructions" before after;
  let code, _ = run_cmd [ exe "proflint"; opt; opt_gmon; "--pgo-baseline"; base ] in
  check_int "proflint --pgo-baseline exits 0" 0 code

let test_werror_cli () =
  let src = path "warny.mini" in
  Out_channel.with_open_text src (fun oc ->
      Out_channel.output_string oc warn_source);
  let obj = path "warny.obj" in
  let code, _ = run_cmd [ exe "minic"; src; "-o"; obj ] in
  check_int "warnings alone do not fail the build" 0 code;
  check_bool "warning printed to stderr" true
    (contains ~needle:"takes 2 arguments (candidates: one/1)" (stderr_text ()));
  let code, _ = run_cmd [ exe "minic"; src; "-o"; obj; "--werror" ] in
  check_int "--werror promotes to failure" 1 code;
  check_bool "promotion reported" true
    (contains ~needle:"promoted to errors" (stderr_text ()));
  (* a warning-free program is unaffected *)
  let clean = write_source () in
  let code, _ = run_cmd [ exe "minic"; clean; "-o"; obj; "--werror" ] in
  check_int "clean program passes --werror" 0 code;
  let werror name source =
    let src = path (name ^ ".mini") and obj = path (name ^ ".obj") in
    Out_channel.with_open_text src (fun oc -> Out_channel.output_string oc source);
    let code, _ = run_cmd [ exe "minic"; src; "-o"; obj; "--werror" ] in
    (code, stderr_text (), obj)
  in
  (* the arity check follows function values wherever Indirect does *)
  List.iter
    (fun (name, source) ->
      let _, err, _ = werror name source in
      check_bool (name ^ ": arity warning") true
        (contains ~needle:"takes 2 arguments (candidates: one/1)" err))
    [
      ( "arity_plain",
        "fun one(a) { return a; } fun g() { var h = one; return h(1, 2); } \
         fun main() { return g(); }" );
      ( "arity_param",
        "fun one(a) { return a; } fun apply(h) { return h(1, 2); } \
         fun g() { return apply(one); } fun main() { return g(); }" );
      ( "arity_array_return",
        "array tab[2]; fun one(a) { return a; } \
         fun pick() { return tab[0]; } \
         fun g() { tab[0] = one; var h = pick(); return h(1, 2); } \
         fun main() { return g(); }" );
    ];
  (* a matching candidate anywhere in the set silences the site *)
  let _, err, _ =
    werror "arity_mixed"
      "fun one(a) { return a; } fun two(a, b) { return a + b; } \
       fun g(k) { var h; if (k) { h = one; } else { h = two; } \
       return h(1, 2); } fun main() { return g(1); }"
  in
  check_bool "mixed arities with a match are fine" false
    (contains ~needle:"no possible callee" err);
  (* each finding once: two constant conditions, a dead store and a
     call through a variable that never holds a function are four
     warnings, not six *)
  let code, err, _ =
    werror "four_findings"
      "var v;\nfun main() {\n  var d;\n  d = 1;\n  d = 2;\n  if (1) { print(d); }\n  \
       while (0) { print(3); }\n  return v(1);\n}\n"
  in
  check_int "four findings fail --werror" 1 code;
  check_int "four warnings printed" 4
    (List.length
       (List.filter
          (fun l -> contains ~needle:": warning: " l)
          (String.split_on_char '\n' err)));
  check_bool "four promoted" true
    (contains ~needle:"4 warning(s) promoted to errors" err);
  (* the deliberate infinite loop passes --werror and the binary-only
     lint *)
  let code, _, loop_obj =
    werror "infinite_loop"
      "fun main() { var i = 0; while (1) { i = i + 1; if (i > 3) { return i; } } \
       return 0; }"
  in
  check_int "while (1) passes --werror" 0 code;
  let code, _ = run_cmd [ exe "proflint"; loop_obj ] in
  check_int "while (1) lints clean" 0 code

(* Start [profd --serve] in the background, its stderr appended to
   [log], and wait until it answers. [env] prefixes the command, as in
   "PROFD_FAULTS=... ". *)
let start_profd ?(env = "") ~sock ~pidfile ~log args =
  let cmd =
    Printf.sprintf "%s%s --serve --socket %s %s 2>> %s & echo $! > %s" env
      (Filename.quote (exe "profd")) (Filename.quote sock)
      (String.concat " " (List.map Filename.quote args))
      (Filename.quote log) (Filename.quote pidfile)
  in
  check_int "daemon starts" 0 (Sys.command cmd);
  let code, _ =
    run_cmd [ exe "profd"; "--socket"; sock; "--wait"; "--timeout"; "30" ]
  in
  check_int "daemon ready" 0 code

(* Whether [pid] has exited. A daemon started with & is adopted by
   init, and stays a zombie until init reaps it, which some take
   seconds to do; Linux shows that state as Z in /proc. *)
let exited pid =
  match Unix.kill pid 0 with
  | exception Unix.Unix_error _ -> true
  | () -> (
    match
      In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all
    with
    | exception Sys_error _ -> false
    | stat -> (
      (* the state follows the parenthesized command name *)
      match String.rindex_opt stat ')' with
      | Some i -> i + 2 < String.length stat && stat.[i + 2] = 'Z'
      | None -> false))

(* Poll the daemon of [pidfile] every 0.1 s; fail with [what] if it is
   still running after 10 s. *)
let await_exit ~what pidfile =
  let pid =
    int_of_string (String.trim (In_channel.with_open_text pidfile In_channel.input_all))
  in
  let rec go n =
    if exited pid then ()
    else if n > 0 then begin
      Unix.sleepf 0.1;
      go (n - 1)
    end
    else Alcotest.fail what
  in
  go 100

(* SHUTDOWN, then wait for the process to go: its store, metrics dump
   and event log are complete only once it has exited. *)
let stop_profd ~sock ~pidfile =
  let code, _ =
    run_cmd [ exe "profd"; "--socket"; sock; "--retries"; "8"; "--shutdown" ]
  in
  check_int "shutdown exits 0" 0 code;
  await_exit ~what:"daemon ignored SHUTDOWN" pidfile

(* Run a daemon case; when a check raises, kill -9 the daemon of every
   listed pidfile, so a failed case never leaves one behind. *)
let with_daemons pidfiles f =
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) pidfiles;
  try f ()
  with e ->
    List.iter
      (fun p ->
        if Sys.file_exists p then
          ignore
            (Sys.command
               (Printf.sprintf "kill -9 $(cat %s) 2> /dev/null" (Filename.quote p))))
      pidfiles;
    raise e

(* The aggregation daemon, driven over its real socket: submit (good
   and corrupt), survive kill -9, recover on restart, and end up
   byte-equivalent to an offline merge of the same runs. *)
let test_profd_cli () =
  let pidfile = path "profd.pid" in
  with_daemons [ pidfile ] @@ fun () ->
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let g1 = path "d1.gmon" and g2 = path "d2.gmon" and g3 = path "d3.gmon" in
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g1; "-q"; "--seed"; "1" ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g2; "-q"; "--seed"; "2" ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g3; "-q"; "--seed"; "3" ]);
  let junk = path "djunk.gmon" in
  Out_channel.with_open_text junk (fun oc ->
      Out_channel.output_string oc "not profile data");
  let sock = path "profd.sock" and store = path "profd_store" in
  if Sys.file_exists store then rm_rf store;
  let serve_log = path "profd_serve.log" in
  let start () =
    start_profd ~sock ~pidfile ~log:serve_log [ "--store"; store; "--batch"; "2" ]
  in
  Out_channel.with_open_text serve_log (fun _ -> ());
  start ();
  (* two good submissions fill the batch and flush; a corrupt one is
     quarantined, acknowledged, and turns the client's exit into 2 *)
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; g1; g2 ] in
  check_int "good submissions exit 0" 0 code;
  let code, out = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; junk ] in
  check_int "corrupt submission exits 2" 2 code;
  check_bool "quarantine acknowledged with a reason" true
    (contains ~needle:"quarantined" out);
  (* kill -9: no shutdown handler runs; the store must come back *)
  check_int "kill -9" 0
    (Sys.command (Printf.sprintf "kill -9 $(cat %s)" (Filename.quote pidfile)));
  start ();
  check_bool "restart reports recovery" true
    (contains ~needle:"recovered"
       (In_channel.with_open_text serve_log In_channel.input_all));
  (* a fleet member ships its run straight from minirun *)
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "--submit"; sock; "--submit-label"; "prog";
        "--gmon"; g3; "-q"; "--seed"; "3" ]
  in
  check_int "minirun --submit exits 0" 0 code;
  let code, _ =
    run_cmd [ exe "profd"; "--socket"; sock; "--flush"; "--compact" ]
  in
  check_int "flush + compact exit 0" 0 code;
  let code, out =
    run_cmd [ exe "profd"; "--socket"; sock; "--query"; "top"; "--top-n"; "3" ]
  in
  check_int "query top exits 0" 0 code;
  check_bool "top rows printed" true (String.length (String.trim out) > 0);
  let code, out = run_cmd [ exe "profd"; "--socket"; sock; "--query"; "stats" ] in
  check_int "query stats exits 0" 0 code;
  check_bool "stats counts the quarantine" true
    (contains ~needle:"\"quarantined\":1" out);
  check_bool "stats counts every run" true
    (contains ~needle:"\"total_runs\":3" out);
  (* the equivalence gate: the daemon-built, compacted, recovered store
     serves exactly what an offline merge of the same runs produces *)
  let daemon_gmon = path "daemon.gmon" and offline_gmon = path "offline.gmon" in
  let code, _ =
    run_cmd
      [ exe "profd"; "--socket"; sock; "--query"; "report"; "--out"; daemon_gmon ]
  in
  check_int "query report exits 0" 0 code;
  let code, _ =
    run_cmd [ exe "profd"; "--merge-offline"; offline_gmon; g1; g2; g3 ]
  in
  check_int "offline merge exits 0" 0 code;
  let d = Result.get_ok (Gmon.load daemon_gmon) in
  let o = Result.get_ok (Gmon.load offline_gmon) in
  check_bool "daemon report = offline merge_all" true (Gmon.equal d o);
  let read p = In_channel.with_open_bin p In_channel.input_all in
  check_bool "daemon report bytes = offline merge bytes" true
    (read daemon_gmon = read offline_gmon);
  (* a run of another program can never be summed with these: it is
     quarantined at the door, and the report still answers, unchanged *)
  let other_src = path "dother.mini" and other_obj = path "dother.obj" in
  let other = path "dother.gmon" and again = path "daemon_again.gmon" in
  Out_channel.with_open_text other_src (fun oc ->
      Out_channel.output_string oc warn_source);
  ignore (run_cmd [ exe "minic"; other_src; "--pg"; "-o"; other_obj ]);
  ignore (run_cmd [ exe "minirun"; other_obj; "--gmon"; other; "-q" ]);
  let code, out = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; other ] in
  check_int "a run of another program exits 2" 2 code;
  check_bool "refused for its layout" true
    (contains ~needle:"different histogram layouts" out);
  let code, _ =
    run_cmd [ exe "profd"; "--socket"; sock; "--query"; "report"; "--out"; again ]
  in
  check_int "query report still answers" 0 code;
  check_bool "report unchanged by the refusal" true (read again = read daemon_gmon);
  (* sampled profiles: one rides along with minirun --submit, one is
     submitted from a file, and the daemon's sreport is byte-identical
     to the offline merge of the two *)
  let s1 = path "ds1.sprof" and s2 = path "ds2.sprof" in
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "--submit"; sock; "--submit-label"; "prog"; "-q";
        "--seed"; "1"; "--sample-ticks"; "1"; "--sample-out"; s1 ]
  in
  check_int "minirun --sample-ticks --submit exits 0" 0 code;
  ignore
    (run_cmd
       [ exe "minirun"; obj; "--gmon"; path "ds2.gmon"; "-q"; "--seed"; "2";
         "--sample-ticks"; "1"; "--sample-out"; s2 ]);
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; s2 ] in
  check_int "sprof file submission exits 0" 0 code;
  let code, _ =
    run_cmd [ exe "profd"; "--socket"; sock; "--flush"; "--compact" ]
  in
  check_int "flush + compact after sprof submissions exit 0" 0 code;
  let daemon_sprof = path "daemon.sprof" and offline_sprof = path "offline.sprof" in
  let code, _ =
    run_cmd
      [ exe "profd"; "--socket"; sock; "--query"; "sreport"; "--out";
        daemon_sprof ]
  in
  check_int "query sreport exits 0" 0 code;
  let code, _ =
    run_cmd [ exe "profd"; "--merge-offline"; offline_sprof; s1; s2 ]
  in
  check_int "offline sprof merge exits 0" 0 code;
  check_bool "daemon sreport bytes = offline merge bytes" true
    (read daemon_sprof = read offline_sprof);
  (* gprofx can read the store directly, without the daemon *)
  stop_profd ~sock ~pidfile;
  let code, out = run_cmd [ exe "gprofx"; obj; "--store"; store; "--flat" ] in
  check_int "gprofx --store exits 0" 0 code;
  check_bool "store-backed listing" true (contains ~needle:"helper" out)

(* Run a command until it exits 0, at most [n] times, 0.2 s apart. *)
let retry ~what ?(n = 100) args =
  let rec go n =
    match run_cmd args with
    | 0, _ -> ()
    | code, _ when n <= 1 -> Alcotest.failf "%s: still exits %d" what code
    | _ ->
      Unix.sleepf 0.2;
      go (n - 1)
  in
  go n

(* The fleet pipeline under seeded faults, through the real binaries.
   First a clean daemon and hostile clients: profd --submit --retries
   through torn frames, short reads, resets and latency, then a kill -9
   racing a COMPACT; after the restart the report is the offline merge,
   byte for byte. Then a store that refuses 60% of appends: runs that a
   dead socket or a BUSY daemon will not take are spooled by minirun,
   profd --drain-spool resubmits them, and the books balance. *)
let chaos_steps ~pid_a ~pid_c =
  let src = write_source () in
  let obj = path "chaos.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let gmon s = path (Printf.sprintf "chaos-%d.gmon" s) in
  let read p = In_channel.with_open_bin p In_channel.input_all in
  let stats sock =
    let code, out = run_cmd [ exe "profd"; "--socket"; sock; "--query"; "stats" ] in
    check_int "query stats exits 0" 0 code;
    out
  in
  let report_is_offline_merge ~sock ~name runs =
    let daemon = path (name ^ "_daemon.gmon") and offline = path (name ^ "_offline.gmon") in
    let code, _ =
      run_cmd [ exe "profd"; "--socket"; sock; "--query"; "report"; "--out"; daemon ]
    in
    check_int "query report exits 0" 0 code;
    let code, _ =
      run_cmd ([ exe "profd"; "--merge-offline"; offline ] @ List.map gmon runs)
    in
    check_int "offline merge exits 0" 0 code;
    check_bool (name ^ ": daemon report bytes = offline merge bytes") true
      (read daemon = read offline)
  in
  let fresh p = if Sys.file_exists p then rm_rf p in
  (* --- hostile clients, kill -9 racing a compaction --- *)
  List.iter
    (fun s ->
      ignore
        (run_cmd
           [ exe "minirun"; obj; "-q"; "--seed"; string_of_int s; "--gmon"; gmon s ]))
    [ 1; 2; 4 ];
  let sock = path "chaos_a.sock" and store = path "chaos_a_store" in
  let pidfile = pid_a and log = path "chaos_a.log" in
  let metrics = path "chaos_a.metrics" in
  List.iter fresh [ store; log; metrics ];
  let serve () =
    start_profd ~sock ~pidfile ~log
      [ "--store"; store; "--batch"; "2"; "--conn-timeout"; "2";
        "--obs-metrics"; metrics ]
  in
  serve ();
  let faults = "PROFD_FAULTS=seed=5,short=0.5,torn=0.5,reset=0.1,latency=0.1,delay_ms=1" in
  let code, _ =
    run_cmd
      [ "env"; faults; exe "profd"; "--socket"; sock; "--retries"; "12";
        "--submit"; gmon 1; gmon 2 ]
  in
  check_int "faulty client submits through its retries" 0 code;
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "-q"; "--seed"; "3"; "--gmon"; gmon 3; "--submit";
        sock; "--submit-label"; "run-3" ]
  in
  check_int "minirun --submit exits 0" 0 code;
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--flush" ] in
  check_int "flush exits 0" 0 code;
  (* wherever the daemon dies, the restart keeps every flushed run *)
  check_int "kill -9 racing a COMPACT" 0
    (Sys.command
       (Printf.sprintf "%s --socket %s --compact > /dev/null 2>&1 & kill -9 $(cat %s)"
          (Filename.quote (exe "profd")) (Filename.quote sock)
          (Filename.quote pidfile)));
  serve ();
  let code, _ =
    run_cmd
      [ "env"; faults; exe "profd"; "--socket"; sock; "--retries"; "12";
        "--submit"; gmon 4 ]
  in
  check_int "faulty client submits to the restarted daemon" 0 code;
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--flush"; "--compact" ] in
  check_int "flush + compact exit 0" 0 code;
  report_is_offline_merge ~sock ~name:"chaos_a" [ 1; 2; 3; 4 ];
  let out = stats sock in
  check_bool "every run stored once" true (contains ~needle:"\"total_runs\":4" out);
  check_bool "nothing quarantined" true (contains ~needle:"\"quarantined\":0" out);
  stop_profd ~sock ~pidfile;
  let dumped = read metrics in
  check_bool "the daemon counted the torn connections" true
    (not (contains ~needle:"\"profd.conn.torn\":0" dumped)
    && contains ~needle:"\"profd.conn.torn\":" dumped);
  (* --- a store that refuses 60% of appends --- *)
  let spool = path "chaos_spool" in
  fresh spool;
  let code, _ =
    run_cmd
      [ exe "minirun"; obj; "-q"; "--seed"; "20"; "--gmon"; gmon 20; "--submit";
        path "chaos_nosuch.sock"; "--submit-retries"; "2"; "--spool"; spool ]
  in
  check_int "a run for a dead socket is spooled, not failed" 0 code;
  let spooled () =
    List.filter (fun n -> Filename.check_suffix n ".spool") (Array.to_list (Sys.readdir spool))
  in
  check_int "one run spooled" 1 (List.length (spooled ()));
  let sock = path "chaos_c.sock" and store = path "chaos_c_store" in
  let pidfile = pid_c and log = path "chaos_c.log" in
  List.iter fresh [ store; log ];
  start_profd ~env:"PROFD_FAULTS=seed=3,storefail=0.6 " ~sock ~pidfile ~log
    [ "--store"; store; "--batch"; "1"; "--queue-cap"; "2"; "--retry-after"; "0.05" ];
  (* an overload burst: each run is accepted, or answered BUSY and
     spooled, never lost *)
  let burst = [ 10; 11; 12; 13; 14; 15 ] in
  List.iter
    (fun s ->
      let code, _ =
        run_cmd
          [ exe "minirun"; obj; "-q"; "--seed"; string_of_int s; "--gmon"; gmon s;
            "--submit"; sock; "--submit-label"; "burst"; "--submit-retries"; "2";
            "--spool"; spool ]
      in
      check_int "burst run exits 0" 0 code)
    burst;
  retry ~what:"drain-spool"
    [ exe "profd"; "--socket"; sock; "--drain-spool"; spool; "--retries"; "8" ];
  check_int "spool empty" 0 (List.length (spooled ()));
  retry ~what:"flush" [ exe "profd"; "--socket"; sock; "--flush" ];
  (* the books balance: 7 submitted = 7 stored + 0 quarantined + 0 spooled *)
  let out = stats sock in
  check_bool "queue drained" true (contains ~needle:"\"pending\":0" out);
  check_bool "every run stored" true (contains ~needle:"\"total_runs\":7" out);
  check_bool "nothing quarantined" true (contains ~needle:"\"quarantined\":0" out);
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--compact" ] in
  check_int "compact exits 0" 0 code;
  report_is_offline_merge ~sock ~name:"chaos_c" (burst @ [ 20 ]);
  (* SIGTERM drains, then exits *)
  check_int "SIGTERM" 0
    (Sys.command (Printf.sprintf "kill -TERM $(cat %s)" (Filename.quote pidfile)));
  await_exit ~what:"daemon ignored SIGTERM" pidfile;
  check_bool "drain announced" true (contains ~needle:"draining" (read log))

let test_profd_chaos_cli () =
  let pid_a = path "chaos_a.pid" and pid_c = path "chaos_c.pid" in
  with_daemons [ pid_a; pid_c ] (fun () -> chaos_steps ~pid_a ~pid_c)

(* At its connection cap the daemon answers BUSY and closes without
   reading the request, so a client's request write can meet a closed
   socket. With the one slot held by an idle peer, minirun --submit
   backs off, gives up and spools the run, and profd --submit fails
   with a message; neither dies of SIGPIPE (exit 141 from the shell). *)
let test_connection_cap_cli () =
  let pidfile = path "cap.pid" in
  with_daemons [ pidfile ] @@ fun () ->
  let src = write_source () in
  let obj = path "cap.obj" and gmon = path "cap.gmon" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  ignore (run_cmd [ exe "minirun"; obj; "-q"; "--gmon"; gmon ]);
  let sock = path "cap.sock" and store = path "cap_store" in
  let spool = path "cap_spool" and log = path "cap.log" in
  List.iter (fun p -> if Sys.file_exists p then rm_rf p) [ store; spool; log ];
  start_profd ~sock ~pidfile ~log
    [ "--store"; store; "--max-conns"; "1"; "--conn-timeout"; "20" ];
  let connect () =
    let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.connect fd (Unix.ADDR_UNIX sock);
    fd
  in
  let readable fd timeout =
    match Unix.select [ fd ] [] [] timeout with [], _, _ -> false | _ -> true
  in
  (* The daemon takes connections in arrival order, so once it has
     answered [second], it has kept or refused [peer]. A [second] it
     does not answer holds the slot: [peer] came while the readiness
     probe still held it. Neither held, both refused: try again. *)
  let rec hold n =
    let peer = connect () in
    let second = connect () in
    if not (readable second 2.0) then begin
      Unix.close peer;
      second
    end
    else begin
      Unix.close second;
      if not (readable peer 0.0) then peer
      else if n > 0 then begin
        Unix.close peer;
        hold (n - 1)
      end
      else Alcotest.fail "the daemon refused every idle peer"
    end
  in
  let peer = hold 20 in
  Fun.protect ~finally:(fun () -> Unix.close peer) (fun () ->
      let code, _ =
        run_cmd
          [ exe "minirun"; obj; "-q"; "--submit"; sock; "--submit-retries"; "3";
            "--spool"; spool ]
      in
      check_int "minirun --submit --spool exits 0" 0 code;
      check_int "one run spooled" 1
        (List.length
           (List.filter
              (fun n -> Filename.check_suffix n ".spool")
              (Array.to_list (Sys.readdir spool))));
      let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; gmon ] in
      check_int "profd --submit exits 1" 1 code;
      check_bool "with a message" true (contains ~needle:"profd: " (stderr_text ())));
  stop_profd ~sock ~pidfile

(* The live-telemetry loop end to end, under injected latency: a
   daemon whose fault plane delays every RPC 15 ms, run with
   --telemetry-out and --log, watched by proftop (--once --json), its
   metrics snapshots subtracted offline (--diff), and its telemetry
   series verified (--telemetry). *)
let test_proftop_cli () =
  let pidfile = path "tele.pid" in
  with_daemons [ pidfile ] @@ fun () ->
  let src = write_source () in
  let obj = path "tele.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let g1 = path "t1.gmon" and g2 = path "t2.gmon" in
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g1; "-q"; "--seed"; "1" ]);
  ignore (run_cmd [ exe "minirun"; obj; "--gmon"; g2; "-q"; "--seed"; "2" ]);
  let sock = path "tele.sock" and store = path "tele_store" in
  if Sys.file_exists store then rm_rf store;
  let tele = path "tele.jsonl" and events = path "tele_events.jsonl" in
  let log = path "tele_serve.log" in
  List.iter (fun p -> if Sys.file_exists p then Sys.remove p) [ tele; events; log ];
  start_profd ~env:"PROFD_FAULTS=seed=11,latency=1.0,delay_ms=15 " ~sock ~pidfile
    ~log
    [ "--store"; store; "--batch"; "1"; "--telemetry-out"; tele;
      "--telemetry-interval"; "0.1"; "--log"; events ];
  (* snapshot A — then two submissions and a stats query — snapshot B *)
  let a = path "tele_a.json" and b = path "tele_b.json" in
  let snapshot p =
    let code, out =
      run_cmd [ exe "proftop"; "--socket"; sock; "--once"; "--json" ]
    in
    check_int "proftop --once --json exits 0" 0 code;
    Out_channel.with_open_text p (fun oc -> Out_channel.output_string oc out);
    parse_json p out
  in
  ignore (snapshot a);
  let code, _ = run_cmd [ exe "profd"; "--socket"; sock; "--submit"; g1; g2 ] in
  check_int "two submissions exit 0" 0 code;
  ignore (run_cmd [ exe "profd"; "--socket"; sock; "--query"; "stats" ]);
  let snap = snapshot b in
  let int keys = field Obs.Jsonin.to_int snap keys in
  (* well-formed health *)
  check_bool "health names a version" true
    (field Obs.Jsonin.to_string snap [ "health"; "version" ] <> "");
  check_bool "pid > 0" true (int [ "health"; "pid" ] > 0);
  check_bool "uptime > 0" true (field Obs.Jsonin.to_float snap [ "health"; "uptime" ] > 0.0);
  check_bool "queue cap > 0" true (int [ "health"; "queue"; "cap" ] > 0);
  check_bool "conns max > 0" true (int [ "health"; "conns"; "max" ] > 0);
  let shards = int [ "health"; "store"; "shards" ] in
  check_bool "store shards > 0" true (shards > 0);
  check_int "one per_shard row per shard" shards
    (List.length (field Obs.Jsonin.to_list snap [ "health"; "store"; "per_shard" ]));
  (* per-verb RPC counts and quantiles, derived by proftop *)
  check_bool "both submissions counted" true (int [ "derived"; "rpc"; "submit"; "count" ] >= 2);
  check_bool "metrics RPC counted" true (int [ "derived"; "rpc"; "metrics"; "count" ] >= 1);
  check_bool "submit p99 derived" true
    (field Obs.Jsonin.to_float snap [ "derived"; "rpc"; "submit"; "p99_us" ] > 0.0);
  let metrics =
    match Obs.Snapshot.of_value (field Option.some snap [ "metrics" ]) with
    | Ok s -> s
    | Error e -> Alcotest.failf "metrics: %s" e
  in
  check_bool "byte accounting present" true
    (Obs.Snapshot.find_counter metrics "profd.bytes.read" <> None);
  (* the injected 15 ms shows in the submit latency buckets *)
  (match Obs.Snapshot.find_hist metrics "profd.rpc.submit.latency" with
  | None -> Alcotest.fail "no submit latency histogram"
  | Some h ->
    let slow =
      List.fold_left
        (fun n (bucket, count) ->
          if fst (Obs.Metrics.hist_bucket_bounds bucket) >= 8192 then n + count else n)
        0 h.h_buckets
    in
    check_bool "two submits in buckets from 8192 us up" true (slow >= 2);
    check_bool "latency max at least the injected 15 ms" true (h.h_max >= 15000));
  (* the delta between the snapshots is exactly the traffic between
     them: health(A) + 2 submits + stats + metrics(B) = 5 requests *)
  let code, out = run_cmd [ exe "proftop"; "--diff"; a; b ] in
  check_int "diff exits 0" 0 code;
  (match Obs.Snapshot.of_json out with
  | Error e -> Alcotest.failf "diff: %s" e
  | Ok d ->
    Alcotest.(check (option int)) "request delta is exact" (Some 5)
      (Obs.Snapshot.find_counter d "profd.requests");
    Alcotest.(check (option int)) "submit delta is exact" (Some 2)
      (Obs.Snapshot.find_counter d "ingest.submitted"));
  (* a human frame renders against the live daemon too *)
  let code, out = run_cmd [ exe "proftop"; "--socket"; sock; "--once" ] in
  check_int "plain frame exits 0" 0 code;
  check_bool "frame shows the rpc table" true (contains ~needle:"submit" out);
  stop_profd ~sock ~pidfile;
  (* the event log is structured JSONL: seqs count up from 0, and the
     lifecycle is logged in order *)
  let records =
    List.map (parse_json events) (In_channel.with_open_text events In_channel.input_lines)
  in
  Alcotest.(check (list int)) "records carry consecutive seqs"
    (List.init (List.length records) Fun.id)
    (List.map (fun r -> field Obs.Jsonin.to_int r [ "seq" ]) records);
  let lifecycle = [ "serve.start"; "draining"; "drain.done" ] in
  Alcotest.(check (list string)) "lifecycle logged in order" lifecycle
    (List.filter
       (fun e -> List.mem e lifecycle)
       (List.map (fun r -> field Obs.Jsonin.to_string r [ "event" ]) records));
  (* the telemetry series verifies: checksums, seq, monotonic counters *)
  let code, out = run_cmd [ exe "proftop"; "--telemetry"; tele; "--json" ] in
  check_int "telemetry verifies" 0 code;
  let v = parse_json "telemetry verdict" out in
  check_bool "verification says ok" true (Obs.Jsonin.member "ok" v = Some (Obs.Jsonin.Bool true));
  check_int "no damaged lines" 0 (field Obs.Jsonin.to_int v [ "damaged" ]);
  (* --obs-trace parity: the client dumps a Chrome trace on exit *)
  let trace = path "tele_trace.json" in
  let code, _ =
    run_cmd
      [ exe "profd"; "--merge-offline"; path "tele_off.gmon"; g1;
        "--obs-trace"; trace ]
  in
  check_int "client with --obs-trace exits 0" 0 code;
  check_bool "chrome trace written" true
    (contains ~needle:"traceEvents"
       (In_channel.with_open_text trace In_channel.input_all))

(* A clock setting of zero would stop simulated time (a tick interval
   of 0 cycles never lets the clock catch up) or divide by it, so
   minirun refuses it on the command line, naming the option, with
   cmdliner's exit code. So do the other counts a bad value would turn
   into a crash or a useless run: a sampler with room for no stack, a
   negative cycle-breaking bound, and a daemon that refuses every
   connection, its own --shutdown among them. [timeout] turns a run
   that never returns into a failure instead of a stalled suite. *)
let test_clock_options_positive () =
  let src = write_source () in
  let obj = path "clock.obj" and gmon = path "clock.gmon" in
  ignore (run_cmd [ exe "minic"; src; "-o"; obj ]);
  ignore (run_cmd [ exe "minirun"; obj; "-q"; "--gmon"; gmon ]);
  let minirun = [ exe "minirun"; obj; "-q"; "--gmon"; path "clock_bad.gmon" ] in
  List.iter
    (fun (cmd, opt, value) ->
      let code, _ =
        run_cmd ([ "timeout"; "-s"; "KILL"; "10" ] @ cmd @ [ opt ^ "=" ^ value ])
      in
      check_int (opt ^ "=" ^ value ^ " is a command-line error") 124 code;
      check_bool (opt ^ " named") true
        (contains ~needle:("option '" ^ opt ^ "'") (stderr_text ())))
    (List.map
       (fun opt -> (minirun, opt, "0"))
       [ "--hz"; "--cycles-per-tick"; "--bucket-size"; "--epoch-ticks"; "--sample-ticks";
         "--sample-capacity" ]
    @ [ ([ exe "gprofx"; obj; gmon ], "--break-cycles", "-1");
        ( [ exe "profd"; "--serve"; "--socket"; path "clock.sock"; "--store";
            path "clock_store" ],
          "--max-conns", "0" ) ])

(* A stack walk costs 2 cycles per frame, so on a clock of one cycle
   per tick with a walk on every tick each walk outlasts a tick. The
   ticks that fall due inside a walk start no walk of their own: the
   run halts, with one tick per simulated cycle. [timeout] turns the
   endless tick loop this once was into a failure. *)
(* On clocks finer than a stack walk, every tick is offered to the
   sampler, so the samples due (taken or skipped) are ticks / interval
   and the sprof covers the run the gmon histogram does. *)
let test_fine_clock_stack_walks () =
  let obj = path "fineclock.obj" in
  ignore (run_cmd [ exe "minic"; "fixtures/smoke.mini"; "--pg"; "-o"; obj ]);
  List.iter
    (fun (clock, interval) ->
      let name = Printf.sprintf "fineclock_%d_%d" clock interval in
      let metrics = path (name ^ ".json") in
      let code, _ =
        run_cmd
          [ "timeout"; "-s"; "KILL"; "10"; exe "minirun"; obj; "-q"; "--gmon";
            path (name ^ ".gmon"); "--sample-out"; path (name ^ ".sprof");
            "--obs-metrics"; metrics; Printf.sprintf "--cycles-per-tick=%d" clock;
            Printf.sprintf "--sample-ticks=%d" interval ]
      in
      check_int "halts within the timeout" 0 code;
      let v =
        parse_json "metrics" (In_channel.with_open_text metrics In_channel.input_all)
      in
      let gauge name = field Obs.Jsonin.to_int v [ "gauges"; name ] in
      check_int "one tick per clock period" (gauge "vm.cycles" / clock) (gauge "vm.ticks");
      check_bool "stacks sampled" true (gauge "vm.sample.taken" > 0);
      check_int "taken + skipped = ticks / interval" (gauge "vm.ticks" / interval)
        (gauge "vm.sample.taken" + gauge "vm.sample.skipped"))
    [ (1, 1); (7, 3) ]

let test_bad_inputs_fail_cleanly () =
  let code, _ = run_cmd [ exe "minic"; path "nonexistent.mini" ] in
  check_bool "minic rejects missing file" true (code <> 0);
  let bad = path "bad.mini" in
  Out_channel.with_open_text bad (fun oc ->
      Out_channel.output_string oc "fun main( { return 0; }");
  let code, _ = run_cmd [ exe "minic"; bad ] in
  check_bool "minic rejects syntax errors" true (code <> 0);
  let src = write_source () in
  let obj = path "prog.obj" in
  ignore (run_cmd [ exe "minic"; src; "--pg"; "-o"; obj ]);
  let code, _ = run_cmd [ exe "gprofx"; obj; src ] in
  (* a source file is not a gmon file *)
  check_bool "gprofx rejects non-gmon data" true (code <> 0)

(* A hand-written image: [one] returns its argument, [main] prints
   one(7). Each crafted variant breaks one operand the way a damaged
   file could; every tool must refuse it with a located message
   instead of dying with an uncaught exception (exit 125). *)
let crafted_base =
  "MINIOBJ 1\nsource crafted\nentry 4\nsymbol one 0 4 0\nsymbol main 4 5 0\n\
   text 9\nenter 0\nload 0\nret\nnop\nconst 7\ncall 0 1\n\
   syscall print\npop\nhalt\n"

let replace ~sub ~by s =
  let n = String.length sub in
  let rec go i =
    if String.sub s i n = sub then
      String.sub s 0 i ^ by ^ String.sub s (i + n) (String.length s - i - n)
    else go (i + 1)
  in
  go 0

let test_crafted_objects_refused () =
  let write name contents =
    let p = path name in
    Out_channel.with_open_text p (fun oc -> Out_channel.output_string oc contents);
    p
  in
  let base = write "crafted.obj" crafted_base and gmon = path "crafted.gmon" in
  let code, out = run_cmd [ exe "minirun"; base; "--gmon"; gmon ] in
  check_int "the intact image runs" 0 code;
  check_bool "and prints one(7)" true (contains ~needle:"7" out);
  let watch_dir = path "crafted_watch" in
  if not (Sys.file_exists watch_dir) then Sys.mkdir watch_dir 0o755;
  Out_channel.with_open_bin (Filename.concat watch_dir "run.gmon") (fun oc ->
      Out_channel.output_string oc
        (In_channel.with_open_bin gmon In_channel.input_all));
  List.iter
    (fun (name, contents, message) ->
      let obj = write name contents in
      let expect_refusal tool code want =
        check_int (Printf.sprintf "%s on %s exits %d" tool name want) want code;
        if want = 1 then
          check_bool (Printf.sprintf "%s names the fault" tool) true
            (contains ~needle:message (stderr_text ()))
      in
      let code, _ = run_cmd [ exe "minirun"; obj; "--gmon"; path "crafted_x.gmon" ] in
      expect_refusal "minirun" code 1;
      let code, _ = run_cmd [ exe "kgmonx"; obj; "run-to-end" ] in
      expect_refusal "kgmonx" code 1;
      let code, _ = run_cmd [ exe "gprofx"; obj; gmon ] in
      expect_refusal "gprofx" code 1;
      let code, _ = run_cmd [ exe "profx"; obj; gmon ] in
      expect_refusal "profx" code 1;
      let code, _ = run_cmd [ exe "profdiff"; obj; gmon; obj; gmon ] in
      expect_refusal "profdiff" code 1;
      let code, _ = run_cmd [ exe "profwatch"; obj; watch_dir ] in
      expect_refusal "profwatch" code 1;
      let code, out = run_cmd [ exe "proflint"; obj; gmon ] in
      expect_refusal "proflint" code 2;
      check_bool "proflint reports binary-invalid" true
        (contains ~needle:("[binary-invalid] " ^ message) out))
    [
      ( "crafted_neg_array.obj",
        replace ~sub:"text 9" ~by:"array 0 t -1\ntext 9" crafted_base,
        "array t has negative length -1" );
      ( "crafted_neg_arity.obj",
        replace ~sub:"call 0 1" ~by:"call 0 -1" crafted_base,
        "main+1 (pc 5): call arity -1 outside [0, 65535]" );
      ( "crafted_huge_enter.obj",
        replace ~sub:"enter 0" ~by:"enter 100000000000000" crafted_base,
        "one+0 (pc 0): enter count 100000000000000 outside [0, 65535]" );
    ];
  (* code the operand-stack verifier refuses never starts running *)
  let obj =
    write "crafted_underflow.obj" (replace ~sub:"const 7" ~by:"pop" crafted_base)
  in
  let code, _ = run_cmd [ exe "minirun"; obj; "--gmon"; path "crafted_x.gmon" ] in
  check_int "minirun refuses unbalanced code" 1 code;
  check_bool "with the verifier's located message" true
    (contains ~needle:"main+0 (pc 4): operand stack underflow" (stderr_text ()))

let () =
  Alcotest.run "cli"
    [
      ( "pipeline",
        [
          Alcotest.test_case "compile/run/analyze" `Slow test_compile_run_analyze;
          Alcotest.test_case "multi-run summing" `Slow test_multirun_merge_cli;
          Alcotest.test_case "profdiff" `Slow test_profdiff_cli;
          Alcotest.test_case "kgmonx" `Slow test_kgmonx_cli;
          Alcotest.test_case "observability flags" `Slow test_obs_flags;
          Alcotest.test_case "fault tolerance" `Slow test_robust_cli;
          Alcotest.test_case "epoch timeline" `Slow test_epoch_cli;
          Alcotest.test_case "export formats" `Slow test_export_formats_cli;
          Alcotest.test_case "lenient flags" `Slow test_lenient_flags_cli;
          Alcotest.test_case "profwatch" `Slow test_profwatch_cli;
          Alcotest.test_case "proflint" `Slow test_lint_cli;
          Alcotest.test_case "statics once per binary" `Slow test_statics_once_cli;
          Alcotest.test_case "pgo loop" `Slow test_pgo_cli;
          Alcotest.test_case "minic --werror" `Slow test_werror_cli;
          Alcotest.test_case "profd daemon" `Slow test_profd_cli;
          Alcotest.test_case "profd chaos" `Slow test_profd_chaos_cli;
          Alcotest.test_case "profd connection cap" `Slow test_connection_cap_cli;
          Alcotest.test_case "proftop telemetry" `Slow test_proftop_cli;
          Alcotest.test_case "bad inputs" `Slow test_bad_inputs_fail_cleanly;
          Alcotest.test_case "clock options positive" `Slow test_clock_options_positive;
          Alcotest.test_case "fine clock stack walks" `Slow test_fine_clock_stack_walks;
          Alcotest.test_case "crafted objects" `Slow test_crafted_objects_refused;
        ] );
    ]
