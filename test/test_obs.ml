(* Tests for the self-observability layer: the metrics registry
   (bucket geometry, instrument semantics, export formats), the span
   tracer (nesting, clocks, Chrome export), and the hooks the VM and
   the analysis pipeline publish through. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

(* A minimal JSON syntax checker — enough to reject the classic
   emission bugs (trailing commas, unescaped quotes, bare NaN) without
   needing a JSON library in the test image. *)
let json_ok (s : string) : bool =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let fail = ref false in
  let error () = fail := true in
  let skip_ws () =
    while (not !fail) && !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
      advance ()
    done
  in
  let expect c = if peek () = Some c then advance () else error () in
  let rec value () =
    skip_ws ();
    match peek () with
    | Some '{' -> obj ()
    | Some '[' -> arr ()
    | Some '"' -> string_lit ()
    | Some ('-' | '0' .. '9') -> number ()
    | Some 't' -> keyword "true"
    | Some 'f' -> keyword "false"
    | Some 'n' -> keyword "null"
    | _ -> error ()
  and keyword k =
    if !pos + String.length k <= n && String.sub s !pos (String.length k) = k
    then pos := !pos + String.length k
    else error ()
  and string_lit () =
    expect '"';
    let closed = ref false in
    while (not !fail) && not !closed do
      match peek () with
      | None -> error ()
      | Some '"' -> advance (); closed := true
      | Some '\\' -> advance (); (match peek () with
        | Some ('"' | '\\' | '/' | 'b' | 'f' | 'n' | 'r' | 't') -> advance ()
        | Some 'u' ->
          advance ();
          for _ = 1 to 4 do
            (match peek () with
            | Some ('0' .. '9' | 'a' .. 'f' | 'A' .. 'F') -> advance ()
            | _ -> error ())
          done
        | _ -> error ())
      | Some c when Char.code c < 0x20 -> error ()
      | Some _ -> advance ()
    done
  and number () =
    if peek () = Some '-' then advance ();
    let digits () =
      let seen = ref false in
      while (match peek () with Some '0' .. '9' -> true | _ -> false) do
        seen := true; advance ()
      done;
      if not !seen then error ()
    in
    digits ();
    if peek () = Some '.' then (advance (); digits ());
    (match peek () with
    | Some ('e' | 'E') ->
      advance ();
      (match peek () with Some ('+' | '-') -> advance () | _ -> ());
      digits ()
    | _ -> ())
  and obj () =
    expect '{';
    skip_ws ();
    if peek () = Some '}' then advance ()
    else begin
      let more = ref true in
      while (not !fail) && !more do
        skip_ws (); string_lit (); skip_ws (); expect ':'; value (); skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some '}' -> advance (); more := false
        | _ -> error ()
      done
    end
  and arr () =
    expect '[';
    skip_ws ();
    if peek () = Some ']' then advance ()
    else begin
      let more = ref true in
      while (not !fail) && !more do
        value (); skip_ws ();
        match peek () with
        | Some ',' -> advance ()
        | Some ']' -> advance (); more := false
        | _ -> error ()
      done
    end
  in
  value ();
  skip_ws ();
  (not !fail) && !pos = n

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Metrics: bucket geometry *)

let test_bucket_geometry () =
  let b = Obs.Metrics.hist_bucket_of in
  check_int "negative" 0 (b (-3));
  check_int "zero" 0 (b 0);
  check_int "one" 1 (b 1);
  check_int "two" 2 (b 2);
  check_int "three" 2 (b 3);
  check_int "four" 3 (b 4);
  check_int "1024" 11 (b 1024);
  check_int "max_int lands in the top bucket"
    (Obs.Metrics.n_hist_buckets - 1) (b max_int);
  (* Bounds and bucket_of must agree: every bucket's own bounds map
     back to it, and adjacent buckets tile the integers. *)
  for i = 0 to Obs.Metrics.n_hist_buckets - 1 do
    let lo, hi = Obs.Metrics.hist_bucket_bounds i in
    check_int (Printf.sprintf "lo of bucket %d" i) i (b lo);
    check_int (Printf.sprintf "hi of bucket %d" i) i (b hi);
    if i > 0 then begin
      let _, prev_hi = Obs.Metrics.hist_bucket_bounds (i - 1) in
      check_int (Printf.sprintf "buckets %d/%d tile" (i - 1) i) lo (prev_hi + 1)
    end
  done

(* ------------------------------------------------------------------ *)
(* Metrics: instruments *)

let test_counter_gauge () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "requests" in
  Obs.Metrics.incr c;
  Obs.Metrics.incr ~by:4 c;
  check_int "counter accumulates" 5 (Obs.Metrics.counter_value c);
  (* Get-or-create: the same name yields the same instrument. *)
  Obs.Metrics.incr (Obs.Metrics.counter r "requests");
  check_int "same instrument by name" 6 (Obs.Metrics.counter_value c);
  check_int "find_counter" 6 (Option.get (Obs.Metrics.find_counter r "requests"));
  let g = Obs.Metrics.gauge r "depth" in
  Obs.Metrics.set g 7;
  Obs.Metrics.set g 3;
  check_int "gauge is last-write-wins" 3 (Obs.Metrics.gauge_value g);
  check_bool "find misses are None" true
    (Obs.Metrics.find_gauge r "no-such" = None)

let test_kind_mismatch_raises () =
  let r = Obs.Metrics.create () in
  ignore (Obs.Metrics.counter r "x");
  check_bool "re-registering under another kind raises" true
    (try ignore (Obs.Metrics.gauge r "x"); false
     with Invalid_argument _ -> true)

let test_histogram () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram r "lat" in
  List.iter (Obs.Metrics.observe h) [ 0; 1; 1; 3; 900 ];
  check_int "count" 5 (Obs.Metrics.hist_count h);
  check_int "sum" 905 (Obs.Metrics.hist_sum h);
  check_int "max" 900 (Obs.Metrics.hist_max h);
  let bk = Obs.Metrics.hist_buckets h in
  check_int "bucket 0" 1 bk.(0);
  check_int "bucket 1" 2 bk.(1);
  check_int "bucket 2" 1 bk.(2);
  check_int "bucket of 900" 1 bk.(Obs.Metrics.hist_bucket_of 900);
  (* Snapshot publication, as the monitor's observe uses it. *)
  let snap = Array.make Obs.Metrics.n_hist_buckets 0 in
  snap.(4) <- 9;
  Obs.Metrics.set_snapshot h ~buckets:snap ~count:9 ~sum:90 ~max:15;
  check_int "snapshot count" 9 (Obs.Metrics.hist_count h);
  check_int "snapshot bucket" 9 (Obs.Metrics.hist_buckets h).(4);
  check_bool "wrong-length snapshot raises" true
    (try Obs.Metrics.set_snapshot h ~buckets:[| 1; 2 |] ~count:3 ~sum:3 ~max:2; false
     with Invalid_argument _ -> true)

let test_reset_keeps_registrations () =
  let r = Obs.Metrics.create () in
  let c = Obs.Metrics.counter r "c" in
  let h = Obs.Metrics.histogram r "h" in
  Obs.Metrics.incr ~by:3 c;
  Obs.Metrics.observe h 12;
  Obs.Metrics.reset r;
  check_int "counter zeroed" 0 (Obs.Metrics.counter_value c);
  check_int "histogram zeroed" 0 (Obs.Metrics.hist_count h);
  check_int "max zeroed" 0 (Obs.Metrics.hist_max h);
  check_bool "registration survives" true
    (Obs.Metrics.find_counter r "c" = Some 0)

let test_metrics_export () =
  let r = Obs.Metrics.create () in
  Obs.Metrics.incr ~by:2 (Obs.Metrics.counter r ~help:"two" "a.count");
  Obs.Metrics.set (Obs.Metrics.gauge r "z.depth") 7;
  Obs.Metrics.observe (Obs.Metrics.histogram r "m.lat") 3;
  let d = Obs.Metrics.dump r in
  check_bool "dump lists the counter" true (contains ~needle:"a.count" d);
  check_bool "dump lists the help text" true (contains ~needle:"two" d);
  let index_of needle =
    let nl = String.length needle in
    let rec go i =
      if i + nl > String.length d then -1
      else if String.sub d i nl = needle then i
      else go (i + 1)
    in
    go 0
  in
  check_bool "dump sorts by name" true
    (index_of "a.count" >= 0 && index_of "a.count" < index_of "z.depth");
  let json () = Obs.Snapshot.to_json (Obs.Snapshot.of_registry r) in
  let j = json () in
  check_bool "json parses" true (json_ok j);
  check_bool "json has the counter" true (contains ~needle:"\"a.count\":2" j);
  check_bool "json has the gauge" true (contains ~needle:"\"z.depth\":7" j);
  check_bool "json has bucket bounds" true (contains ~needle:"\"lo\":" j);
  (* Names requiring escaping must not corrupt the document. *)
  Obs.Metrics.set (Obs.Metrics.gauge r "weird\"name\n") 1;
  check_bool "json stays valid under escaping" true (json_ok (json ()));
  (* The exact bytes of every --obs-metrics file and QUERY metrics
     answer: the bottom bucket, a small one, and the unbounded top. *)
  List.iter (Obs.Metrics.observe (Obs.Metrics.histogram r "m.lat")) [ 0; 1 lsl 40 ];
  check_string "exported bytes"
    {|{"counters":{"a.count":2},"gauges":{"weird\"name\n":1,"z.depth":7},"histograms":{"m.lat":{"count":3,"sum":1099511627779,"max":1099511627776,"buckets":[{"lo":0,"hi":0,"count":1},{"lo":2,"hi":3,"count":1},{"lo":1073741824,"hi":-1,"count":1}]}}}|}
    (json ())

(* ------------------------------------------------------------------ *)
(* Trace *)

let test_trace_disabled_is_free () =
  let t = Obs.Trace.create () in
  check_bool "starts disabled" false (Obs.Trace.enabled t);
  let x = Obs.Trace.with_span ~t "work" (fun () -> 42) in
  check_int "thunk result passes through" 42 x;
  check_int "nothing recorded" 0 (Obs.Trace.span_count t)

let test_trace_nesting () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  Obs.Trace.with_span ~t "outer" (fun () ->
      Obs.Trace.with_span ~t "inner" (fun () -> ());
      Obs.Trace.with_span ~t ~args:[ ("k", "v") ] "inner2" (fun () -> ()));
  Obs.Trace.instant ~t "mark";
  let spans = Obs.Trace.spans t in
  Alcotest.(check (list (pair string int)))
    "start order and depths"
    [ ("outer", 0); ("inner", 1); ("inner2", 1); ("mark", 0) ]
    (List.map (fun s -> (s.Obs.Trace.s_name, s.Obs.Trace.s_depth)) spans);
  List.iter
    (fun s -> check_bool "durations are non-negative" true (s.Obs.Trace.s_dur_us >= 0.0))
    spans;
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      a.Obs.Trace.s_start_us <= b.Obs.Trace.s_start_us && sorted rest
    | _ -> true
  in
  check_bool "start timestamps are non-decreasing" true (sorted spans);
  let inner2 = List.nth spans 2 in
  check_string "args survive" "v" (List.assoc "k" inner2.Obs.Trace.s_args);
  Obs.Trace.clear t;
  check_int "clear empties" 0 (Obs.Trace.span_count t)

let test_trace_records_on_exception () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  (try Obs.Trace.with_span ~t "boom" (fun () -> failwith "no")
   with Failure _ -> ());
  check_int "span recorded despite the raise" 1 (Obs.Trace.span_count t);
  (* Depth must unwind, or every later span inherits a bogus depth. *)
  Obs.Trace.with_span ~t "after" (fun () -> ());
  match Obs.Trace.spans t with
  | [ _; after ] -> check_int "depth unwound" 0 after.Obs.Trace.s_depth
  | l -> Alcotest.failf "expected 2 spans, got %d" (List.length l)

let test_trace_chrome_json () =
  let t = Obs.Trace.create () in
  Obs.Trace.set_enabled t true;
  Obs.Trace.with_span ~t ~cat:"test" ~args:[ ("n", "5") ] "phase-a" (fun () -> ());
  let j = Obs.Trace.to_chrome_json t in
  check_bool "parses" true (json_ok j);
  check_bool "has traceEvents" true (contains ~needle:"\"traceEvents\":[" j);
  check_bool "complete events" true (contains ~needle:"\"ph\":\"X\"" j);
  check_bool "carries the name" true (contains ~needle:"\"name\":\"phase-a\"" j);
  check_bool "carries the category" true (contains ~needle:"\"cat\":\"test\"" j);
  check_bool "carries args" true (contains ~needle:"\"n\":\"5\"" j)

(* ------------------------------------------------------------------ *)
(* The hooks: what the VM and the pipeline actually publish *)

let test_machine_observe () =
  match Workloads.Driver.run Workloads.Programs.quick with
  | Error e -> Alcotest.failf "workload failed: %s" e
  | Ok r ->
    let reg = Obs.Metrics.create () in
    Vm.Machine.observe r.Workloads.Driver.machine reg;
    let m = r.Workloads.Driver.machine in
    let gv n = Option.get (Obs.Metrics.find_gauge reg n) in
    check_int "vm.instructions mirrors the machine"
      (Vm.Machine.instructions_executed m) (gv "vm.instructions");
    check_int "dispatch groups sum to the instruction count"
      (Vm.Machine.instructions_executed m)
      (List.fold_left (fun a (_, n) -> a + n) 0 (Vm.Machine.dispatch_counts m));
    check_bool "call group is populated" true
      (List.assoc "call" (Vm.Machine.dispatch_counts m) > 0);
    check_int "monitor records mirror the machine"
      (Vm.Monitor.total_records (Vm.Machine.monitor m)) (gv "monitor.records");
    let h = Option.get (Obs.Metrics.find_histogram reg "monitor.probe_depth") in
    check_int "published histogram covers every record"
      (Vm.Monitor.total_records (Vm.Machine.monitor m))
      (Obs.Metrics.hist_count h)

let test_pipeline_spans () =
  let t = Obs.Trace.default in
  let was = Obs.Trace.enabled t in
  Obs.Trace.set_enabled t true;
  Obs.Trace.clear t;
  (match Gprof_core.Report.analyze Workloads.Figure4.objfile Workloads.Figure4.gmon with
  | Ok rep -> ignore (Gprof_core.Report.full_listing rep)
  | Error e -> Alcotest.failf "figure4 analyze failed: %s" e);
  let names = List.map (fun s -> s.Obs.Trace.s_name) (Obs.Trace.spans t) in
  Obs.Trace.set_enabled t was;
  Obs.Trace.clear t;
  List.iter
    (fun n -> check_bool (Printf.sprintf "span %s present" n) true (List.mem n names))
    [ "analyze"; "symtab"; "assign"; "static-scan"; "arcgraph"; "cyclefind";
      "propagate"; "report"; "flat"; "graph"; "index" ]

(* ------------------------------------------------------------------ *)
(* Jsonbuf/Jsonin: the emission/parse pair *)

let escape_str s =
  let buf = Buffer.create 32 in
  Obs.Jsonbuf.escape buf s;
  Buffer.contents buf

let test_jsonbuf_escaping () =
  (* every control byte must come out as a valid JSON literal that
     parses back to the original — the classic eprintf-style emitter
     bugs all live here *)
  for c = 0x00 to 0x1f do
    let s = Printf.sprintf "a%cb" (Char.chr c) in
    let lit = escape_str s in
    check_bool (Printf.sprintf "control 0x%02x emits valid JSON" c) true
      (json_ok lit);
    match Obs.Jsonin.parse lit with
    | Ok (Obs.Jsonin.Str got) ->
      check_string (Printf.sprintf "control 0x%02x round-trips" c) s got
    | _ -> Alcotest.failf "control 0x%02x did not parse back" c
  done;
  (* quotes, backslashes, and pathological mixes *)
  List.iter
    (fun s ->
      let lit = escape_str s in
      check_bool (Printf.sprintf "%S emits valid JSON" s) true (json_ok lit);
      match Obs.Jsonin.parse lit with
      | Ok (Obs.Jsonin.Str got) -> check_string (Printf.sprintf "%S" s) s got
      | _ -> Alcotest.failf "%S did not parse back" s)
    [
      "";
      "\"";
      "\\";
      "\\\"";
      "a\"b\\c";
      "\\u0041";
      "tab\there\nand newline";
      "trailing backslash \\";
      String.make 3 '"';
    ];
  (* non-ASCII passes through byte-for-byte (the emitter assumes UTF-8
     and never mangles it) *)
  let utf8 = "héllo — κόσμε — 世界" in
  let lit = escape_str utf8 in
  check_bool "utf8 emits valid JSON" true (json_ok lit);
  (match Obs.Jsonin.parse lit with
  | Ok (Obs.Jsonin.Str got) -> check_string "utf8 round-trips" utf8 got
  | _ -> Alcotest.fail "utf8 did not parse back")

let test_jsonin_parser () =
  let p = Obs.Jsonin.parse_exn in
  check_bool "null" true (p "null" = Obs.Jsonin.Null);
  check_bool "bools" true
    (p "true" = Obs.Jsonin.Bool true && p "false" = Obs.Jsonin.Bool false);
  check_bool "negative int" true (p "-42" = Obs.Jsonin.Int (-42));
  check_bool "float" true
    (match p "1.5e2" with Obs.Jsonin.Float f -> f = 150.0 | _ -> false);
  check_bool "unicode escape re-encodes as UTF-8" true
    (p {|"é"|} = Obs.Jsonin.Str "é");
  check_bool "surrogate-free BMP escape" true
    (p {|"世"|} = Obs.Jsonin.Str "世");
  (match p {|{"a":[1,2],"b":{"c":null}}|} with
  | Obs.Jsonin.Obj [ ("a", Obs.Jsonin.List [ Obs.Jsonin.Int 1; Obs.Jsonin.Int 2 ]);
                     ("b", Obs.Jsonin.Obj [ ("c", Obs.Jsonin.Null) ]) ] -> ()
  | _ -> Alcotest.fail "nested structure mis-parsed");
  (* malformed inputs are rejected, not mangled *)
  List.iter
    (fun bad ->
      check_bool (Printf.sprintf "%S rejected" bad) true
        (Result.is_error (Obs.Jsonin.parse bad)))
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "1 2"; "nul";
      "\"bad \\x escape\""; "{\"a\" 1}" ]

(* ------------------------------------------------------------------ *)
(* Snapshot: capture, serialize, parse back, subtract *)

(* a registry with a bit of everything, for round-trip tests *)
let build_registry mutations =
  let r = Obs.Metrics.create () in
  let c1 = Obs.Metrics.counter r "reqs" and c2 = Obs.Metrics.counter r "errs" in
  let g = Obs.Metrics.gauge r "queue.depth" in
  let h = Obs.Metrics.histogram r "latency" in
  List.iter
    (fun (dc1, dc2, gv, obs) ->
      Obs.Metrics.incr ~by:dc1 c1;
      Obs.Metrics.incr ~by:dc2 c2;
      Obs.Metrics.set g gv;
      List.iter (Obs.Metrics.observe h) obs)
    mutations;
  r

let test_snapshot_roundtrip () =
  let r = build_registry [ (5, 1, 17, [ 0; 1; 3; 900; 7_000_000 ]) ] in
  let captured = Obs.Snapshot.of_registry r in
  let json = Obs.Snapshot.to_json captured in
  (* the parse-back is exact *)
  match Obs.Snapshot.of_json json with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok snap ->
    check_bool "parse-back equals the capture" true (snap = captured);
    check_string "parse-back reserializes identically" json
      (Obs.Snapshot.to_json snap);
    check_bool "counter recovered" true
      (Obs.Snapshot.find_counter snap "reqs" = Some 5);
    check_bool "gauge recovered" true
      (Obs.Snapshot.find_gauge snap "queue.depth" = Some 17);
    (match Obs.Snapshot.find_hist snap "latency" with
    | None -> Alcotest.fail "histogram lost"
    | Some h ->
      check_int "hist count" 5 h.Obs.Snapshot.h_count;
      check_int "hist max" 7_000_000 h.h_max;
      check_bool "bucket indices recovered from lo bounds" true
        (List.mem_assoc (Obs.Metrics.hist_bucket_of 900) h.h_buckets))

let qcheck_snapshot_roundtrip =
  QCheck.Test.make ~name:"to_json then of_json is exact"
    ~count:100
    QCheck.(
      list_of_size (Gen.int_range 1 6)
        (quad (int_range 0 1_000_000) (int_range 0 1000)
           (int_range (-100) 100_000)
           (list_of_size (Gen.int_range 0 12) (int_range (-5) 1_000_000_000))))
    (fun mutations ->
      let captured = Obs.Snapshot.of_registry (build_registry mutations) in
      let json = Obs.Snapshot.to_json captured in
      match Obs.Snapshot.of_json json with
      | Error e -> QCheck.Test.fail_report e
      | Ok snap -> snap = captured && Obs.Snapshot.to_json snap = json)

let test_snapshot_diff_and_rates () =
  let r = build_registry [ (10, 2, 5, [ 100; 200 ]) ] in
  let before = Obs.Snapshot.of_registry r in
  (* two seconds of activity *)
  let c = Obs.Metrics.counter r "reqs" and g = Obs.Metrics.gauge r "queue.depth" in
  let h = Obs.Metrics.histogram r "latency" in
  Obs.Metrics.incr ~by:6 c;
  Obs.Metrics.set g 9;
  Obs.Metrics.observe h 150;
  Obs.Metrics.observe h 1_000_000;
  let after = Obs.Snapshot.of_registry r in
  let d = Obs.Snapshot.diff ~before ~after in
  check_bool "counter delta" true (Obs.Snapshot.find_counter d "reqs" = Some 6);
  check_bool "untouched counter delta is zero" true
    (Obs.Snapshot.find_counter d "errs" = Some 0);
  check_bool "gauge is last-write" true
    (Obs.Snapshot.find_gauge d "queue.depth" = Some 9);
  (match Obs.Snapshot.find_hist d "latency" with
  | None -> Alcotest.fail "hist delta lost"
  | Some hd ->
    check_int "hist delta count" 2 hd.Obs.Snapshot.h_count;
    check_int "hist delta sum" 1_000_150 hd.h_sum;
    check_int "window bucket count" 1
      (List.assoc (Obs.Metrics.hist_bucket_of 150) hd.h_buckets));
  let rates = Obs.Snapshot.rates ~elapsed:2.0 d in
  check_bool "rate of reqs" true (List.assoc "reqs" rates = 3.0);
  check_bool "no rates for elapsed <= 0" true
    (Obs.Snapshot.rates ~elapsed:0.0 d = []);
  (* a fresh process (counters reset) is a monotonicity violation *)
  let fresh = Obs.Snapshot.of_registry (build_registry [ (1, 0, 0, []) ]) in
  check_bool "reset counters detected" true
    (Obs.Snapshot.monotonic_violations ~before:after ~after:fresh <> []);
  check_bool "same-process pair is clean" true
    (Obs.Snapshot.monotonic_violations ~before ~after = [])

let test_hist_quantile () =
  let r = Obs.Metrics.create () in
  let h = Obs.Metrics.histogram r "q" in
  (* all mass in one bucket: quantiles interpolate inside [64,128) *)
  for _ = 1 to 100 do Obs.Metrics.observe h 100 done;
  let snap = Obs.Snapshot.(to_json (of_registry r)) in
  (match Obs.Snapshot.of_json snap with
  | Error e -> Alcotest.failf "of_json: %s" e
  | Ok s -> (
    match Obs.Snapshot.find_hist s "q" with
    | None -> Alcotest.fail "hist lost"
    | Some hist ->
      let p50 = Obs.Snapshot.hist_quantile hist 0.5 in
      check_bool "p50 inside the bucket" true (p50 >= 64.0 && p50 <= 128.0);
      check_bool "p0 at bucket lo" true
        (Obs.Snapshot.hist_quantile hist 0.0 >= 64.0);
      (* the top bucket clamps to the observed max, not max_int *)
      Obs.Metrics.observe h max_int;
      let s2 =
        Result.get_ok Obs.Snapshot.(of_json (to_json (of_registry r)))
      in
      let hist2 = Option.get (Obs.Snapshot.find_hist s2 "q") in
      check_bool "p100 clamped to max" true
        (Obs.Snapshot.hist_quantile hist2 1.0 <= float_of_int max_int)));
  check_bool "empty histogram quantile is 0" true
    (Obs.Snapshot.hist_quantile
       { Obs.Snapshot.h_count = 0; h_sum = 0; h_max = 0; h_buckets = [] }
       0.9
    = 0.0)

(* ------------------------------------------------------------------ *)
(* Eventlog: structured JSONL with levels and sequence numbers *)

let tmp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "obs_test_%d_%s" (Unix.getpid ()) name)

let test_eventlog () =
  let path = tmp_path "events.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (match Obs.Eventlog.open_file ~level:Obs.Eventlog.Info path with
  | Error e -> Alcotest.failf "open_file: %s" e
  | Ok log ->
    check_bool "info allowed" true (Obs.Eventlog.would_log log Obs.Eventlog.Info);
    check_bool "debug filtered" false
      (Obs.Eventlog.would_log log Obs.Eventlog.Debug);
    Obs.Eventlog.info log "serve.start" [ ("socket", S "/tmp/d.sock"); ("pid", I 42) ];
    Obs.Eventlog.debug log "noise" [];
    (* dropped: below the level, and must not consume a seq *)
    Obs.Eventlog.warn log "shed" [ ("pending", I 256); ("frac", F 1.0) ];
    Obs.Eventlog.error log "quote\"field" [ ("b", B true) ];
    check_int "two dropped-free seqs consumed" 3 (Obs.Eventlog.seq log);
    Obs.Eventlog.close log);
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  check_int "three records written" 3 (List.length lines);
  List.iteri
    (fun i line ->
      match Obs.Jsonin.parse line with
      | Error e -> Alcotest.failf "line %d is not JSON: %s" i e
      | Ok v ->
        check_bool "seq matches position" true
          (Obs.Jsonin.(member "seq" v |> Option.get |> to_int) = Some i);
        check_bool "has ts" true (Obs.Jsonin.member "ts" v <> None);
        check_bool "has level" true (Obs.Jsonin.member "level" v <> None))
    lines;
  (* the quoted event kind survived escaping *)
  check_bool "escaped kind round-trips" true
    (match Obs.Jsonin.parse (List.nth lines 2) with
    | Ok v -> Obs.Jsonin.(member "event" v |> Option.get |> to_string) = Some "quote\"field"
    | Error _ -> false);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* Timeseries: checksummed JSONL, corruption detection, seq resume *)

let test_timeseries_roundtrip_and_corruption () =
  let path = tmp_path "tele.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  let r = build_registry [ (3, 1, 2, [ 10; 20 ]) ] in
  (match Obs.Timeseries.open_writer path with
  | Error e -> Alcotest.failf "open_writer: %s" e
  | Ok w ->
    for i = 0 to 2 do
      Obs.Metrics.incr ~by:1 (Obs.Metrics.counter r "reqs");
      match Obs.Timeseries.append w ~ts:(float_of_int i) (Obs.Snapshot.of_registry r) with
      | Ok seq -> check_int "seq assigned in order" i seq
      | Error e -> Alcotest.failf "append: %s" e
    done;
    Obs.Timeseries.close_writer w);
  (match Obs.Timeseries.read path with
  | Error e -> Alcotest.failf "read: %s" e
  | Ok (records, complaints) ->
    check_int "three records back" 3 (List.length records);
    check_int "no complaints" 0 (List.length complaints);
    check_bool "metrics payload intact" true
      (Obs.Snapshot.find_counter (List.nth records 2).Obs.Timeseries.r_metrics "reqs"
      = Some 6));
  (* flip one byte inside the middle line: exactly that record dies *)
  let lines =
    In_channel.with_open_text path In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let corrupt = Bytes.of_string (List.nth lines 1) in
  let mid = Bytes.length corrupt - 5 in
  Bytes.set corrupt mid
    (if Bytes.get corrupt mid = '0' then '1' else '0');
  Out_channel.with_open_text path (fun oc ->
      List.iteri
        (fun i l ->
          Out_channel.output_string oc
            (if i = 1 then Bytes.to_string corrupt else l);
          Out_channel.output_char oc '\n')
        lines);
  (match Obs.Timeseries.read path with
  | Error e -> Alcotest.failf "read after corruption: %s" e
  | Ok (records, complaints) ->
    check_int "two records survive" 2 (List.length records);
    check_int "one complaint" 1 (List.length complaints);
    check_bool "survivors keep their seqs" true
      (List.map (fun rec_ -> rec_.Obs.Timeseries.r_seq) records = [ 0; 2 ]));
  (* a writer reopening the damaged file resumes after the highest
     intact record — seq never goes backwards *)
  (match Obs.Timeseries.open_writer path with
  | Error e -> Alcotest.failf "reopen: %s" e
  | Ok w ->
    (match Obs.Timeseries.append w ~ts:9.0 (Obs.Snapshot.of_registry r) with
    | Ok seq -> check_int "seq resumes past the survivors" 3 seq
    | Error e -> Alcotest.failf "append after reopen: %s" e);
    Obs.Timeseries.close_writer w);
  (* decode_line rejects structural damage loudly *)
  check_bool "garbage line rejected" true
    (Result.is_error (Obs.Timeseries.decode_line "not a record"));
  check_bool "valid line accepted" true
    (Result.is_ok
       (Obs.Timeseries.decode_line
          (Obs.Timeseries.encode_line ~seq:0 ~ts:1.0
             (Obs.Snapshot.of_registry r))));
  Sys.remove path

let () =
  Alcotest.run "obs"
    [
      ( "metrics",
        [
          Alcotest.test_case "bucket geometry" `Quick test_bucket_geometry;
          Alcotest.test_case "counter and gauge" `Quick test_counter_gauge;
          Alcotest.test_case "kind mismatch" `Quick test_kind_mismatch_raises;
          Alcotest.test_case "histogram" `Quick test_histogram;
          Alcotest.test_case "reset" `Quick test_reset_keeps_registrations;
          Alcotest.test_case "dump and json export" `Quick test_metrics_export;
        ] );
      ( "trace",
        [
          Alcotest.test_case "disabled is free" `Quick test_trace_disabled_is_free;
          Alcotest.test_case "nesting and clocks" `Quick test_trace_nesting;
          Alcotest.test_case "records on exception" `Quick
            test_trace_records_on_exception;
          Alcotest.test_case "chrome export" `Quick test_trace_chrome_json;
        ] );
      ( "hooks",
        [
          Alcotest.test_case "machine observe" `Quick test_machine_observe;
          Alcotest.test_case "pipeline spans" `Quick test_pipeline_spans;
        ] );
      ( "jsonio",
        [
          Alcotest.test_case "escaping edge cases" `Quick test_jsonbuf_escaping;
          Alcotest.test_case "parser" `Quick test_jsonin_parser;
        ] );
      ( "snapshot",
        [
          Alcotest.test_case "round-trip" `Quick test_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest qcheck_snapshot_roundtrip;
          Alcotest.test_case "diff and rates" `Quick test_snapshot_diff_and_rates;
          Alcotest.test_case "quantiles" `Quick test_hist_quantile;
        ] );
      ( "eventlog",
        [ Alcotest.test_case "leveled JSONL" `Quick test_eventlog ] );
      ( "timeseries",
        [
          Alcotest.test_case "checksums, corruption, seq resume" `Quick
            test_timeseries_roundtrip_and_corruption;
        ] );
    ]
