(* Self-observability: sanity of the metrics the instrumented layers
   publish, and span coverage of the post-processing passes. *)

open Harness

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  nl = 0 || go 0

let t_obs () =
  section "metrics published by an instrumented run (matrix workload)";
  let r = run_workload Workloads.Programs.matrix in
  let reg = Obs.Metrics.create () in
  Vm.Machine.observe r.machine reg;
  print_string (Obs.Metrics.dump reg);
  let gv n = Option.value ~default:0 (Obs.Metrics.find_gauge reg n) in
  expect "instruction count present" (gv "vm.instructions" > 0);
  expect "dispatch breakdown sums to the instruction count"
    (List.fold_left (fun a (_, n) -> a + n) 0 (Vm.Machine.dispatch_counts r.machine)
    = Vm.Machine.instructions_executed r.machine);
  let mon = Vm.Machine.monitor r.machine in
  expect "probe-depth histogram covers every mcount record"
    (Array.fold_left ( + ) 0 (Vm.Monitor.probe_depth_hist mon)
    = Vm.Monitor.total_records mon);
  expect "chain cells equal distinct arcs"
    ((Vm.Monitor.chain_stats mon).Vm.Monitor.n_cells
    = Vm.Monitor.distinct_arcs mon);
  expect "histogram ticks equal VM ticks" (gv "profil.ticks" = gv "vm.ticks");

  section "span coverage of the post-processing passes (figure4)";
  let tr = Obs.Trace.default in
  let was_enabled = Obs.Trace.enabled tr in
  Obs.Trace.set_enabled tr true;
  Obs.Trace.clear tr;
  (match
     Gprof_core.Report.analyze Workloads.Figure4.objfile Workloads.Figure4.gmon
   with
  | Ok rep -> ignore (Gprof_core.Report.full_listing rep)
  | Error e -> Printf.eprintf "figure4 analyze failed: %s\n" e);
  print_string (Obs.Trace.summary tr);
  let names = List.map (fun s -> s.Obs.Trace.s_name) (Obs.Trace.spans tr) in
  let json = Obs.Trace.to_chrome_json tr in
  Obs.Trace.set_enabled tr was_enabled;
  Obs.Trace.clear tr;
  expect "one span per post-processing pass"
    (List.for_all
       (fun n -> List.mem n names)
       [
         "analyze"; "symtab"; "assign"; "static-scan"; "arcgraph"; "cyclefind";
         "propagate"; "report"; "flat"; "graph"; "index";
       ]);
  expect "chrome export carries a traceEvents array"
    (contains ~needle:"\"traceEvents\":[" json)

(* The telemetry plane added with profd's live RPCs: what a poll
   costs. A client's steady state is capture -> serialize (daemon
   side) and parse -> diff (client side); all four must stay cheap
   enough to run every second against a registry the size ours
   actually reaches (~60 instruments after a long daemon run). *)
let t_telemetry () =
  section "snapshot fidelity on a daemon-sized registry";
  let r = Obs.Metrics.create () in
  for i = 0 to 39 do
    Obs.Metrics.incr ~by:(1 + (i * 17))
      (Obs.Metrics.counter r (Printf.sprintf "c.%02d" i))
  done;
  for i = 0 to 7 do
    Obs.Metrics.set (Obs.Metrics.gauge r (Printf.sprintf "g.%d" i)) (i * i)
  done;
  for i = 0 to 11 do
    let h = Obs.Metrics.histogram r (Printf.sprintf "h.%02d.latency" i) in
    for v = 0 to 99 do
      Obs.Metrics.observe h ((v * (i + 3)) mod 9000)
    done
  done;
  let snap = Obs.Snapshot.of_registry r in
  let json = Obs.Snapshot.to_json snap in
  (match Obs.Snapshot.of_json json with
  | Ok back ->
    expect "serialization carries every live counter and gauge value"
      (List.length back.Obs.Snapshot.counters = 40
      && List.length back.gauges = 8
      && List.for_all
           (fun (n, v) -> Obs.Metrics.find_counter r n = Some v)
           back.counters
      && List.for_all
           (fun (n, v) -> Obs.Metrics.find_gauge r n = Some v)
           back.gauges);
    expect "parse-back is exact" (back = snap)
  | Error e ->
    Printf.printf "  of_json failed: %s\n" e;
    expect "parse-back is exact" false);
  let self = Obs.Snapshot.diff ~before:snap ~after:snap in
  expect "self-diff zeroes every counter"
    (List.for_all (fun (_, v) -> v = 0) self.Obs.Snapshot.counters);
  expect "no monotonic violations against itself"
    (Obs.Snapshot.monotonic_violations ~before:snap ~after:snap = []);

  section "poll-path cost: capture, serialize, parse, diff (Bechamel)";
  let stage name f = Bechamel.Test.make ~name (Bechamel.Staged.stage f) in
  let grouped =
    Bechamel.Test.make_grouped ~name:"snapshot"
      [
        stage "capture" (fun () -> ignore (Obs.Snapshot.of_registry r));
        stage "serialize" (fun () -> ignore (Obs.Snapshot.to_json snap));
        stage "parse" (fun () -> ignore (Obs.Snapshot.of_json json));
        stage "diff" (fun () ->
            ignore (Obs.Snapshot.diff ~before:snap ~after:snap));
      ]
  in
  let ests = stats_of_benchmark grouped in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-20s %12.0f ns/op\n" name ns)
    (List.sort compare ests);
  (* A 1 Hz telemetry tick or proftop refresh spends one capture +
     serialize (daemon) or parse + diff (client); 1 ms/op each leaves
     the budget >99.5% idle even at a 10 Hz poll. *)
  List.iter
    (fun leg ->
      match List.assoc_opt ("snapshot/" ^ leg) ests with
      | Some ns ->
        Obs.Metrics.set
          (Obs.Metrics.gauge Obs.Metrics.default
             (Printf.sprintf "bench.snapshot.%s_ns" leg))
          (int_of_float ns);
        expect (Printf.sprintf "%s under 1 ms" leg) (ns < 1e6)
      | None -> expect (Printf.sprintf "estimate for %s" leg) false)
    [ "capture"; "serialize"; "parse"; "diff" ]

let register () =
  register "t-obs"
    "self-observability: metric sanity and pass spans"
    t_obs;
  register "t-telemetry"
    "telemetry plane: snapshot fidelity and capture/serialize/parse/diff cost"
    t_telemetry
