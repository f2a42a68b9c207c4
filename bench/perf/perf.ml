(* The repository benchmark.

     dune exec bench/perf/perf.exe -- --workload W --seed N [--seconds S]
                                      [--trace 0|1] [--json OUT]
     dune exec bench/perf/perf.exe -- --seed N          # every workload
     dune exec bench/perf/perf.exe -- --repeat 10       # calibration
     dune exec bench/perf/perf.exe -- --smoke           # quick self-check

   Each workload runs in its own forked child, one at a time. A run
   prints every metric with its unit, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}. With
   [--trace 0] the metrics are the end-to-end ones; [--trace 1] is a
   separate run that gives the per-layer ones and writes a Chrome trace
   and a layer self-time table under _perf/trace/. End-to-end times are
   corrected to a nominal host speed (Meter.host_speed). The exit code
   is 0 only when every output matched its reference. BENCHMARK.json at
   the repository root names the workloads and metrics; README.md here
   explains them. *)

let workloads =
  [
    ("run-long", Work.run_long);
    ("report-large", Work.report_large);
    ("pgo-loop", Work.pgo_loop);
    ("fleet-mixed", Work.fleet_mixed);
  ]

let out_dir = "_perf"

let rec remove_tree p =
  match Sys.is_directory p with
  | true ->
    Array.iter (fun n -> remove_tree (Filename.concat p n)) (Sys.readdir p);
    Unix.rmdir p
  | false -> Sys.remove p
  | exception Sys_error _ -> ()

let mkdir_p p = if not (Sys.file_exists p) then Unix.mkdir p 0o755

(* Run one workload in a forked child; its result comes back as the
   JSON line it writes into a pipe. *)
let run_child ~name ~seed ~seconds ~trace ~scale =
  let run = List.assoc name workloads in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    Unix.close rd;
    let dir = Filename.concat out_dir (Printf.sprintf "run-%d" (Unix.getpid ())) in
    let trace_dir = Filename.concat out_dir "trace" in
    let code =
      try
        Meter.pin_to_current_cpu ();
        List.iter mkdir_p [ out_dir; trace_dir; dir ];
        let ctx = { Work.seed; seconds; trace; scale; dir; trace_dir } in
        let result = Work.finish ~workload:name (run ctx) in
        let line = Meter.to_json result ^ "\n" in
        ignore (Unix.write_substring wr line 0 (String.length line));
        0
      with e ->
        Printf.eprintf "perf: %s: %s\n%!" name (Printexc.to_string e);
        Work.kill_daemons ();
        1
    in
    remove_tree dir;
    Unix._exit code
  | pid ->
    Unix.close wr;
    let ic = Unix.in_channel_of_descr rd in
    let text = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    Meter.of_json (String.trim text)

let print_result name (r : Meter.result) =
  Printf.printf "%s: %s, %d ops attempted, %d failed\n" name
    (if r.correct then "correct" else "INCORRECT")
    r.attempted r.failed;
  List.iter
    (fun (x : Meter.metric) -> Printf.printf "  %-28s %16.6f %s\n" x.name x.value x.unit_)
    r.metrics

(* The result line for several workloads: metric names get a
   "<workload>/" prefix. *)
let combine results =
  List.fold_left
    (fun (acc : Meter.result) (name, (r : Meter.result)) ->
      {
        correct = acc.correct && r.correct;
        attempted = acc.attempted + r.attempted;
        failed = acc.failed + r.failed;
        metrics =
          acc.metrics
          @ List.map (fun (x : Meter.metric) -> { x with name = name ^ "/" ^ x.name }) r.metrics;
      })
    { correct = true; attempted = 0; failed = 0; metrics = [] }
    results

let failed_run = { Meter.correct = false; attempted = 1; failed = 1; metrics = [] }

let run_all ~names ~seed ~seconds ~trace ~json =
  let results =
    List.map
      (fun name ->
        let r =
          Option.value ~default:failed_run (run_child ~name ~seed ~seconds ~trace ~scale:1.0)
        in
        print_result name r;
        (name, r))
      names
  in
  let line =
    match results with [ (_, r) ] -> r | rs -> combine rs
  in
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc ->
          Printf.fprintf oc "{\"seed\": %d, \"trace\": %b, \"seconds\": %g, \"workloads\": {%s}}\n"
            seed trace seconds
            (String.concat ", "
               (List.map (fun (n, r) -> Printf.sprintf "\"%s\": %s" n (Meter.to_json r)) results))))
    json;
  print_endline (Meter.to_json line);
  if line.correct then 0 else 1

(* --repeat N: every metric's median and relative IQR over N seeds. *)
let calibrate ~names ~seed ~seconds ~trace ~n =
  let ok = ref true in
  List.iter
    (fun name ->
      let runs =
        List.init n (fun k ->
            Printf.eprintf "perf: %s seed %d (%d/%d)\n%!" name (seed + k) (k + 1) n;
            match run_child ~name ~seed:(seed + k) ~seconds ~trace ~scale:1.0 with
            | Some r when r.correct -> r
            | _ ->
              ok := false;
              failed_run)
      in
      Printf.printf "%s over %d seeds from %d:\n  %-28s %14s %9s %9s\n" name n seed "metric"
        "median" "IQR/med" "max/min";
      match runs with
      | [] -> ()
      | first :: _ ->
        List.iter
          (fun (x : Meter.metric) ->
            let vs =
              List.filter_map
                (fun (r : Meter.result) ->
                  List.find_opt (fun (y : Meter.metric) -> y.name = x.name) r.metrics
                  |> Option.map (fun (y : Meter.metric) -> y.value))
                runs
            in
            let med = Meter.median vs in
            let iqr = Meter.quantile vs 0.75 -. Meter.quantile vs 0.25 in
            let lo = List.fold_left min infinity vs and hi = List.fold_left max neg_infinity vs in
            Printf.printf "  %-28s %14.6f %8.2f%% %9.3f\n%!" x.name med
              (if med = 0.0 then 0.0 else 100.0 *. iqr /. med)
              (if lo = 0.0 then 0.0 else hi /. lo))
          first.metrics)
    names;
  if !ok then 0 else 1

(* --smoke: every workload at about 1% scale, checking that outputs
   are correct, that every metric BENCHMARK.json names is printed with
   its unit, and that the exact counts repeat on the same seed and move
   with the seed. *)
let exact =
  [
    "compile.text_instrs"; "vm.instructions"; "vm.cycles"; "vm.mcount_cycles";
    "vm.pg_overhead_pct"; "gmon.bytes"; "core.listing_bytes"; "pgo.inlined";
    "pgo.reordered"; "pgo.instr_saved"; "pgo.cycles_ratio";
  ]

(* Small counts may coincide across seeds; the large ones may not. *)
let must_move = [ "compile.text_instrs"; "vm.cycles"; "gmon.bytes"; "core.listing_bytes" ]

let declared key =
  let open Obs.Jsonin in
  match parse (In_channel.with_open_text "BENCHMARK.json" In_channel.input_all) with
  | Error e -> failwith ("BENCHMARK.json: " ^ e)
  | Ok v ->
    Option.value ~default:[] (Option.bind (member key v) to_list)
    |> List.filter_map (fun x ->
           match (Option.bind (member "name" x) to_string, Option.bind (member "unit" x) to_string) with
           | Some n, Some u -> Some (n, u)
           | _ -> None)

let smoke () =
  let e2e = declared "end_to_end" and layer = declared "per_layer" in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let run name ~seed ~trace =
    match run_child ~name ~seed ~seconds:0.0 ~trace ~scale:0.02 with
    | None ->
      problem "%s: seed %d trace %b: no result" name seed trace;
      failed_run
    | Some r ->
      if not r.correct || r.failed > 0 then
        problem "%s: seed %d trace %b: %d of %d ops failed" name seed trace r.failed r.attempted;
      r
  in
  let value (r : Meter.result) n =
    List.find_opt (fun (x : Meter.metric) -> x.name = n) r.metrics
  in
  let has name (r : Meter.result) declared =
    List.iter
      (fun (n, u) ->
        match value r n with
        | Some x when x.unit_ = u -> ()
        | Some x -> problem "%s: %s printed in %s, declared %s" name n x.unit_ u
        | None -> problem "%s: %s not printed" name n)
      declared
  in
  List.iter
    (fun (name, _) ->
      has name (run name ~seed:1 ~trace:false) e2e;
      let a = run name ~seed:1 ~trace:true in
      let b = run name ~seed:1 ~trace:true in
      let c = run name ~seed:2 ~trace:true in
      has name a layer;
      List.iter
        (fun n ->
          match (value a n, value b n, value c n) with
          | Some x, Some y, Some z ->
            if x.value <> y.value then
              problem "%s: %s differs on one seed: %g vs %g" name n x.value y.value;
            if List.mem n must_move && x.value <> 0.0 && x.value = z.value then
              problem "%s: %s did not change with the seed" name n
          | _ -> problem "%s: exact count %s missing" name n)
        exact)
    workloads;
  List.iter (fun p -> prerr_endline ("perf smoke: " ^ p)) (List.rev !problems);
  if !problems = [] then 0 else 1

let usage =
  "perf.exe [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--json OUT]\n\
  \         [--repeat N] [--smoke]"

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let names = ref [] and seed = ref 1 and seconds = ref 20.0 and trace = ref false in
  let json = ref None and repeat = ref 0 and smoke_mode = ref false in
  let spec =
    [
      ( "--workload",
        Arg.Symbol
          (List.map fst workloads, fun w -> names := !names @ [ w ]),
        " run only this workload (repeatable; default all)" );
      ("--seed", Arg.Set_int seed, "N input seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S time budget of the timed phase (default 20)");
      ( "--trace",
        Arg.Symbol ([ "0"; "1" ], fun t -> trace := t = "1"),
        " 1 = the traced run: per-layer metrics instead of end-to-end ones" );
      ("--json", Arg.String (fun p -> json := Some p), "OUT also write the results to OUT");
      ("--repeat", Arg.Set_int repeat, "N calibrate: median and IQR of each metric over N seeds");
      ( "--smoke",
        Arg.Set smoke_mode,
        " quick self-check of every workload at 1% scale, against ./BENCHMARK.json" );
    ]
  in
  Arg.parse (Arg.align spec) (fun a -> raise (Arg.Bad ("unexpected argument " ^ a))) usage;
  let names = if !names = [] then List.map fst workloads else !names in
  let code =
    if !smoke_mode then smoke ()
    else if !repeat > 0 then
      calibrate ~names ~seed:!seed ~seconds:!seconds ~trace:!trace ~n:!repeat
    else run_all ~names ~seed:!seed ~seconds:!seconds ~trace:!trace ~json:!json
  in
  exit code
