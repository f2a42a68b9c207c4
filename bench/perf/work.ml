(* The four workloads. Each one sets up its inputs from the seed, then
   runs whole passes over them until the time budget is spent, and
   returns its end-to-end metrics (untraced run) or its per-layer
   metrics (traced run).

   Every call into the system under test goes through the layer's
   public functions; [Meter.span] wraps the calls the library does not
   already trace itself, so a traced run sees one span per layer
   boundary. *)

open Meter

type ctx = {
  seed : int;
  seconds : float;
  trace : bool;
  scale : float;  (** 1.0 for a real run; the smoke test shrinks it *)
  dir : string;  (** this run's own directory for temporary files *)
  trace_dir : string;
}

(* The ops of one kind: the same call on the same input, which every
   pass repeats. Kinds whose ops a user waits on give the latency
   percentiles; the others count towards throughput only. *)
type kind = { latency : bool; times : samples  (** corrected seconds per op *) }

(* Host-side state of one run. Times are corrected to the nominal host
   speed ([Meter.host_speed]). *)
type run = {
  ctx : ctx;
  ops : (string, kind) Hashtbl.t;
  setups : samples;  (** corrected seconds per set-up *)
  mutable attempted : int;
  mutable failed : int;
  mutable untraced_s : float;  (** traced run: time of the untraced twins *)
  mutable traced_s : float;  (** traced run: time of the traced executions *)
  mutable flip : bool;
}

let new_run ctx =
  {
    ctx;
    ops = Hashtbl.create 64;
    setups = samples ();
    attempted = 0;
    failed = 0;
    untraced_s = 0.0;
    traced_s = 0.0;
    flip = false;
  }

let time f =
  let t0 = now () in
  let v = f () in
  (v, now () -. t0)

(* [time] at the nominal host speed. *)
let corrected f =
  let speed = host_speed () in
  let v, dt = time f in
  (v, dt *. speed)

let note r ?(latency = true) kind dt =
  match Hashtbl.find_opt r.ops kind with
  | Some k -> add k.times dt
  | None ->
    let k = { latency; times = samples () } in
    add k.times dt;
    Hashtbl.add r.ops kind k

(* Count one attempted operation; a false [ok] makes it a failed one. *)
let check r ok what =
  r.attempted <- r.attempted + 1;
  if not ok then begin
    r.failed <- r.failed + 1;
    if r.failed <= 5 then prerr_endline ("perf: FAILED: " ^ what)
  end

let check_result r what = function
  | Ok v ->
    check r true what;
    Some v
  | Error e ->
    check r false (what ^ ": " ^ e);
    None

(* Run one timed op of [kind]. A traced run executes the work twice,
   untraced and traced in alternating order, so the tracing overhead is
   measured on identical work; the traced result is kept. The work must
   therefore be repeatable. A traced run reports no end-to-end metric,
   so its times stay wall-clock, like its spans. *)
let work r ?latency ~kind f =
  let v, dt =
    if not r.ctx.trace then corrected f
    else begin
      r.flip <- not r.flip;
      let untraced () =
        let _, dt = time f in
        r.untraced_s <- r.untraced_s +. dt
      in
      let traced () =
        let v, dt = time (fun () -> traced f) in
        r.traced_s <- r.traced_s +. dt;
        (v, dt)
      in
      if r.flip then begin
        untraced ();
        traced ()
      end
      else
        let v = traced () in
        untraced ();
        v
    end
  in
  note r ?latency kind dt;
  v

(* The timed phase: whole passes until the budget is spent, at least
   one, from a compacted heap. Every pass runs every op kind the same
   number of times. After each pass of an untraced run, [resetup]
   repeats the set-up once more, so the set-up times are spread over
   the run like the ops are. *)
let min_setups = 5

let measured r ~resetup pass =
  Gc.compact ();
  let t0 = now () in
  let k = ref 0 in
  let again = r.ctx.seconds > 0.0 && not r.ctx.trace in
  while !k = 0 || now () -. t0 < r.ctx.seconds do
    pass !k;
    incr k;
    if again then resetup ()
  done;
  while again && count r.setups < min_setups do
    resetup ()
  done

(* ------------------------------------------------------------------ *)
(* Calls into the layers *)

let compile ~options src =
  match span "mini" "parse" (fun () -> Mini.Parser.parse_program src) with
  | exception Mini.Parser.Error (msg, _) -> Error ("parse: " ^ msg)
  | ast -> (
    match
      span "mini" "check" (fun () ->
          Mini.Check.check ~builtins:Compile.Builtins.arities ast
          @ Mini.Check.check_entry ast)
    with
    | e :: _ -> Error (Format.asprintf "check: %a" Mini.Check.pp_error e)
    | [] ->
      Result.map
        (fun obj -> (ast, obj))
        (span "compile" "codegen" (fun () ->
             Compile.Codegen.compile_program ~options ast)))

let pg = Compile.Codegen.profiling_options

type exec = {
  machine : Vm.Machine.t;
  halted : bool;
  run_s : float;
  run_words : float;  (** minor words allocated while running *)
}

let execute ?(config = Vm.Machine.default_config) obj =
  let machine = span "vm" "vm-create" (fun () -> Vm.Machine.create ~config obj) in
  let w0 = Gc.minor_words () in
  let status, run_s =
    time (fun () -> span "vm" "vm-run" (fun () -> Vm.Machine.run machine))
  in
  { machine; halted = status = Vm.Machine.Halted; run_s; run_words = Gc.minor_words () -. w0 }

let profile e = span "vm" "vm-profile" (fun () -> Vm.Machine.profile e.machine)

let printed e expected = e.halted && Vm.Machine.output e.machine = expected

let cycles e = Vm.Machine.cycles e.machine
let instrs e = Vm.Machine.instructions_executed e.machine

(* Exact simulated work of the first pass, and host speed over all of
   them. *)
type vm_counts = {
  mutable c_instrs : int;
  mutable c_cycles : int;
  mutable c_mcount : int;
  mutable c_words : float;
  mutable c_text : int;
}

let vm_counts () = { c_instrs = 0; c_cycles = 0; c_mcount = 0; c_words = 0.0; c_text = 0 }

let count_run c e =
  c.c_instrs <- c.c_instrs + instrs e;
  c.c_cycles <- c.c_cycles + cycles e;
  c.c_mcount <- c.c_mcount + Vm.Machine.mcount_cycles e.machine;
  c.c_words <- c.c_words +. e.run_words

let count_text c (obj : Objcode.Objfile.t) = c.c_text <- c.c_text + Array.length obj.text

type speed = { mutable s_time : float; mutable s_instrs : int }

let speed () = { s_time = 0.0; s_instrs = 0 }

let note_speed s e =
  s.s_time <- s.s_time +. e.run_s;
  s.s_instrs <- s.s_instrs + instrs e

let ns_per_instr s =
  if s.s_instrs = 0 then 0.0 else 1e9 *. s.s_time /. float_of_int s.s_instrs

let vm_layer c ~pg ~plain =
  [
    m "compile.text_instrs" "count" (float_of_int c.c_text);
    m "vm.instructions" "count" (float_of_int c.c_instrs);
    m "vm.cycles" "count" (float_of_int c.c_cycles);
    m "vm.mcount_cycles" "count" (float_of_int c.c_mcount);
    m "vm.alloc_words_per_instr" "words" (c.c_words /. float_of_int (max 1 c.c_instrs));
    m "vm.ns_per_instr.pg" "ns" (ns_per_instr pg);
    m "vm.ns_per_instr.plain" "ns" (ns_per_instr plain);
  ]

(* ------------------------------------------------------------------ *)
(* Set-up *)

(* A generated program with its reference output. *)
type prog = { p : Gen.t; src : string; expected : string }

let prog p = { p; src = Gen.source p; expected = Gen.expected_output p }

(* Run [setup] once, timed, and keep its result. The second value
   repeats it, timed, for [measured]'s [resetup], and drops the result
   ([release] undoes it). [setup_s] is the median of all these times. *)
let set_up r ?(release = ignore) setup =
  let timed () =
    let v, dt = corrected setup in
    add r.setups dt;
    v
  in
  let v = timed () in
  (v, fun () -> release (timed ()))

(* ------------------------------------------------------------------ *)
(* Results *)

type outcome = {
  run : run;
  rss_mb : float;
  overhead_pct : float;  (** traced run: traced over untraced, minus one *)
  layer : metric list;  (** the workload's own per-layer metrics *)
}

let outcome r ?(rss_mb = peak_rss_mb (Unix.getpid ())) layer =
  {
    run = r;
    rss_mb;
    overhead_pct = 100.0 *. ((r.traced_s /. r.untraced_s) -. 1.0);
    layer;
  }

(* Per-layer metrics read off the spans: the median duration per call
   of each named span. *)
let span_metrics ts =
  let ms name metric = m metric "ms" (median_ms ts name) in
  let self_of name =
    median
      (List.filter_map
         (fun t -> if t.sp.s_name = name then Some (t.self_us /. 1000.0) else None)
         ts)
  in
  [
    ms "parse" "mini.parse_ms";
    ms "check" "mini.check_ms";
    ms "codegen" "compile.codegen_ms";
    ms "vm-create" "vm.create_ms";
    ms "vm-run" "vm.run_ms";
    ms "vm-profile" "vm.profile_ms";
    ms "gmon-save" "gmon.save_ms";
    ms "gmon-load" "gmon.load_ms";
    ms "gmon-decode" "gmon.decode_ms";
    ms "analyze" "core.analyze_ms";
    ms "symtab" "core.symtab_ms";
    ms "assign" "core.assign_ms";
    ms "static-scan" "core.static_scan_ms";
    ms "arcgraph" "core.arcgraph_ms";
    ms "cyclefind" "core.cyclefind_ms";
    ms "propagate" "core.propagate_ms";
    ms "report" "core.render_ms";
    ms "graph" "core.graph_ms";
    ms "flat" "core.flat_ms";
    ms "index" "core.index_ms";
    ms "lint" "analysis.lint_ms";
    ms "cfg-build" "analysis.cfg_ms";
    ms "indirect-resolve" "analysis.indirect_ms";
    ms "optimize" "pgo.optimize_ms";
    m "pgo.self_ms" "ms" (self_of "optimize");
    ms "rpc-submit" "ingest.rpc_submit_ms";
    ms "rpc-query" "store.rpc_query_ms";
    ms "rpc-compact" "store.rpc_compact_ms";
  ]

(* Every traced run prints the same names; a workload that leaves a
   layer idle reports 0 for that layer's metrics. *)
let layer_defaults =
  [
    ("compile.text_instrs", "count");
    ("vm.instructions", "count");
    ("vm.cycles", "count");
    ("vm.mcount_cycles", "count");
    ("vm.alloc_words_per_instr", "words");
    ("vm.ns_per_instr.pg", "ns");
    ("vm.ns_per_instr.plain", "ns");
    ("vm.pg_overhead_pct", "%");
    ("gmon.bytes", "bytes");
    ("core.listing_bytes", "bytes");
    ("core.alloc_mwords", "Mwords");
    ("pgo.inlined", "count");
    ("pgo.reordered", "count");
    ("pgo.instr_saved", "count");
    ("pgo.cycles_ratio", "ratio");
    ("ingest.server_submit_ms", "ms");
    ("ingest.batches", "count");
    ("ingest.batch_mean", "count");
    ("store.server_report_ms", "ms");
    ("store.server_compact_ms", "ms");
    ("store.cache_hit_ratio", "ratio");
    ("store.tail_segments_mean", "count");
  ]

(* Ops per second: every kind's ops at that kind's median time. *)
let ops_per_s r =
  let n, t =
    Hashtbl.fold
      (fun _ k (n, t) ->
        let c = count k.times in
        (n + c, t +. (float_of_int c *. median (values k.times))))
      r.ops (0, 0.0)
  in
  float_of_int n /. t

(* The latency of every op of the latency kinds, in ms: each op counts
   at its kind's median time, so the percentiles describe how op costs
   spread over the inputs, not how a neighbour's load spread them. *)
let latencies r =
  Hashtbl.fold
    (fun _ k acc ->
      if k.latency then
        let ms = 1000.0 *. median (values k.times) in
        List.rev_append (List.init (count k.times) (fun _ -> ms)) acc
      else acc)
    r.ops []

let finish ~workload o =
  let r = o.run in
  let metrics =
    if not r.ctx.trace then
      let lat = latencies r in
      [
        m "setup_s" "s" (median (values r.setups));
        m "ops_per_s" "1/s" (ops_per_s r);
        m "op_p50_ms" "ms" (quantile lat 0.5);
        m "op_p90_ms" "ms" (quantile lat 0.9);
        m "peak_rss_mb" "MB" o.rss_mb;
      ]
    else begin
      let ts = self_times () in
      let rows = layer_self_ms ts in
      let wall_ms = 1000.0 *. r.traced_s in
      let table = self_table ~workload ~wall_ms rows in
      prerr_string table;
      Out_channel.with_open_text
        (Filename.concat r.ctx.trace_dir (workload ^ ".layers.txt"))
        (fun oc -> output_string oc table);
      Obs.Trace.save_chrome Obs.Trace.default
        (Filename.concat r.ctx.trace_dir (workload ^ ".trace.json"));
      let given = List.map (fun x -> x.name) o.layer in
      let idle =
        List.filter_map
          (fun (name, u) -> if List.mem name given then None else Some (m name u 0.0))
          layer_defaults
      in
      let covered = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 rows in
      span_metrics ts @ o.layer @ idle
      @ List.map (fun (l, ms) -> m ("self." ^ l ^ "_pct") "%" (100.0 *. ms /. wall_ms)) rows
      @ [
          m "self.covered_pct" "%" (100.0 *. covered /. wall_ms);
          m "trace_overhead_pct" "%" o.overhead_pct;
        ]
    end
  in
  {
    correct = r.failed = 0 && r.attempted > 0;
    attempted = r.attempted;
    failed = r.failed;
    metrics;
  }

(* ------------------------------------------------------------------ *)
(* run-long *)

let run_long ctx =
  let r = new_run ctx in
  let progs, resetup =
    set_up r (fun () ->
        Array.init 10 (fun slot -> prog (Gen.run_long ~seed:ctx.seed ~scale:ctx.scale slot)))
  in
  let counts = vm_counts () in
  let cyc = Array.make_matrix (Array.length progs) 2 1 in
  let speeds = [| speed (); speed () |] in
  let builds = [| pg; Compile.Codegen.default_options |] in
  measured r ~resetup (fun pass ->
      Array.iteri
        (fun i input ->
          (* the two builds take turns going first, pass by pass *)
          for j = 0 to 1 do
            let kind = (j + pass) mod 2 in
            let out =
              work r ~kind:(Printf.sprintf "%s-%d" input.p.name kind) (fun () ->
                  Result.map
                    (fun (_, obj) -> (obj, execute obj))
                    (compile ~options:builds.(kind) input.src))
            in
            match out with
            | Error e -> check r false (input.p.name ^ ": " ^ e)
            | Ok (obj, e) ->
              check r (printed e input.expected) (input.p.name ^ ": wrong output");
              note_speed speeds.(kind) e;
              if pass = 0 then begin
                count_run counts e;
                count_text counts obj;
                cyc.(i).(kind) <- cycles e
              end
          done)
        progs);
  let overhead =
    geomean
      (Array.to_list (Array.map (fun c -> float_of_int c.(0) /. float_of_int c.(1)) cyc))
  in
  outcome r
    (vm_layer counts ~pg:speeds.(0) ~plain:speeds.(1)
    @ [ m "vm.pg_overhead_pct" "%" (100.0 *. (overhead -. 1.0)) ])

(* ------------------------------------------------------------------ *)
(* report-large *)

(* Time is conserved: the flat profile's self times sum to the total,
   and the total plus what fell outside every routine is exactly the
   profile's ticks. *)
let conserved (rep : Gprof_core.Report.t) (g : Gmon.t) =
  let p = rep.profile in
  let flat =
    Array.fold_left (fun a (e : Gprof_core.Profile.entry) -> a +. e.e_self) 0.0 p.entries
  in
  Float.abs (flat -. p.total_time) <= 1e-6
  && Float.abs (p.total_time +. p.unattributed -. Gmon.total_seconds g) <= 1e-6

let report_large ctx =
  let r = new_run ctx in
  let progs, resetup =
    set_up r (fun () ->
        Array.init (Array.length Gen.report_sizes) (fun slot ->
            prog (Gen.report_large ~seed:ctx.seed ~scale:ctx.scale slot)))
  in
  let counts = vm_counts () and speed_pg = speed () in
  let gmon_bytes = ref 0 and listing_bytes = ref 0 and words = samples () in
  let file i = Filename.concat ctx.dir (Printf.sprintf "p%d.gmon" i) in
  measured r ~resetup (fun pass ->
      let objs =
        Array.map
          (fun input ->
            work r ~latency:false ~kind:("compile-" ^ input.p.name) (fun () -> compile ~options:pg input.src)
            |> check_result r (input.p.name ^ ": compile")
            |> Option.map (fun (_, obj) ->
                   if pass = 0 then count_text counts obj;
                   obj))
          progs
      in
      (* one short run per program, with a fresh VM seed every pass *)
      Array.iteri
        (fun i input ->
          Option.iter
            (fun obj ->
              let config =
                { Vm.Machine.default_config with tick_jitter = 0.3; seed = 1 + pass }
              in
              let e, saved =
                work r ~latency:false ~kind:("run-" ^ input.p.name) (fun () ->
                    let e = execute ~config obj in
                    (e, Gmon.save (profile e) (file i)))
              in
              check r
                (printed e input.expected && Result.is_ok saved)
                (input.p.name ^ ": run or save failed");
              note_speed speed_pg e;
              if pass = 0 then begin
                count_run counts e;
                gmon_bytes := !gmon_bytes + (Unix.stat (file i)).st_size
              end)
            objs.(i))
        progs;
      Array.iteri
        (fun i ->
          Option.iter (fun obj ->
              let name = progs.(i).p.name in
              let out =
                work r ~kind:("report-" ^ name) (fun () ->
                    Result.bind (Gmon.load (file i)) (fun g ->
                        let w0 = Gc.minor_words () in
                        Result.map
                          (fun rep ->
                            let listing = Gprof_core.Report.full_listing rep in
                            (g, rep, listing, Gc.minor_words () -. w0))
                          (Gprof_core.Report.analyze obj g)))
              in
              match check_result r (name ^ ": report") out with
              | None -> ()
              | Some (g, rep, listing, w) ->
                check r (conserved rep g) (name ^ ": time not conserved");
                add words w;
                if pass = 0 then listing_bytes := !listing_bytes + String.length listing))
        objs);
  outcome r
    (vm_layer counts ~pg:speed_pg ~plain:(speed ())
    @ [
        m "gmon.bytes" "bytes" (float_of_int !gmon_bytes);
        m "core.listing_bytes" "bytes" (float_of_int !listing_bytes);
        m "core.alloc_mwords" "Mwords" (median (values words) /. 1e6);
      ])

(* ------------------------------------------------------------------ *)
(* pgo-loop *)

let pgo_loop ctx =
  let r = new_run ctx in
  let progs, resetup =
    set_up r (fun () ->
        Array.init Gen.pgo_programs (fun slot ->
            prog (Gen.pgo_loop ~seed:ctx.seed ~scale:ctx.scale slot)))
  in
  let counts = vm_counts () and speed_pg = speed () in
  let ratios = ref [] and inlined = ref 0 and reordered = ref 0 and saved = ref 0 in
  measured r ~resetup (fun pass ->
      Array.iter
        (fun input ->
          (* one round: profiled build, short run, optimize, run the
             optimized build *)
          let out =
            work r ~kind:input.p.name (fun () ->
                Result.bind (compile ~options:pg input.src) (fun (ast, obj) ->
                    let base = execute obj in
                    if not base.halted then Error "baseline run did not halt"
                    else
                      Result.map
                        (fun (opt_obj, report) -> (obj, base, report, execute opt_obj))
                        (span "pgo" "optimize" (fun () ->
                             Pgo.optimize ~options:pg ~source_name:input.p.name ast
                               (profile base)))))
          in
          match check_result r (input.p.name ^ ": pgo round") out with
          | None -> ()
          | Some (obj, base, report, opt) ->
            check r
              (printed base input.expected && printed opt input.expected)
              (input.p.name ^ ": optimized build changed the output");
            note_speed speed_pg base;
            note_speed speed_pg opt;
            if pass = 0 then begin
              count_text counts obj;
              count_run counts base;
              count_run counts opt;
              ratios := (float_of_int (cycles opt) /. float_of_int (cycles base)) :: !ratios;
              inlined := !inlined + List.length report.Pgo.p_inline_names;
              reordered := !reordered + List.length report.Pgo.p_reorder;
              saved := !saved + (instrs base - instrs opt)
            end)
        progs);
  outcome r
    (vm_layer counts ~pg:speed_pg ~plain:(speed ())
    @ [
        m "pgo.inlined" "count" (float_of_int !inlined);
        m "pgo.reordered" "count" (float_of_int !reordered);
        m "pgo.instr_saved" "count" (float_of_int !saved);
        m "pgo.cycles_ratio" "ratio" (geomean !ratios);
      ])

(* ------------------------------------------------------------------ *)
(* fleet-mixed *)

let fleet_profiles = 16
let fleet_labels = 16
let query_every = 40

(* Query blocks per pass; a pass ends with a COMPACT. *)
let blocks_per_pass = 5
let label k = Printf.sprintf "svc-%02d" k

(* Daemons this process started and has not yet stopped. *)
let daemons : int list ref = ref []

type daemon = { pid : int; socket : string }

(* The daemon is [Server.serve] in a forked child: 8 shards, batches
   of 32, a queue capped at 256, the store under this run's
   directory. *)
let start_daemon ctx k =
  let store = Filename.concat ctx.dir (Printf.sprintf "store%d" k) in
  let socket = Filename.concat ctx.dir (Printf.sprintf "d%d.sock" k) in
  flush_all ();
  match Unix.fork () with
  | 0 ->
    let code =
      try
        Obs.Metrics.reset Obs.Metrics.default;
        Obs.Trace.clear Obs.Trace.default;
        Obs.Trace.set_enabled Obs.Trace.default ctx.trace;
        let stop = ref false in
        Sys.set_signal Sys.sigterm (Sys.Signal_handle (fun _ -> stop := true));
        match Store.open_ ~shards:8 store with
        | Error e ->
          prerr_endline ("perf: daemon: " ^ e);
          1
        | Ok (st, _) -> (
          let ingest = Ingest.create ~max_batch:32 ~queue_cap:256 st in
          match
            Server.serve (Server.default_config ~socket) ingest
              ~stop_requested:(fun () -> !stop)
              ~events:(Obs.Eventlog.to_stderr ~level:Obs.Eventlog.Warn ())
          with
          | Error e ->
            prerr_endline ("perf: daemon: " ^ e);
            1
          | Ok () ->
            if ctx.trace then
              Obs.Trace.save_chrome Obs.Trace.default
                (Filename.concat ctx.trace_dir "fleet-mixed.daemon.trace.json");
            0)
      with e ->
        prerr_endline ("perf: daemon: " ^ Printexc.to_string e);
        1
    in
    Unix._exit code
  | pid ->
    daemons := pid :: !daemons;
    (* poll every 2 ms, not with a growing back-off, so the set-up time
       is not rounded up to the next back-off step *)
    let deadline = now () +. 30.0 in
    let rec ready () =
      match Proto.rpc ~timeout:1.0 ~socket Proto.Query_stats with
      | Ok _ -> { pid; socket }
      | Error e when now () > deadline -> failwith ("daemon did not start: " ^ e)
      | Error _ ->
        Unix.sleepf 0.002;
        ready ()
    in
    ready ()

let reap pid =
  (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
  daemons := List.filter (( <> ) pid) !daemons

let stop_daemon d =
  (match Proto.rpc ~socket:d.socket Proto.Shutdown with
  | Ok (Proto.Resp_ok _) -> ()
  | _ -> ( try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ()));
  reap d.pid

(* Stop whatever a failed run left behind. *)
let kill_daemons () =
  List.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      reap pid)
    !daemons

let submit_kind = function
  | Ok (Proto.Resp_ok text) when String.starts_with ~prefix:"flushed" text -> "submit-flush"
  | _ -> "submit"

type fleet_setup = {
  profiles : Gmon.t array;
  payloads : string array;
  runs_ok : bool;
  daemon : daemon;
}

let fleet_mixed ctx =
  let r = new_run ctx in
  let setups = ref 0 in
  let s, resetup =
    set_up r
      ~release:(fun s -> stop_daemon s.daemon)
      (fun () ->
        let input = prog (Gen.fleet ~seed:ctx.seed ~scale:ctx.scale) in
        let runs =
          match compile ~options:pg input.src with
          | Error e -> failwith ("fleet program: " ^ e)
          | Ok (_, obj) ->
            Array.init fleet_profiles (fun k ->
                execute
                  ~config:{ Vm.Machine.default_config with tick_jitter = 0.3; seed = k + 1 }
                  obj)
        in
        let profiles = Array.map profile runs in
        incr setups;
        {
          profiles;
          payloads = Array.map Gmon.to_bytes profiles;
          runs_ok = Array.for_all (fun e -> printed e input.expected) runs;
          daemon = start_daemon ctx !setups;
        })
  in
  check r s.runs_ok "fleet payload runs printed the wrong output";
  let socket = s.daemon.socket in
  let rng = Random.State.make [| ctx.seed; 500 |] in
  let blocks = max 2 (int_of_float (Float.round (float_of_int blocks_per_pass *. ctx.scale))) in
  let submitted = ref [] and n_sub = ref 0 and first_pass_bytes = ref 0 in
  let tails = samples () in
  (* traced run: every other block of [query_every] submits plus one
     query is traced; the others give the untraced baseline *)
  let block_s = [| 0.0; 0.0 |] and block_ops = [| 0; 0 |] in
  (* an RPC's kind is its verb, whether a submit flushed a batch, and a
     query's place in the pass, since a query costs more the more
     segments have piled up since the last COMPACT *)
  let rpc ~traced_block ~ops ~kind layer name req =
    let go () = span layer name (fun () -> Proto.rpc ~socket req) in
    let resp, dt =
      if ctx.trace then time (fun () -> if traced_block then traced go else go ())
      else corrected go
    in
    note r (kind resp) dt;
    if ops then begin
      let b = if traced_block then 1 else 0 in
      block_s.(b) <- block_s.(b) +. dt;
      block_ops.(b) <- block_ops.(b) + 1
    end;
    resp
  in
  let ok what = function
    | Ok (Proto.Resp_ok payload) ->
      check r true what;
      Some payload
    | Ok (Proto.Resp_busy _) ->
      check r false (what ^ ": BUSY");
      None
    | Ok (Proto.Resp_err e) | Error e ->
      check r false (what ^ ": " ^ e);
      None
  in
  measured r ~resetup (fun pass ->
      for b = 0 to blocks - 1 do
        let traced_block = ctx.trace && b mod 2 = 1 in
        let t0 = now () in
        for _ = 1 to query_every do
          let k = Random.State.int rng fleet_profiles in
          let label = label (Random.State.int rng fleet_labels) in
          let id = Some (Printf.sprintf "s%d" !n_sub) in
          rpc ~traced_block ~ops:true ~kind:submit_kind "ingest" "rpc-submit"
            (Proto.Submit { label; id; payload = s.payloads.(k) })
          |> ok "submit"
          |> Option.iter (fun _ ->
                 submitted := k :: !submitted;
                 incr n_sub;
                 if pass = 0 then
                   first_pass_bytes := !first_pass_bytes + String.length s.payloads.(k))
        done;
        (* the traced run reads the store's tail before each query;
           untraced blocks too, so both see the same flush pattern *)
        if ctx.trace then
          rpc ~traced_block ~ops:false ~kind:(fun _ -> "stats") "store" "rpc-stats" Proto.Query_stats
          |> ok "stats"
          |> Option.iter (fun json ->
                 let open Obs.Jsonin in
                 match Option.bind (member "store" (parse_exn json)) (member "segments") with
                 | Some (Int n) -> add tails (float_of_int n)
                 | _ -> ());
        rpc ~traced_block ~ops:true ~kind:(fun _ -> Printf.sprintf "query-%d" b) "store" "rpc-query"
          Proto.Query_report
        |> ok "query"
        |> Option.iter (fun payload ->
               let decode () = span "gmon" "gmon-decode" (fun () -> Gmon.of_bytes payload) in
               match if traced_block then traced decode else decode () with
               | Ok g -> check r (g.Gmon.runs = !n_sub) "query missed submitted runs"
               | Error e -> check r false ("query payload: " ^ e));
        if traced_block then r.traced_s <- r.traced_s +. (now () -. t0)
      done;
      let traced_block = ctx.trace && pass mod 2 = 1 in
      let t0 = now () in
      rpc ~traced_block ~ops:false ~kind:(fun _ -> "compact") "store" "rpc-compact" Proto.Compact
      |> ok "compact" |> ignore;
      if traced_block then r.traced_s <- r.traced_s +. (now () -. t0));
  let rss_mb = max (peak_rss_mb (Unix.getpid ())) (peak_rss_mb s.daemon.pid) in
  let snapshot =
    match Proto.rpc ~socket Proto.Query_metrics with
    | Ok (Proto.Resp_ok json) -> Result.to_option (Obs.Snapshot.of_json json)
    | _ -> None
  in
  (* the daemon's final merged view must be the offline merge of
     everything submitted *)
  (match ok "final query" (Proto.rpc ~socket Proto.Query_report) with
  | None -> ()
  | Some payload ->
    let offline = Gmon.merge_all (List.rev_map (fun k -> s.profiles.(k)) !submitted) in
    check r
      (match (Gmon.of_bytes payload, offline) with
      | Ok g, Ok o -> Gmon.equal g o
      | _ -> false)
      "final merged view differs from the offline merge");
  stop_daemon s.daemon;
  let counter name =
    float_of_int
      (Option.value ~default:0
         (Option.bind snapshot (fun sn -> Obs.Snapshot.find_counter sn name)))
  in
  let mean_ms name =
    match Option.bind snapshot (fun sn -> Obs.Snapshot.find_hist sn name) with
    | Some h when h.h_count > 0 -> float_of_int h.h_sum /. float_of_int h.h_count /. 1000.0
    | _ -> 0.0
  in
  let hits = counter "store.cache.hits" and misses = counter "store.cache.misses" in
  let batches = counter "ingest.batches" in
  let mean b = block_s.(b) /. float_of_int (max 1 block_ops.(b)) in
  {
    (outcome r ~rss_mb
       [
         m "gmon.bytes" "bytes" (float_of_int !first_pass_bytes);
         m "ingest.server_submit_ms" "ms" (mean_ms "profd.rpc.submit.latency");
         m "ingest.batches" "count" batches;
         m "ingest.batch_mean" "count" (counter "ingest.flushed_profiles" /. max 1.0 batches);
         m "store.server_report_ms" "ms" (mean_ms "profd.rpc.report.latency");
         m "store.server_compact_ms" "ms" (mean_ms "profd.rpc.compact.latency");
         m "store.cache_hit_ratio" "ratio" (hits /. max 1.0 (hits +. misses));
         m "store.tail_segments_mean" "count" (Util.Stats.mean (values tails));
       ])
    with
    overhead_pct = 100.0 *. ((mean 1 /. mean 0) -. 1.0);
  }
