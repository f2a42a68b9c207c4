(* Microbenchmarks: the arc-table keying ablation (§3.1's design
   argument) and throughput of the post-processor's hot paths, timed
   with Bechamel. *)

open Harness

(* §3.1: "We use the call site as the primary key … Another
   alternative would use the callee as the primary key … at the
   expense of longer lookups in the monitoring routine." *)
let t_hash () =
  section "modelled probe counts on real workloads";
  let t =
    Util.Table.create
      [ ("workload", Util.Table.Left); ("keying", Util.Table.Left);
        ("records", Util.Table.Right); ("probes", Util.Table.Right);
        ("probes/record", Util.Table.Right); ("mcount cycles", Util.Table.Right) ]
  in
  let measured =
    List.concat_map
      (fun w ->
        List.map
          (fun keying ->
            let config = { Vm.Machine.default_config with keying } in
            let r = run_workload ~config w in
            let mon = Vm.Machine.monitor r.machine in
            let records = Vm.Monitor.total_records mon in
            let probes = Vm.Monitor.total_probes mon in
            Util.Table.add_row t
              [
                w.Workloads.Programs.w_name;
                (match keying with
                | Vm.Monitor.Site_primary -> "call-site primary"
                | Vm.Monitor.Callee_primary -> "callee primary");
                string_of_int records;
                string_of_int probes;
                Printf.sprintf "%.2f" (float_of_int probes /. float_of_int records);
                string_of_int (Vm.Machine.mcount_cycles r.machine);
              ];
            ((w.Workloads.Programs.w_name, keying), (probes, records)))
          [ Vm.Monitor.Site_primary; Vm.Monitor.Callee_primary ])
      Workloads.Programs.[ matrix; indirect; explore ]
  in
  Util.Table.print t;
  let per_record w k =
    let probes, records = List.assoc (w, k) measured in
    float_of_int probes /. float_of_int records
  in
  (* The trade-off exactly as §3.1 argues it: keying by callee makes
     lookups longer wherever a routine has many callers (explore's
     write_out); keying by call site only ever chains at sites with
     multiple destinations — functional variables (indirect). *)
  expect "with many callers per callee (explore), callee keying probes ~2x more"
    (per_record "explore" Vm.Monitor.Callee_primary
    > 1.8 *. per_record "explore" Vm.Monitor.Site_primary);
  expect
    "call-site keying probes exactly once per record when every site has one callee"
    (per_record "matrix" Vm.Monitor.Site_primary < 1.001
    && per_record "explore" Vm.Monitor.Site_primary < 1.001);
  expect "only functional-variable sites (indirect) lengthen call-site chains"
    (per_record "indirect" Vm.Monitor.Site_primary > 1.2);

  section "host-time microbenchmark of the two table layouts (Bechamel)";
  (* A synthetic record stream: 64 call sites calling 8 shared
     callees, the shape that separates the layouts. *)
  let stream =
    let prng = Util.Prng.create 42 in
    Array.init 4096 (fun _ ->
        (Util.Prng.int prng 64 * 4, 600 + (Util.Prng.int prng 8 * 4)))
  in
  let bench keying name =
    Bechamel.Test.make ~name
      (Bechamel.Staged.stage (fun () ->
           let mon = Vm.Monitor.create ~text_size:1024 ~keying in
           Array.iter
             (fun (frompc, selfpc) -> ignore (Vm.Monitor.record mon ~frompc ~selfpc))
             stream))
  in
  let grouped =
    Bechamel.Test.make_grouped ~name:"mcount"
      [ bench Vm.Monitor.Site_primary "site-primary";
        bench Vm.Monitor.Callee_primary "callee-primary" ]
  in
  let ests = stats_of_benchmark grouped in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-28s %12.0f ns/run\n" name ns)
    (List.sort compare ests);
  let est name =
    List.assoc_opt name ests
  in
  match (est "mcount/site-primary", est "mcount/callee-primary") with
  | Some site, Some callee ->
    expect "site-primary is at least as fast on the shared-callee stream"
      (site <= callee *. 1.10)
  | _ -> expect "bechamel produced estimates for both layouts" false

(* Throughput of the analysis hot paths on large random inputs. *)
let bench_core () =
  let prng = Util.Prng.create 7 in
  let n = 2000 in
  let g =
    Graphlib.Digraph.of_arcs ~n
      (List.init 8000 (fun _ ->
           let src = Util.Prng.int prng n in
           let dst = Util.Prng.int prng n in
           (src, dst, 1 + Util.Prng.int prng 50)))
  in
  let o = (run_workload Workloads.Programs.codegen).objfile in
  let gmon = (run_workload Workloads.Programs.codegen).gmon in
  let vm_obj =
    match
      Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options
        Workloads.Programs.quick.w_source
    with
    | Ok o -> o
    | Error e -> failwith e
  in
  let tests =
    Bechamel.Test.make_grouped ~name:"core"
      [
        Bechamel.Test.make ~name:"tarjan-scc-2k-nodes"
          (Bechamel.Staged.stage (fun () -> ignore (Graphlib.Tarjan.scc g)));
        Bechamel.Test.make ~name:"condense-2k-nodes"
          (Bechamel.Staged.stage (fun () -> ignore (Graphlib.Condense.condense g)));
        Bechamel.Test.make ~name:"gprof-analyze-codegen"
          (Bechamel.Staged.stage (fun () ->
               ignore (Gprof_core.Report.analyze o gmon)));
        Bechamel.Test.make ~name:"render-graph-profile"
          (let r =
             match Gprof_core.Report.analyze o gmon with
             | Ok r -> r
             | Error e -> failwith e
           in
           Bechamel.Staged.stage (fun () ->
               ignore (Gprof_core.Report.graph_listing r)));
        Bechamel.Test.make ~name:"vm-run-quick-workload"
          (Bechamel.Staged.stage (fun () ->
               let m = Vm.Machine.create vm_obj in
               ignore (Vm.Machine.run m)));
      ]
  in
  section "post-processor and VM throughput (Bechamel, ns per run)";
  let ests = stats_of_benchmark tests in
  List.iter
    (fun (name, ns) -> Printf.printf "  %-28s %14.0f ns/run\n" name ns)
    (List.sort compare ests);
  expect "all five hot paths produced estimates" (List.length ests = 5)

let register () =
  register "t-hash" "§3.1 design choice: call-site-primary vs callee-primary arc table" t_hash;
  register "bench-core" "microbenchmarks of SCC, analysis, rendering, and the VM" bench_core
