(* Section 6's "completely different use of the profiler": use the
   call graph to navigate an unfamiliar program. We must change an
   output format; we only know output goes through WRITE. The profile
   walks us up: WRITE's parents are the format routines, their parents
   are the CALCs — and the static arcs show potential calls the test
   run never exercised.

       dune exec examples/explore_unfamiliar.exe
*)

let party_names (p : Gprof_core.Profile.t) views =
  List.filter_map
    (fun (v : Gprof_core.Profile.arc_view) ->
      match v.av_other with
      | Gprof_core.Profile.Func id ->
        Some (Gprof_core.Symtab.name p.symtab id, v.av_count)
      | Gprof_core.Profile.Cycle _ | Gprof_core.Profile.Spontaneous -> None)
    views

let () =
  let w = Workloads.Programs.explore in
  Printf.printf "workload: %s — %s\n\n" w.w_name w.w_about;
  match Workloads.Driver.analyze w with
  | Error e -> failwith e
  | Ok (report, _run) ->
    let p = report.profile in
    let entry name =
      match Gprof_core.Symtab.id_of_name p.symtab name with
      | Some id -> p.entries.(id)
      | None -> failwith ("no such routine: " ^ name)
    in

    (* Step 1: find the output routine and look at its parents. *)
    let write = entry "write_out" in
    print_endline "step 1: who calls write_out?";
    List.iter
      (fun (n, k) -> Printf.printf "    %-10s (%d calls)\n" n k)
      (party_names p write.e_parents);

    (* Step 2: inspect each format routine's parents. *)
    print_endline "\nstep 2: who calls the format routines?";
    List.iter
      (fun fmt ->
        let e = entry fmt in
        Printf.printf "    %s <-\n" fmt;
        List.iter
          (fun (n, k) -> Printf.printf "        %-8s (%d calls)\n" n k)
          (party_names p e.e_parents))
      [ "format1"; "format2" ];

    print_endline
      "\nformat2 has two parents (calc2, calc3): changing calc2's output\n\
       means splitting format2, exactly as the paper prescribes.";

    (* Step 3: the static call graph warns about calls the test run
       might not have exercised. *)
    print_endline "\nstep 3: potential calls visible in the executable:";
    let o = Gprof_core.Symtab.objfile p.symtab in
    List.iter
      (fun (a, b) ->
        let a = o.Objcode.Objfile.symbols.(a).name
        and b = o.Objcode.Objfile.symbols.(b).name in
        if String.length b >= 6 && String.sub b 0 6 = "format" then
          Printf.printf "    %s -> %s\n" a b)
      (Objcode.Scan.static_arcs o);

    (* And the focused view the retrospective added. *)
    print_endline "\nfocused graph profile (--focus format2):";
    (match
       Gprof_core.Report.analyze
         ~options:
           { Gprof_core.Report.default_options with focus = [ "format2" ] }
         (Gprof_core.Symtab.objfile p.symtab)
         _run.gmon
     with
    | Error e -> failwith e
    | Ok focused -> print_string (Gprof_core.Report.graph_listing focused))
