(* The benchmark and experiment harness.

   Regenerates every figure of the paper and every quantitative or
   mechanism claim of the paper and its retrospective (see the
   experiment index in DESIGN.md and the results log in
   EXPERIMENTS.md).

     dune exec bench/main.exe                 # run everything
     dune exec bench/main.exe -- --list       # list experiment ids
     dune exec bench/main.exe -- --only fig4  # run a single experiment
     dune exec bench/main.exe -- --obs-json m.json   # dump the metrics registry
*)

let () =
  Exp_figures.register ();
  Exp_claims.register ();
  Exp_accuracy.register ();
  Exp_micro.register ();
  Exp_obs.register ();
  Exp_robust.register ();
  Exp_timeline.register ();
  Exp_analysis.register ();
  Exp_dataflow.register ();
  Exp_store.register ();
  Exp_chaos.register ();
  Exp_pgo.register ();
  let args = Array.to_list Sys.argv |> List.tl in
  let obs_json = ref None in
  let rec parse only = function
    | [] -> List.rev only
    | "--list" :: _ ->
      List.iter
        (fun (t : Harness.t) -> Printf.printf "%-12s %s\n" t.id t.what)
        (List.rev !Harness.registry);
      exit 0
    | "--only" :: id :: rest -> parse (id :: only) rest
    | "--obs-json" :: file :: rest ->
      obs_json := Some file;
      parse only rest
    | arg :: _ ->
      Printf.eprintf "unknown argument %s (try --list, --only ID, --obs-json FILE)\n"
        arg;
      exit 1
  in
  let only = parse [] args in
  let finally () =
    (* Written even when expectations failed: the registry — per-
       experiment wall times, gmon traffic, the instrumentation-
       overhead gauge — is exactly what BENCH files want to track. *)
    Option.iter (Obs.Snapshot.save Obs.Metrics.default) !obs_json
  in
  Fun.protect ~finally (fun () -> Harness.run_all ~only)
