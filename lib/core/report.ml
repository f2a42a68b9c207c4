type options = {
  use_static_arcs : bool;
  removed_arcs : (string * string) list;
  auto_break_cycles : int option;
  focus : string list;
  exclude : string list;
  min_percent : float;
  lenient : bool;
}

let default_options =
  {
    use_static_arcs = true;
    removed_arcs = [];
    auto_break_cycles = None;
    focus = [];
    exclude = [];
    min_percent = 0.0;
    lenient = false;
  }

type t = {
  profile : Profile.t;
  removed : (int * int) list;
  dropped_records : int;
  folded_records : int;
  options : options;
}

(* a name stands for every routine of that name, so one removal pair
   removes the arcs between all of them *)
let resolve_arc_names st arcs =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | (a, b) :: rest -> (
      match (Symtab.ids_of_name st a, Symtab.ids_of_name st b) with
      | [], _ -> Error (Printf.sprintf "unknown routine %s in arc removal" a)
      | _, [] -> Error (Printf.sprintf "unknown routine %s in arc removal" b)
      | ias, ibs ->
        go (List.concat_map (fun ia -> List.map (fun ib -> (ia, ib)) ibs) ias :: acc)
          rest)
  in
  go [] arcs

(* Restrict the display order to parties connected to the focus set,
   mirroring "only parts of the graph containing certain methods". *)
let apply_focus st (profile : Profile.t) g focus =
  match focus with
  | [] -> Ok profile
  | names -> (
    match Symtab.ids_of_names st names with
    | Error n -> Error (Printf.sprintf "unknown routine %s in focus" n)
    | Ok ids ->
      let keep = Graphlib.Reach.between g ids in
      Ok
        (Profile.restrict profile (function
          | Profile.Func f -> keep.(f)
          | Profile.Cycle no ->
            List.exists (fun m -> keep.(m)) profile.cycles.(no - 1).c_members
          | Profile.Spontaneous -> false)))

let apply_exclude st (profile : Profile.t) names =
  match names with
  | [] -> Ok profile
  | names -> (
    match Symtab.ids_of_names st names with
    | Error n -> Error (Printf.sprintf "unknown routine %s in exclude" n)
    | Ok ids ->
      let excluded = Array.make (Array.length profile.entries) false in
      List.iter (fun f -> excluded.(f) <- true) ids;
      Ok
        (Profile.restrict profile (function
          | Profile.Func f -> not excluded.(f)
          | Profile.Cycle _ | Profile.Spontaneous -> true)))

let apply_min_percent (profile : Profile.t) min_percent =
  if min_percent <= 0.0 then profile
  else
    Profile.restrict profile (fun party ->
        Profile.percent_time profile party >= min_percent)

let analyze ?(options = default_options) ?indirect o (gmon : Gmon.t) =
  Obs.Trace.with_span ~cat:"core" "analyze" @@ fun () ->
  match (Gmon.validate gmon, options.auto_break_cycles) with
  | Error es, _ -> Error ("invalid profile data: " ^ String.concat "; " es)
  | Ok (), Some bound when bound < 0 ->
    Error (Printf.sprintf "cycle-breaking bound %d is negative" bound)
  | Ok (), _ when
      (not options.lenient)
      && (gmon.hist.h_lowpc <> 0
          || gmon.hist.h_highpc <> Array.length o.Objcode.Objfile.text) ->
    (* A lenient analysis accepts the mismatch: whatever the histogram
       covers outside the text falls outside every routine and folds
       into <unknown> below. *)
    Error
      (Printf.sprintf
         "profile data covers pc [%d,%d) but the executable's text is [0,%d): \
          wrong gmon file for this binary?"
         gmon.hist.h_lowpc gmon.hist.h_highpc
         (Array.length o.Objcode.Objfile.text))
  | Ok (), _ -> (
    let st = Symtab.of_objfile o in
    let st, unknown =
      if options.lenient then
        let st, u = Symtab.with_unknown st in
        (st, Some u)
      else (st, None)
    in
    let asg = Assign.assign ?unknown st gmon.hist in
    let static =
      if options.use_static_arcs then
        Obs.Trace.with_span ~cat:"core" "static-scan" (fun () ->
            (* Direct arcs from the text crawl, plus the sound
               over-approximation of functional-parameter calls the
               crawl alone cannot see (paper §2). Both name routines
               by symbol index, which is the Symtab id. *)
            let indirect =
              match indirect with
              | Some i -> i
              | None -> Analysis.Indirect.analyze o
            in
            Objcode.Scan.static_arcs o @ indirect.Analysis.Indirect.i_arcs)
      else []
    in
    let ag = Arcgraph.build ~static ?unknown st gmon.arcs in
    match resolve_arc_names st options.removed_arcs with
    | Error e -> Error e
    | Ok explicit -> (
      let ag = Arcgraph.remove_arcs ag explicit in
      let heuristic =
        match options.auto_break_cycles with
        | None -> []
        | Some bound -> Graphlib.Feedback.greedy ag.graph ~bound
      in
      let ag = Arcgraph.remove_arcs ag heuristic in
      let seconds_per_tick = 1.0 /. float_of_int gmon.ticks_per_second in
      let profile = Propagate.run st asg ag ~seconds_per_tick in
      match
        Result.bind (apply_focus st profile ag.graph options.focus) (fun p ->
            apply_exclude st p options.exclude)
      with
      | Error e -> Error e
      | Ok profile ->
        let profile = apply_min_percent profile options.min_percent in
        Ok
          {
            profile;
            removed = explicit @ heuristic;
            dropped_records = ag.dropped;
            folded_records = ag.folded;
            options;
          }))

let degraded t =
  t.folded_records > 0
  ||
  match Symtab.id_of_name t.profile.symtab Symtab.unknown_name with
  | None -> false
  | Some u ->
    u < Array.length t.profile.entries
    &&
    let e = t.profile.entries.(u) in
    e.Profile.e_ticks > 0.0 || e.Profile.e_calls > 0

let removed_arc_names t =
  List.map
    (fun (a, b) ->
      (Symtab.name t.profile.symtab a, Symtab.name t.profile.symtab b))
    t.removed

let flat_listing ?verbose t = Flat.listing ?verbose t.profile

let graph_listing ?verbose t = Graphprof.listing ?verbose t.profile

let index_listing t = Xindex.listing t.profile

let dot_graph t = Dotprof.render t.profile

let full_listing ?(verbose = false) t =
  Obs.Trace.with_span ~cat:"core" "report" @@ fun () ->
  let buf = Buffer.create 8192 in
  if t.removed <> [] then begin
    Buffer.add_string buf "arcs removed from the analysis:\n";
    List.iter (fun (a, b) -> Printf.bprintf buf "    %s -> %s\n" a b)
      (removed_arc_names t);
    Buffer.add_char buf '\n'
  end;
  if t.dropped_records > 0 then
    Printf.bprintf buf "%d arc records could not be resolved.\n\n" t.dropped_records;
  if t.folded_records > 0 then
    Printf.bprintf buf "%d unresolvable arc records folded into %s.\n\n" t.folded_records
      Symtab.unknown_name;
  Graphprof.add_listing ~verbose buf t.profile;
  Buffer.add_char buf '\n';
  Flat.add_listing ~verbose buf t.profile;
  Buffer.add_char buf '\n';
  Xindex.add_listing buf t.profile;
  Buffer.contents buf
