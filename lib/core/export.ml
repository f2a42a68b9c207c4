(* Exporters: folded stacks, callgrind, JSON, and the epoch-timeline
   digest. Everything here renders an already-computed analysis; no
   new profile semantics live in this file. *)

let round_ticks f = int_of_float (Float.round f)

(* ------------------------------------------------------------------ *)
(* Folded stacks                                                       *)

(* The profile stores an arc graph, not complete stacks, so each
   routine's line shows the dominant path to it: follow the heaviest
   parent upward until <spontaneous> or a repeat. Heaviness is the
   propagated time an arc carried, with the traversal count breaking
   ties (interval profiles can have arcs with calls but no samples). *)

let heaviest_parent views =
  List.fold_left
    (fun best (v : Profile.arc_view) ->
      match v.av_other with
      | Profile.Spontaneous -> best
      | _ -> (
        let w = (v.av_self +. v.av_child, v.av_count) in
        match best with
        | Some (bw, _) when bw >= w -> best
        | _ -> Some (w, v.av_other)))
    None views
  |> Option.map snd

let dominant_path (p : Profile.t) id =
  let rec up party visited acc =
    if List.mem party visited then acc
    else
      let parents =
        match party with
        | Profile.Func i -> p.entries.(i).e_parents
        | Profile.Cycle n -> p.cycles.(n - 1).c_parents
        | Profile.Spontaneous -> []
      in
      match heaviest_parent parents with
      | None -> acc
      | Some parent -> (
        match parent with
        | Profile.Spontaneous -> acc
        | _ -> up parent (party :: visited) (parent :: acc))
  in
  up (Profile.Func id) [] [ Profile.Func id ]

let folded_stacks (p : Profile.t) =
  let b = Buffer.create 1024 in
  Array.iteri
    (fun id (e : Profile.entry) ->
      let ticks = round_ticks e.e_ticks in
      if ticks > 0 then begin
        let path = dominant_path p id in
        List.iteri
          (fun i party ->
            if i > 0 then Buffer.add_char b ';';
            Buffer.add_string b (Profile.party_name p party))
          path;
        Buffer.add_string b (Printf.sprintf " %d\n" ticks)
      end)
    p.entries;
  Buffer.contents b

(* Sampled profiles carry complete stacks, so no dominant-path
   reconstruction is needed: each interned stack renders as exactly
   the path that was live, weighted by its sample count. *)
let folded_sampled st (sp : Gmon.Sprof.t) =
  let b = Buffer.create 1024 in
  List.iter
    (fun (stack, count) ->
      let names =
        Array.to_list stack
        |> List.filter_map (fun addr ->
               Option.map (Symtab.name st) (Symtab.id_of_entry st addr))
      in
      if names <> [] then
        Buffer.add_string b
          (Printf.sprintf "%s %d\n" (String.concat ";" names) count))
    sp.Gmon.Sprof.sp_stacks;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Callgrind                                                           *)

(* One fn= record per routine carrying its self cost at its entry
   address, one cfn=/calls= record per outgoing arc carrying the
   arc's propagated inclusive cost. Events are clock ticks, matching
   what the profiler actually measured. *)

let callgrind (p : Profile.t) =
  let st = p.symtab in
  let b = Buffer.create 4096 in
  let spt = p.seconds_per_tick in
  let ticks_of seconds =
    if spt > 0.0 then round_ticks (seconds /. spt) else 0
  in
  Buffer.add_string b "# callgrind format\n";
  Buffer.add_string b "version: 1\ncreator: gprof-repro\n";
  Buffer.add_string b "positions: line\nevents: ticks\n";
  Buffer.add_string b
    (Printf.sprintf "summary: %d\n\n" (ticks_of p.total_time));
  Array.iteri
    (fun id (e : Profile.entry) ->
      let self = round_ticks e.e_ticks in
      let has_arcs = e.e_children <> [] in
      if self > 0 || has_arcs || e.e_calls > 0 || e.e_self_calls > 0 then begin
        let pos = Symtab.entry st id in
        Buffer.add_string b (Printf.sprintf "fn=%s\n" (Symtab.name st id));
        Buffer.add_string b (Printf.sprintf "%d %d\n" pos self);
        List.iter
          (fun (v : Profile.arc_view) ->
            let cname, cpos =
              match v.av_other with
              | Profile.Func cid -> (Symtab.name st cid, Symtab.entry st cid)
              | Profile.Cycle n -> (Profile.party_name p (Profile.Cycle n), 0)
              | Profile.Spontaneous -> ("<spontaneous>", 0)
            in
            Buffer.add_string b (Printf.sprintf "cfn=%s\n" cname);
            Buffer.add_string b
              (Printf.sprintf "calls=%d %d\n" v.av_count cpos);
            Buffer.add_string b
              (Printf.sprintf "%d %d\n" pos
                 (ticks_of (v.av_self +. v.av_child))))
          e.e_children;
        Buffer.add_char b '\n'
      end)
    p.entries;
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* JSON                                                                *)

let schema_id = "gprof-repro.report/1"

(* Jsonbuf.float stops at three fractional digits — too coarse for
   seconds at a 60 Hz clock — so seconds get six here. *)
let jsec b f = Buffer.add_string b (Printf.sprintf "%.6f" f)
let jstr b s = Obs.Jsonbuf.escape b s
let jint = Obs.Jsonbuf.int
let jbool b v = Buffer.add_string b (if v then "true" else "false")
let jnull b = Buffer.add_string b "null"

let jindex b (p : Profile.t) party =
  match Profile.display_index p party with
  | Some i -> jint b i
  | None -> jnull b

let jarc b (p : Profile.t) (v : Profile.arc_view) =
  Obs.Jsonbuf.obj b
    [
      ("name", fun () -> jstr b (Profile.party_name p v.av_other));
      ("index", fun () -> jindex b p v.av_other);
      ("count", fun () -> jint b v.av_count);
      ("total", fun () -> jint b v.av_total);
      ("self_seconds", fun () -> jsec b v.av_self);
      ("descendant_seconds", fun () -> jsec b v.av_child);
      ("intra_cycle", fun () -> jbool b v.av_intra);
    ]

let jgraph_entry b (p : Profile.t) party =
  match party with
  | Profile.Spontaneous -> jnull b (* never listed; keep the array well-formed *)
  | Profile.Func id ->
    let e = p.entries.(id) in
    Obs.Jsonbuf.obj b
      [
        ("kind", fun () -> jstr b "routine");
        ("index", fun () -> jindex b p party);
        ("name", fun () -> jstr b (Symtab.name p.symtab id));
        ("cycle", fun () -> jint b e.e_cycle);
        ("percent_time", fun () -> jsec b (Profile.percent_time p party));
        ("self_seconds", fun () -> jsec b e.e_self);
        ("descendant_seconds", fun () -> jsec b e.e_child);
        ("calls", fun () -> jint b e.e_calls);
        ("self_calls", fun () -> jint b e.e_self_calls);
        ("parents", fun () -> Obs.Jsonbuf.arr b e.e_parents (jarc b p));
        ("children", fun () -> Obs.Jsonbuf.arr b e.e_children (jarc b p));
      ]
  | Profile.Cycle n ->
    let c = p.cycles.(n - 1) in
    Obs.Jsonbuf.obj b
      [
        ("kind", fun () -> jstr b "cycle");
        ("index", fun () -> jindex b p party);
        ("number", fun () -> jint b c.c_no);
        ( "members",
          fun () ->
            Obs.Jsonbuf.arr b c.c_members (fun id ->
                jstr b (Symtab.name p.symtab id)) );
        ("percent_time", fun () -> jsec b (Profile.percent_time p party));
        ("self_seconds", fun () -> jsec b c.c_self);
        ("descendant_seconds", fun () -> jsec b c.c_child);
        ("calls", fun () -> jint b c.c_calls);
        ("intra_calls", fun () -> jint b c.c_intra_calls);
        ("parents", fun () -> Obs.Jsonbuf.arr b c.c_parents (jarc b p));
        ("members_views", fun () -> Obs.Jsonbuf.arr b c.c_member_views (jarc b p));
      ]

let json_report (r : Report.t) =
  let p = r.profile in
  let b = Buffer.create 8192 in
  Obs.Jsonbuf.obj b
    [
      ("schema", fun () -> jstr b schema_id);
      ("total_seconds", fun () -> jsec b p.total_time);
      ("seconds_per_tick", fun () -> jsec b p.seconds_per_tick);
      ("unattributed_seconds", fun () -> jsec b p.unattributed);
      ("degraded", fun () -> jbool b (Report.degraded r));
      ("dropped_records", fun () -> jint b r.dropped_records);
      ("folded_records", fun () -> jint b r.folded_records);
      ( "removed_arcs",
        fun () ->
          Obs.Jsonbuf.arr b (Report.removed_arc_names r) (fun (f, t) ->
              Obs.Jsonbuf.arr b [ f; t ] (jstr b)) );
      ( "flat",
        fun () ->
          Obs.Jsonbuf.arr b (Flat.rows p) (fun (id, self, cum, calls) ->
              Obs.Jsonbuf.obj b
                [
                  ("name", fun () -> jstr b (Symtab.name p.symtab id));
                  ( "percent_time",
                    (* the flat profile's %time is self-based, unlike
                       the graph's self+descendants share *)
                    fun () ->
                      jsec b
                        (if p.total_time > 0.0 then
                           100.0 *. self /. p.total_time
                         else 0.0) );
                  ("self_seconds", fun () -> jsec b self);
                  ("cumulative_seconds", fun () -> jsec b cum);
                  ("calls", fun () -> jint b calls);
                ]) );
      ( "graph",
        fun () ->
          Obs.Jsonbuf.arr b (Array.to_list p.order) (jgraph_entry b p) );
      ( "cycles",
        fun () ->
          Obs.Jsonbuf.arr b (Array.to_list p.cycles)
            (fun (c : Profile.cycle_entry) ->
              Obs.Jsonbuf.obj b
                [
                  ("number", fun () -> jint b c.c_no);
                  ( "members",
                    fun () ->
                      Obs.Jsonbuf.arr b c.c_members (fun id ->
                          jstr b (Symtab.name p.symtab id)) );
                  ("self_seconds", fun () -> jsec b c.c_self);
                  ("descendant_seconds", fun () -> jsec b c.c_child);
                  ("calls", fun () -> jint b c.c_calls);
                  ("intra_calls", fun () -> jint b c.c_intra_calls);
                ]) );
      ( "never_called",
        fun () ->
          Obs.Jsonbuf.arr b p.never_called (fun id ->
              jstr b (Symtab.name p.symtab id)) );
    ];
  Buffer.add_char b '\n';
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Timeline digest                                                     *)

(* Self-seconds by routine name for one analyzed interval. *)
let self_by_name (p : Profile.t) =
  let tbl = Hashtbl.create 64 in
  Array.iteri
    (fun id (e : Profile.entry) ->
      if e.e_self > 0.0 then
        Hashtbl.replace tbl (Symtab.name p.symtab id) e.e_self)
    p.entries;
  tbl

let mover_threshold = 0.0005 (* seconds; below this, clock noise *)

let timeline ?(options = Report.default_options) o (c : Gmon.Epoch.t) =
  if c.Gmon.Epoch.e_epochs = [] then Error "empty epoch container"
  else begin
    let b = Buffer.create 2048 in
    let tps = float_of_int c.Gmon.Epoch.e_ticks_per_second in
    Buffer.add_string b
      (Printf.sprintf "timeline: %d epoch(s), %d ticks/s\n"
         (Gmon.Epoch.n_epochs c) c.Gmon.Epoch.e_ticks_per_second);
    (* every epoch is analyzed against the same binary: resolve its
       indirect calls once *)
    let indirect =
      if options.Report.use_static_arcs then Some (Analysis.Indirect.analyze o)
      else None
    in
    let rec go k prev_tick prev_tbl = function
      | [] -> Ok (Buffer.contents b)
      | (e : Gmon.Epoch.entry) :: rest -> (
        match
          Report.analyze ~options ?indirect o (Gmon.Epoch.profile_of c e)
        with
        | Error msg -> Error (Printf.sprintf "epoch %d: %s" k msg)
        | Ok r ->
          let p = r.Report.profile in
          Buffer.add_string b
            (Printf.sprintf "epoch %d  [%.2fs .. %.2fs]\n" k
               (float_of_int prev_tick /. tps)
               (float_of_int e.ep_end_tick /. tps));
          let busiest =
            List.filter (fun (_, s) -> s > 0.0)
              (Array.to_list p.entries
              |> List.mapi (fun id (en : Profile.entry) ->
                     (Symtab.name p.symtab id, en.e_self))
              |> List.sort (fun (na, a) (nb, bv) ->
                     match compare bv a with 0 -> compare na nb | c -> c))
          in
          (match busiest with
          | [] -> Buffer.add_string b "  busiest: (no samples)\n"
          | _ ->
            Buffer.add_string b "  busiest:";
            List.iteri
              (fun i (name, s) ->
                if i < 3 then
                  Buffer.add_string b (Printf.sprintf " %s %.3fs" name s))
              busiest;
            Buffer.add_char b '\n');
          let cur_tbl = self_by_name p in
          (if k > 1 then begin
             let names = Hashtbl.create 64 in
             Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) cur_tbl;
             Hashtbl.iter (fun n _ -> Hashtbl.replace names n ()) prev_tbl;
             let movers =
               Hashtbl.fold
                 (fun n () acc ->
                   let before =
                     Option.value ~default:0.0 (Hashtbl.find_opt prev_tbl n)
                   in
                   let after =
                     Option.value ~default:0.0 (Hashtbl.find_opt cur_tbl n)
                   in
                   let d = after -. before in
                   if Float.abs d >= mover_threshold then
                     (n, before, after, d) :: acc
                   else acc)
                 names []
               |> List.sort (fun (na, _, _, da) (nb, _, _, db) ->
                      match compare (Float.abs db) (Float.abs da) with
                      | 0 -> compare na nb
                      | c -> c)
             in
             match movers with
             | [] -> Buffer.add_string b "  movers: (steady)\n"
             | _ ->
               Buffer.add_string b "  movers:";
               List.iteri
                 (fun i (n, before, after, d) ->
                   if i < 5 then
                     Buffer.add_string b
                       (Printf.sprintf " %s %+.3fs (%.3fs -> %.3fs)" n d
                          before after))
                 movers;
               Buffer.add_char b '\n'
           end);
          go (k + 1) e.ep_end_tick cur_tbl rest)
    in
    go 1 0 (Hashtbl.create 1) c.Gmon.Epoch.e_epochs
  end
