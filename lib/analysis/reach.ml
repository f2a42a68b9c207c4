module Objfile = Objcode.Objfile

type t = {
  r_unreachable : string list;
  r_dead_profiled : string list;
  r_dead_blocks : (string * int * int) list;
  r_graph : Graphlib.Digraph.t;
}

let analyze ~indirect (cfg : Cfg.t) =
  Obs.Trace.with_span ~cat:"analysis" "reach" @@ fun () ->
  let o = cfg.Cfg.cfg_obj in
  let g =
    Graphlib.Digraph.of_arcs ~n:(Array.length o.Objfile.symbols)
      (List.map
         (fun (src, dst) -> (src, dst, 0))
         (Objcode.Scan.static_arcs o @ indirect.Indirect.i_arcs))
  in
  let roots =
    match Objfile.func_id_of_addr o o.Objfile.entry with
    | Some id -> [ id ]
    | None -> []
  in
  let reachable = Graphlib.Reach.forward g roots in
  let unreachable = ref [] and dead_profiled = ref [] in
  Array.iteri
    (fun id (s : Objfile.symbol) ->
      if not reachable.(id) then begin
        unreachable := s.name :: !unreachable;
        if s.profiled then dead_profiled := s.name :: !dead_profiled
      end)
    o.Objfile.symbols;
  let dead_blocks =
    List.concat_map
      (fun (f : Cfg.func) ->
        List.filteri (fun i _ -> not f.Cfg.fn_reachable.(i))
          (Array.to_list f.Cfg.fn_blocks)
        |> List.map (fun (b : Cfg.block) ->
               (f.Cfg.fn_symbol.Objfile.name, b.Cfg.bb_start, b.Cfg.bb_len)))
      (Array.to_list cfg.Cfg.cfg_funcs)
  in
  let reg = Obs.Metrics.default in
  Obs.Metrics.incr
    ~by:(List.length !unreachable)
    (Obs.Metrics.counter reg "analysis.reach.unreachable_funcs");
  Obs.Metrics.incr
    ~by:(List.length dead_blocks)
    (Obs.Metrics.counter reg "analysis.reach.dead_blocks");
  {
    r_unreachable = List.rev !unreachable;
    r_dead_profiled = List.rev !dead_profiled;
    r_dead_blocks = dead_blocks;
    r_graph = g;
  }

type contradiction = { c_func : string; c_ticks : int; c_calls : int }

let calls_into (o : Objfile.t) (g : Gmon.t) =
  let calls = Array.make (Array.length o.Objfile.symbols) 0 in
  List.iter
    (fun (a : Gmon.arc) ->
      match Objfile.func_id_of_addr o a.a_self with
      | Some id -> calls.(id) <- calls.(id) + a.a_count
      | None -> ())
    g.Gmon.arcs;
  calls

let crosscheck t (o : Objfile.t) (g : Gmon.t) =
  (* A profile explains its own activity through spontaneous roots and
     recorded arcs, so the contradiction is activity NEITHER view can
     explain: a function with ticks or incoming calls that is
     unreachable from entry ∪ spontaneous-arc targets over
     static ∪ dynamic arcs. The dynamic arcs are walked beside the
     static graph, not merged into a copy of it. *)
  let len = Array.length o.Objfile.text in
  let n = Graphlib.Digraph.n_nodes t.r_graph in
  let dynamic = Array.make n [] in
  let roots = ref [] in
  (match Objfile.func_id_of_addr o o.Objfile.entry with
  | Some id -> roots := [ id ]
  | None -> ());
  List.iter
    (fun (a : Gmon.arc) ->
      match Objfile.func_id_of_addr o a.a_self with
      | None -> ()
      | Some dst ->
        if a.a_from < 0 || a.a_from >= len then roots := dst :: !roots
        else (
          match Objfile.symbol_index o a.a_from with
          | Some src -> dynamic.(src) <- dst :: dynamic.(src)
          | None -> ()))
    g.Gmon.arcs;
  let explained = Graphlib.Reach.forward_with t.r_graph ~extra:dynamic !roots in
  let calls = calls_into o g in
  let acc = ref [] in
  Array.iteri
    (fun id (s : Objfile.symbol) ->
      if id < Array.length explained && not explained.(id) then begin
        (* only the buckets that intersect the function *)
        let ticks = ref 0 in
        Gmon.iter_overlapping g.Gmon.hist ~lo:s.addr ~hi:(s.addr + s.size)
          (fun _ count -> if count > 0 then ticks := !ticks + count);
        if !ticks > 0 || calls.(id) > 0 then
          acc :=
            { c_func = s.name; c_ticks = !ticks; c_calls = calls.(id) } :: !acc
      end)
    o.Objfile.symbols;
  List.rev !acc
