type t = {
  graph : Graphlib.Digraph.t;
  spontaneous : (int * int) list;
  dynamic_arcs : (int * int) list;
  dropped : int;
  folded : int;
}

let build ?(static = []) ?unknown st (arcs : Gmon.arc list) =
  Obs.Trace.with_span ~cat:"core" "arcgraph"
    ~args:[ ("arcs", string_of_int (List.length arcs)) ]
  @@ fun () ->
  let n = Symtab.n_funcs st in
  let g = Graphlib.Digraph.create n in
  let spont = Hashtbl.create 8 in
  let dynamic = Hashtbl.create 64 in
  let dropped = ref 0 in
  let folded = ref 0 in
  let add_spont callee count =
    let prev = Option.value ~default:0 (Hashtbl.find_opt spont callee) in
    Hashtbl.replace spont callee (prev + count)
  in
  let record caller_pc callee count =
    match Symtab.id_of_pc st caller_pc with
    | Some caller ->
      Graphlib.Digraph.add_arc g ~src:caller ~dst:callee ~count;
      Hashtbl.replace dynamic (caller, callee) ()
    | None -> add_spont callee count
  in
  List.iter
    (fun (a : Gmon.arc) ->
      match Symtab.id_of_entry st a.a_self with
      | Some callee -> record a.a_from callee a.a_count
      | None -> (
        (* A callee that is no routine entry cannot come from our
           monitor — it is damage. A lenient analysis folds the record
           into the synthetic <unknown> callee so the traversals stay
           visible; a strict one drops and counts it. *)
        match unknown with
        | Some u ->
          incr folded;
          record a.a_from u a.a_count
        | None -> incr dropped))
    arcs;
  List.iter
    (fun (src, dst) ->
      if src >= 0 && src < n && dst >= 0 && dst < n then
        if not (Graphlib.Digraph.mem_arc g ~src ~dst) then
          Graphlib.Digraph.add_arc g ~src ~dst ~count:0)
    static;
  let t =
    {
      graph = g;
      spontaneous =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) spont [] |> List.sort compare;
      dynamic_arcs =
        Hashtbl.fold (fun k () acc -> k :: acc) dynamic [] |> List.sort compare;
      dropped = !dropped;
      folded = !folded;
    }
  in
  let module M = Obs.Metrics in
  M.set (M.gauge M.default "core.arcgraph.dynamic") (List.length t.dynamic_arcs);
  M.set (M.gauge M.default "core.arcgraph.spontaneous") (List.length t.spontaneous);
  M.set (M.gauge M.default "core.arcgraph.dropped") t.dropped;
  M.set (M.gauge M.default "core.arcgraph.folded") t.folded;
  t

let remove_arcs t = function
  | [] -> t
  | arcs ->
    let g = Graphlib.Digraph.copy t.graph in
    List.iter (fun (src, dst) -> Graphlib.Digraph.remove_arc g ~src ~dst) arcs;
    let removed = Hashtbl.create 8 in
    List.iter (fun a -> Hashtbl.replace removed a ()) arcs;
    {
      t with
      graph = g;
      dynamic_arcs =
        List.filter (fun a -> not (Hashtbl.mem removed a)) t.dynamic_arcs;
    }
