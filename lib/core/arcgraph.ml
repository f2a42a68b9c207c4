module Digraph = Graphlib.Digraph

type t = {
  graph : Digraph.t;
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
  (* calls into each routine from no routine; -1 where no record says so *)
  let spont = Array.make n (-1) in
  let dynamic = ref [] in
  let dropped = ref 0 in
  let folded = ref 0 in
  let record caller_pc callee count =
    match Symtab.id_of_pc st caller_pc with
    | Some caller -> dynamic := (caller, callee, count) :: !dynamic
    | None -> spont.(callee) <- Int.max 0 spont.(callee) + count
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
  (* a static arc adds count 0, so it only completes the structure *)
  let g =
    Digraph.of_arcs ~n
      (List.fold_left
         (fun acc (src, dst) ->
           if src >= 0 && src < n && dst >= 0 && dst < n then (src, dst, 0) :: acc
           else acc)
         !dynamic static)
  in
  let named = Array.make (Digraph.n_arcs g) false in
  List.iter
    (fun (src, dst, _) -> named.(Option.get (Digraph.arc_index g ~src ~dst)) <- true)
    !dynamic;
  let dynamic_arcs = ref [] and spontaneous = ref [] in
  for src = n - 1 downto 0 do
    for j = g.succ_off.(src + 1) - 1 downto g.succ_off.(src) do
      if named.(j) then dynamic_arcs := (src, g.succ_dst.(j)) :: !dynamic_arcs
    done;
    if spont.(src) >= 0 then spontaneous := (src, spont.(src)) :: !spontaneous
  done;
  let t =
    {
      graph = g;
      spontaneous = !spontaneous;
      dynamic_arcs = !dynamic_arcs;
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
    let g = t.graph in
    let removed = Array.make (Digraph.n_arcs g) false in
    List.iter
      (fun (src, dst) ->
        Option.iter (fun j -> removed.(j) <- true) (Digraph.arc_index g ~src ~dst))
      arcs;
    let kept = ref [] in
    for src = g.n - 1 downto 0 do
      for j = g.succ_off.(src + 1) - 1 downto g.succ_off.(src) do
        if not removed.(j) then kept := (src, g.succ_dst.(j), g.succ_count.(j)) :: !kept
      done
    done;
    {
      t with
      graph = Digraph.of_arcs ~n:g.n !kept;
      dynamic_arcs =
        List.filter
          (fun (src, dst) -> not removed.(Option.get (Digraph.arc_index g ~src ~dst)))
          t.dynamic_arcs;
    }
