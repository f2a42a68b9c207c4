type t = {
  graph : Digraph.t;
  scc : Tarjan.result;
  internal_arcs : (int * int * int) list;
}

let condense g =
  let scc = Tarjan.scc g in
  let between = ref [] and internal = ref [] in
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      let cs = scc.component.(src) and cd = scc.component.(dst) in
      if cs = cd then internal := (src, dst, count) :: !internal
      else between := (cs, cd, count) :: !between)
    g;
  {
    graph = Digraph.of_arcs ~n:scc.n_components !between;
    scc;
    internal_arcs = List.rev !internal;
  }

let component_of t v = t.scc.component.(v)

let members t c = t.scc.members.(c)

let is_cycle t c =
  match t.scc.members.(c) with
  | [ v ] -> List.exists (fun (s, d, _) -> s = v && d = v) t.internal_arcs
  | _ :: _ :: _ -> true
  | [] -> false
