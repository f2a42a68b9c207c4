(* A component is "non-trivial" when it has >= 2 members. Self-arcs are
   excluded from feedback sets: gprof treats self-recursion specially
   and it never prevents topological numbering of the condensation. *)

let without g removed =
  Digraph.of_arcs ~n:(Digraph.n_nodes g)
    (List.filter
       (fun (src, dst, _) -> not (List.mem (src, dst) removed))
       (Digraph.arcs g))

let nontrivial_components g =
  let r = Tarjan.scc g in
  Array.to_list r.members |> List.filter (fun ms -> List.length ms >= 2)

let acyclic_after g removed = nontrivial_components (without g removed) = []

(* Arcs eligible for removal: arcs inside a non-trivial component,
   i.e. arcs that lie on some cycle. *)
let cycle_arcs g =
  let r = Tarjan.scc g in
  Digraph.fold_arcs
    (fun acc ~src ~dst ~count ->
      if src <> dst && r.component.(src) = r.component.(dst) then
        (count, src, dst) :: acc
      else acc)
    [] g
  |> List.sort compare

let exact g ~bound =
  if bound < 0 then invalid_arg "Feedback.exact: negative bound";
  (* Iterative deepening on set size; within a size, the candidate
     lists are explored in ascending count order, and we keep the
     best (lowest total count) solution of the minimal size. *)
  let rec search g chosen size_left candidates best =
    if nontrivial_components g = [] then
      match !best with
      | Some (_, total_best) ->
        let total = List.fold_left (fun a (c, _, _) -> a + c) 0 chosen in
        if total < total_best then best := Some (List.rev chosen, total)
      | None ->
        let total = List.fold_left (fun a (c, _, _) -> a + c) 0 chosen in
        best := Some (List.rev chosen, total)
    else if size_left > 0 then begin
      (* Only arcs still on a cycle are useful. *)
      let useful = cycle_arcs g in
      let candidates = List.filter (fun a -> List.mem a useful) candidates in
      let rec try_each = function
        | [] -> ()
        | ((_, src, dst) as a) :: rest ->
          search (without g [ (src, dst) ]) (a :: chosen) (size_left - 1) rest best;
          try_each rest
      in
      try_each candidates
    end
  in
  let rec by_size k =
    if k > bound then None
    else begin
      let best = ref None in
      search g [] k (cycle_arcs g) best;
      match !best with
      | Some (chosen, _) -> Some (List.map (fun (_, s, d) -> (s, d)) chosen)
      | None -> by_size (k + 1)
    end
  in
  by_size 0

let greedy g ~bound =
  if bound < 0 then invalid_arg "Feedback.greedy: negative bound";
  let rec go g removed k =
    if k >= bound then List.rev removed
    else
      match cycle_arcs g with
      | [] -> List.rev removed
      | (_, src, dst) :: _ ->
        go (without g [ (src, dst) ]) ((src, dst) :: removed) (k + 1)
  in
  go g [] 0
