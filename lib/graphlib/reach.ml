let bfs neighbors n roots =
  let seen = Array.make n false in
  let q = Queue.create () in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Reach: node out of range";
      if not seen.(v) then begin
        seen.(v) <- true;
        Queue.add v q
      end)
    roots;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    List.iter
      (fun (w, _) ->
        if not seen.(w) then begin
          seen.(w) <- true;
          Queue.add w q
        end)
      (neighbors v)
  done;
  seen

let forward g roots = bfs (Digraph.succs g) (Digraph.n_nodes g) roots

let forward_with g ~extra roots =
  bfs
    (fun v -> Digraph.succs g v @ List.map (fun w -> (w, 0)) extra.(v))
    (Digraph.n_nodes g) roots

let backward g roots = bfs (Digraph.preds g) (Digraph.n_nodes g) roots

let between g vs =
  let fwd = forward g vs and bwd = backward g vs in
  Array.init (Digraph.n_nodes g) (fun i -> fwd.(i) || bwd.(i))

let restrict g ~keep =
  let n = Digraph.n_nodes g in
  if Array.length keep <> n then invalid_arg "Reach.restrict: keep size mismatch";
  let h = Digraph.create n in
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      if keep.(src) && keep.(dst) then Digraph.add_arc h ~src ~dst ~count)
    g;
  h
