(* Breadth-first from [roots] along the slices [adj.(off.(v))] to
   [adj.(off.(v + 1) - 1)] and the nodes [extra v]. *)
let bfs ~off ~adj ~extra n roots =
  let seen = Array.make n false in
  let q = Queue.create () in
  let visit w =
    if not seen.(w) then begin
      seen.(w) <- true;
      Queue.add w q
    end
  in
  List.iter
    (fun v ->
      if v < 0 || v >= n then invalid_arg "Reach: node out of range";
      visit v)
    roots;
  while not (Queue.is_empty q) do
    let v = Queue.pop q in
    for j = off.(v) to off.(v + 1) - 1 do
      visit adj.(j)
    done;
    List.iter visit (extra v)
  done;
  seen

let no_extra _ = []

let forward (g : Digraph.t) roots =
  bfs ~off:g.succ_off ~adj:g.succ_dst ~extra:no_extra g.n roots

let forward_with (g : Digraph.t) ~extra roots =
  bfs ~off:g.succ_off ~adj:g.succ_dst ~extra:(Array.get extra) g.n roots

let backward (g : Digraph.t) roots =
  bfs ~off:g.pred_off ~adj:g.pred_src ~extra:no_extra g.n roots

let between g vs =
  let fwd = forward g vs and bwd = backward g vs in
  Array.init (Digraph.n_nodes g) (fun i -> fwd.(i) || bwd.(i))

let restrict g ~keep =
  let n = Digraph.n_nodes g in
  if Array.length keep <> n then invalid_arg "Reach.restrict: keep size mismatch";
  Digraph.of_arcs ~n
    (List.filter (fun (src, dst, _) -> keep.(src) && keep.(dst)) (Digraph.arcs g))
