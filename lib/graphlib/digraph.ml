type t = {
  n : int;
  succ : (int, int) Hashtbl.t array; (* succ.(u): dst -> count *)
  pred : (int, int) Hashtbl.t array; (* pred.(v): src -> count *)
  mutable narcs : int;
}

let create n =
  if n < 0 then invalid_arg "Digraph.create: negative size";
  {
    n;
    succ = Array.init n (fun _ -> Hashtbl.create 4);
    pred = Array.init n (fun _ -> Hashtbl.create 4);
    narcs = 0;
  }

let n_nodes g = g.n
let n_arcs g = g.narcs

let check g u =
  if u < 0 || u >= g.n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of range [0,%d)" u g.n)

let add_arc g ~src ~dst ~count =
  check g src;
  check g dst;
  if count < 0 then invalid_arg "Digraph.add_arc: negative count";
  (match Hashtbl.find_opt g.succ.(src) dst with
  | None ->
    Hashtbl.replace g.succ.(src) dst count;
    Hashtbl.replace g.pred.(dst) src count;
    g.narcs <- g.narcs + 1
  | Some c ->
    Hashtbl.replace g.succ.(src) dst (c + count);
    Hashtbl.replace g.pred.(dst) src (c + count))

let remove_arc g ~src ~dst =
  check g src;
  check g dst;
  if Hashtbl.mem g.succ.(src) dst then begin
    Hashtbl.remove g.succ.(src) dst;
    Hashtbl.remove g.pred.(dst) src;
    g.narcs <- g.narcs - 1
  end

let mem_arc g ~src ~dst =
  check g src;
  check g dst;
  Hashtbl.mem g.succ.(src) dst

let arc_count g ~src ~dst =
  check g src;
  check g dst;
  Option.value ~default:0 (Hashtbl.find_opt g.succ.(src) dst)

let sorted_bindings h =
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) h []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let succs g u =
  check g u;
  sorted_bindings g.succ.(u)

let preds g v =
  check g v;
  sorted_bindings g.pred.(v)

let out_degree g u =
  check g u;
  Hashtbl.length g.succ.(u)

let in_degree g v =
  check g v;
  Hashtbl.length g.pred.(v)

let iter_arcs f g =
  for src = 0 to g.n - 1 do
    List.iter (fun (dst, count) -> f ~src ~dst ~count) (sorted_bindings g.succ.(src))
  done

let fold_arcs f acc g =
  let acc = ref acc in
  iter_arcs (fun ~src ~dst ~count -> acc := f !acc ~src ~dst ~count) g;
  !acc

let arcs g =
  List.rev (fold_arcs (fun acc ~src ~dst ~count -> (src, dst, count) :: acc) [] g)

let of_arcs ~n arcs =
  let g = create n in
  List.iter (fun (src, dst, count) -> add_arc g ~src ~dst ~count) arcs;
  g

let copy g = of_arcs ~n:g.n (arcs g)

let reverse g =
  of_arcs ~n:g.n (List.map (fun (s, d, c) -> (d, s, c)) (arcs g))

let equal a b = a.n = b.n && arcs a = arcs b
