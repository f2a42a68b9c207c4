type t = {
  n : int;
  succ_off : int array;
  succ_dst : int array;
  succ_count : int array;
  pred_off : int array;
  pred_src : int array;
  pred_count : int array;
}

let n_nodes g = g.n
let n_arcs g = Array.length g.succ_dst

let check_node n u =
  if u < 0 || u >= n then
    invalid_arg (Printf.sprintf "Digraph: node %d out of range [0,%d)" u n)

(* The positions [0 .. Array.length key - 1], or [ix] when given,
   stably ordered by [key.(i)]; each key is in [0, n). *)
let counting_sort ~n ?ix key =
  let m = Array.length key in
  let start = Array.make (n + 1) 0 in
  for i = 0 to m - 1 do
    start.(key.(i) + 1) <- start.(key.(i) + 1) + 1
  done;
  for k = 1 to n do
    start.(k) <- start.(k) + start.(k - 1)
  done;
  let out = Array.make m 0 in
  for j = 0 to m - 1 do
    let i = match ix with Some ix -> ix.(j) | None -> j in
    let k = key.(i) in
    out.(start.(k)) <- i;
    start.(k) <- start.(k) + 1
  done;
  out

let of_arcs ~n arcs =
  if n < 0 then invalid_arg "Digraph.of_arcs: negative size";
  let m = List.length arcs in
  let src = Array.make m 0 and dst = Array.make m 0 and count = Array.make m 0 in
  List.iteri
    (fun i (s, d, c) ->
      check_node n s;
      check_node n d;
      if c < 0 then invalid_arg "Digraph.of_arcs: negative count";
      src.(i) <- s;
      dst.(i) <- d;
      count.(i) <- c)
    arcs;
  (* by dst, then stably by src: the records in (src, dst) order, so
     parallel ones are adjacent *)
  let order = counting_sort ~n ~ix:(counting_sort ~n dst) src in
  let succ_off = Array.make (n + 1) 0 in
  let succ_dst = Array.make m 0 and succ_count = Array.make m 0 in
  let k = ref 0 in
  for j = 0 to m - 1 do
    let i = order.(j) in
    let s = src.(i) and d = dst.(i) in
    if j > 0 && src.(order.(j - 1)) = s && succ_dst.(!k - 1) = d then
      succ_count.(!k - 1) <- succ_count.(!k - 1) + count.(i)
    else begin
      succ_dst.(!k) <- d;
      succ_count.(!k) <- count.(i);
      succ_off.(s + 1) <- succ_off.(s + 1) + 1;
      incr k
    end
  done;
  for u = 1 to n do
    succ_off.(u) <- succ_off.(u) + succ_off.(u - 1)
  done;
  let succ_dst = Array.sub succ_dst 0 !k and succ_count = Array.sub succ_count 0 !k in
  (* each arc into its callee's slice, callers visited in ascending
     order *)
  let pred_off = Array.make (n + 1) 0 in
  for j = 0 to !k - 1 do
    pred_off.(succ_dst.(j) + 1) <- pred_off.(succ_dst.(j) + 1) + 1
  done;
  for u = 1 to n do
    pred_off.(u) <- pred_off.(u) + pred_off.(u - 1)
  done;
  let next = Array.sub pred_off 0 n in
  let pred_src = Array.make !k 0 and pred_count = Array.make !k 0 in
  for s = 0 to n - 1 do
    for j = succ_off.(s) to succ_off.(s + 1) - 1 do
      let d = succ_dst.(j) in
      pred_src.(next.(d)) <- s;
      pred_count.(next.(d)) <- succ_count.(j);
      next.(d) <- next.(d) + 1
    done
  done;
  { n; succ_off; succ_dst; succ_count; pred_off; pred_src; pred_count }

let find g ~src ~dst =
  check_node g.n src;
  check_node g.n dst;
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let d = g.succ_dst.(mid) in
      if d = dst then mid else if d < dst then go (mid + 1) hi else go lo mid
  in
  go g.succ_off.(src) g.succ_off.(src + 1)

let arc_index g ~src ~dst =
  match find g ~src ~dst with -1 -> None | j -> Some j

let mem_arc g ~src ~dst = find g ~src ~dst >= 0

let arc_count g ~src ~dst =
  match find g ~src ~dst with -1 -> 0 | j -> g.succ_count.(j)

let slice off node count u =
  let acc = ref [] in
  for j = off.(u + 1) - 1 downto off.(u) do
    acc := (node.(j), count.(j)) :: !acc
  done;
  !acc

let succs g u =
  check_node g.n u;
  slice g.succ_off g.succ_dst g.succ_count u

let preds g v =
  check_node g.n v;
  slice g.pred_off g.pred_src g.pred_count v

let out_degree g u =
  check_node g.n u;
  g.succ_off.(u + 1) - g.succ_off.(u)

let in_degree g v =
  check_node g.n v;
  g.pred_off.(v + 1) - g.pred_off.(v)

let iter_arcs f g =
  for src = 0 to g.n - 1 do
    for j = g.succ_off.(src) to g.succ_off.(src + 1) - 1 do
      f ~src ~dst:g.succ_dst.(j) ~count:g.succ_count.(j)
    done
  done

let fold_arcs f acc g =
  let acc = ref acc in
  iter_arcs (fun ~src ~dst ~count -> acc := f !acc ~src ~dst ~count) g;
  !acc

let arcs g =
  List.rev (fold_arcs (fun acc ~src ~dst ~count -> (src, dst, count) :: acc) [] g)

(* The predecessor slices are the reversed graph's successor slices. *)
let reverse g =
  {
    g with
    succ_off = g.pred_off;
    succ_dst = g.pred_src;
    succ_count = g.pred_count;
    pred_off = g.succ_off;
    pred_src = g.succ_dst;
    pred_count = g.succ_count;
  }

let equal a b =
  a.n = b.n && a.succ_off = b.succ_off && a.succ_dst = b.succ_dst
  && a.succ_count = b.succ_count
