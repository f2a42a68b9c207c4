type loop = {
  l_header : int;
  l_body : int list;
  l_depth : int;
  l_parent : int option;
}

type t = {
  d_idom : int array;
  d_loops : loop array;
  d_depth : int array;
  d_irreducible : bool;
}

(* Postorder DFS from the entry; also classifies retreating edges
   (target still on the DFS stack) for the irreducibility check. *)
let dfs (g : Dataflow.graph) =
  let n = Array.length g.Dataflow.g_succs in
  let state = Array.make n `White in
  let post = ref [] in
  let retreating = ref [] in
  let rec go b =
    state.(b) <- `Grey;
    Array.iter
      (fun s ->
        match state.(s) with
        | `White -> go s
        | `Grey -> retreating := (b, s) :: !retreating
        | `Black -> ())
      g.Dataflow.g_succs.(b);
    state.(b) <- `Black;
    post := b :: !post
  in
  go g.Dataflow.g_entry;
  (Array.of_list !post, !retreating)

let idoms (g : Dataflow.graph) rpo =
  let n = Array.length g.Dataflow.g_succs in
  let number = Array.make n (-1) in
  Array.iteri (fun i b -> number.(b) <- i) rpo;
  let idom = Array.make n (-1) in
  idom.(g.Dataflow.g_entry) <- g.Dataflow.g_entry;
  let rec intersect a b =
    if a = b then a
    else if number.(a) > number.(b) then intersect idom.(a) b
    else intersect a idom.(b)
  in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun b ->
        if b <> g.Dataflow.g_entry then begin
          let new_idom =
            Array.fold_left
              (fun acc p ->
                if idom.(p) = -1 then acc
                else match acc with None -> Some p | Some a -> Some (intersect a p))
              None g.Dataflow.g_preds.(b)
          in
          match new_idom with
          | None -> ()
          | Some d ->
            if idom.(b) <> d then begin
              idom.(b) <- d;
              changed := true
            end
        end)
      rpo
  done;
  idom

let dominates_idom idom a b =
  if idom.(b) = -1 then false
  else
    let rec up x = if x = a then true else if idom.(x) = x then false else up idom.(x) in
    up b

(* The natural loop of a back edge src -> header: header plus every
   block that reaches src against the flow without passing header. *)
let natural_loop (g : Dataflow.graph) ~header ~src =
  let n = Array.length g.Dataflow.g_succs in
  let inloop = Array.make n false in
  inloop.(header) <- true;
  let rec pull b =
    if not inloop.(b) then begin
      inloop.(b) <- true;
      Array.iter pull g.Dataflow.g_preds.(b)
    end
  in
  pull src;
  inloop

let of_graph g =
  let n = Array.length g.Dataflow.g_succs in
  let rpo, retreating = dfs g in
  let idom = idoms g rpo in
  (* back edges are the retreating edges whose target dominates the
     source; any remaining retreating edge witnesses irreducibility *)
  let back, irreducible =
    List.fold_left
      (fun (back, irr) (src, dst) ->
        if dominates_idom idom dst src then ((src, dst) :: back, irr)
        else (back, true))
      ([], false) retreating
  in
  let headers = List.sort_uniq compare (List.map snd back) in
  let bodies =
    List.map
      (fun h ->
        let inloop = Array.make n false in
        inloop.(h) <- true;
        List.iter
          (fun (src, dst) ->
            if dst = h then
              Array.iteri
                (fun b v -> if v then inloop.(b) <- true)
                (natural_loop g ~header:h ~src))
          back;
        (h, inloop))
      headers
  in
  (* nesting: the parent of a loop is the smallest other loop whose
     body contains its header (loops with distinct headers are nested
     or disjoint when reducible) *)
  let size body = Array.fold_left (fun n v -> if v then n + 1 else n) 0 body in
  let bodies = Array.of_list bodies in
  let parent =
    Array.mapi
      (fun i (h, _) ->
        let best = ref None in
        Array.iteri
          (fun j (_, body) ->
            if i <> j && body.(h) then
              match !best with
              | Some (_, s) when s <= size body -> ()
              | _ -> best := Some (j, size body))
          bodies;
        Option.map fst !best)
      bodies
  in
  let depth_of = Array.make (Array.length bodies) 0 in
  let rec depth i =
    if depth_of.(i) > 0 then depth_of.(i)
    else begin
      let d = match parent.(i) with None -> 1 | Some p -> 1 + depth p in
      depth_of.(i) <- d;
      d
    end
  in
  Array.iteri (fun i _ -> ignore (depth i)) bodies;
  let loops =
    Array.mapi
      (fun i (h, body) ->
        {
          l_header = h;
          l_body = List.filter (fun b -> body.(b)) (List.init n Fun.id);
          l_depth = depth_of.(i);
          l_parent = parent.(i);
        })
      bodies
  in
  let block_depth = Array.make n 0 in
  Array.iteri
    (fun i (_, body) ->
      Array.iteri
        (fun b v -> if v then block_depth.(b) <- max block_depth.(b) depth_of.(i))
        body)
    bodies;
  {
    d_idom = idom;
    d_loops = loops;
    d_depth = block_depth;
    d_irreducible = irreducible;
  }

let compute (f : Cfg.func) =
  let t = of_graph f.Cfg.fn_graph in
  let reg = Obs.Metrics.default in
  Obs.Metrics.incr (Obs.Metrics.counter reg "analysis.dom.functions");
  Obs.Metrics.incr ~by:(Array.length t.d_loops)
    (Obs.Metrics.counter reg "analysis.dom.loops");
  if t.d_irreducible then
    Obs.Metrics.incr (Obs.Metrics.counter reg "analysis.dom.irreducible");
  t

let dominates t a b = dominates_idom t.d_idom a b
