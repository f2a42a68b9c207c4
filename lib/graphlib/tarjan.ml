type result = {
  component : int array;
  n_components : int;
  members : int list array;
}

(* Iterative Tarjan over the successor slices, with its stacks in
   arrays. Components are emitted in reverse topological order of the
   condensation: a component is complete only after every component it
   can reach has been emitted. Numbering components in emission order
   therefore gives leaves the smallest numbers, which is the numbering
   the paper's propagation phase wants. *)
let scc (g : Digraph.t) =
  let n = g.n in
  let index = Array.make n (-1) in
  let lowlink = Array.make n 0 in
  let on_stack = Array.make n false in
  let comp = Array.make n (-1) in
  let stack = Array.make n 0 and sp = ref 0 in
  (* DFS frames: a node and the position of its next successor *)
  let frame_node = Array.make n 0 and frame_pos = Array.make n 0 and fp = ref 0 in
  let next_index = ref 0 in
  let next_comp = ref 0 in
  let start v =
    index.(v) <- !next_index;
    lowlink.(v) <- !next_index;
    incr next_index;
    stack.(!sp) <- v;
    incr sp;
    on_stack.(v) <- true;
    frame_node.(!fp) <- v;
    frame_pos.(!fp) <- g.succ_off.(v);
    incr fp
  in
  for root = 0 to n - 1 do
    if index.(root) < 0 then begin
      start root;
      while !fp > 0 do
        let top = !fp - 1 in
        let v = frame_node.(top) and pos = frame_pos.(top) in
        if pos < g.succ_off.(v + 1) then begin
          frame_pos.(top) <- pos + 1;
          let w = g.succ_dst.(pos) in
          if index.(w) < 0 then start w
          else if on_stack.(w) && index.(w) < lowlink.(v) then lowlink.(v) <- index.(w)
        end
        else begin
          fp := top;
          if lowlink.(v) = index.(v) then begin
            let continue = ref true in
            while !continue do
              decr sp;
              let w = stack.(!sp) in
              on_stack.(w) <- false;
              comp.(w) <- !next_comp;
              if w = v then continue := false
            done;
            incr next_comp
          end;
          if top > 0 then begin
            let parent = frame_node.(top - 1) in
            if lowlink.(v) < lowlink.(parent) then lowlink.(parent) <- lowlink.(v)
          end
        end
      done
    end
  done;
  let members = Array.make !next_comp [] in
  for v = n - 1 downto 0 do
    members.(comp.(v)) <- v :: members.(comp.(v))
  done;
  { component = comp; n_components = !next_comp; members }

let is_trivial_dag_component r g =
  (* A DAG requires every component to be a single node without a
     self-arc. *)
  Array.for_all
    (fun ms ->
      match ms with
      | [ v ] -> not (Digraph.mem_arc g ~src:v ~dst:v)
      | _ -> false)
    r.members

let is_dag g = is_trivial_dag_component (scc g) g

let topo_numbers g =
  let r = scc g in
  if not (is_trivial_dag_component r g) then None
  else begin
    (* Each component is one node; component ids already satisfy the
       higher->lower property, and are a permutation of 0..n-1. *)
    Some (Array.copy r.component)
  end

let in_same_component r u v = r.component.(u) = r.component.(v)
