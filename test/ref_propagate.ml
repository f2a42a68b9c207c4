(* The report's call-graph pass as it was before the graph was
   frozen: a digraph of one Hashtbl per node whose adjacency is sorted
   again on every read, the list-based Tarjan, and Arcgraph.build,
   Arcgraph.remove_arcs, Feedback.greedy, Cyclefind.find and
   Propagate.run over them. A copy but for the module layout and the
   spans and gauges, kept only as the reference the propagate parity
   property (test_core.ml) runs beside Gprof_core. Its profiles are
   Gprof_core.Profile.t, so the two compare with (=). *)

open Gprof_core

module Digraph = struct
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
end

module Tarjan = struct
  type result = {
    component : int array;
    n_components : int;
    members : int list array;
  }

  (* Iterative Tarjan. Components are emitted in reverse topological
     order of the condensation: a component is complete only after every
     component it can reach has been emitted. Numbering components in
     emission order therefore gives leaves the smallest numbers, which is
     the numbering the paper's propagation phase wants. *)
  let scc g =
    let n = Digraph.n_nodes g in
    let index = Array.make n (-1) in
    let lowlink = Array.make n 0 in
    let on_stack = Array.make n false in
    let comp = Array.make n (-1) in
    let stack = Stack.create () in
    let next_index = ref 0 in
    let next_comp = ref 0 in
    (* Explicit DFS frames: (node, remaining successors). *)
    let frames = Stack.create () in
    let start v =
      index.(v) <- !next_index;
      lowlink.(v) <- !next_index;
      incr next_index;
      Stack.push v stack;
      on_stack.(v) <- true;
      Stack.push (v, ref (List.map fst (Digraph.succs g v))) frames
    in
    for root = 0 to n - 1 do
      if index.(root) < 0 then begin
        start root;
        while not (Stack.is_empty frames) do
          let v, rest = Stack.top frames in
          match !rest with
          | w :: tl ->
            rest := tl;
            if index.(w) < 0 then start w
            else if on_stack.(w) then lowlink.(v) <- min lowlink.(v) index.(w)
          | [] ->
            ignore (Stack.pop frames);
            if lowlink.(v) = index.(v) then begin
              let continue = ref true in
              while !continue do
                let w = Stack.pop stack in
                on_stack.(w) <- false;
                comp.(w) <- !next_comp;
                if w = v then continue := false
              done;
              incr next_comp
            end;
            (match Stack.top_opt frames with
            | Some (parent, _) -> lowlink.(parent) <- min lowlink.(parent) lowlink.(v)
            | None -> ())
        done
      end
    done;
    let members = Array.make !next_comp [] in
    for v = n - 1 downto 0 do
      members.(comp.(v)) <- v :: members.(comp.(v))
    done;
    { component = comp; n_components = !next_comp; members }
end

type arcgraph = {
  graph : Digraph.t;
  spontaneous : (int * int) list;
  dynamic_arcs : (int * int) list;
  dropped : int;
  folded : int;
}

let build ?(static = []) ?unknown st (arcs : Gmon.arc list) =
  let n = Symtab.n_funcs st in
  let g = Digraph.create n in
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
      Digraph.add_arc g ~src:caller ~dst:callee ~count;
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
        if not (Digraph.mem_arc g ~src ~dst) then
          Digraph.add_arc g ~src ~dst ~count:0)
    static;
  {
    graph = g;
    spontaneous =
      Hashtbl.fold (fun k v acc -> (k, v) :: acc) spont [] |> List.sort compare;
    dynamic_arcs =
      Hashtbl.fold (fun k () acc -> k :: acc) dynamic [] |> List.sort compare;
    dropped = !dropped;
    folded = !folded;
  }

let remove_arcs t = function
  | [] -> t
  | arcs ->
    let g = Digraph.copy t.graph in
    List.iter (fun (src, dst) -> Digraph.remove_arc g ~src ~dst) arcs;
    let removed = Hashtbl.create 8 in
    List.iter (fun a -> Hashtbl.replace removed a ()) arcs;
    {
      t with
      graph = g;
      dynamic_arcs =
        List.filter (fun a -> not (Hashtbl.mem removed a)) t.dynamic_arcs;
    }

(* Feedback.greedy *)

let cycle_arcs g =
  let r = Tarjan.scc g in
  Digraph.fold_arcs
    (fun acc ~src ~dst ~count ->
      if src <> dst && r.component.(src) = r.component.(dst) then
        (count, src, dst) :: acc
      else acc)
    [] g
  |> List.sort compare

let greedy g ~bound =
  if bound < 0 then invalid_arg "Feedback.greedy: negative bound";
  let g = Digraph.copy g in
  let removed = ref [] in
  let continue = ref true in
  while !continue && List.length !removed < bound do
    match cycle_arcs g with
    | [] -> continue := false
    | (_, src, dst) :: _ ->
      Digraph.remove_arc g ~src ~dst;
      removed := (src, dst) :: !removed
  done;
  List.rev !removed

(* Cyclefind.find: of its condensation only the components were read. *)

type cyclefind = {
  scc : Tarjan.result;
  cycle_no : int array;
  n_cycles : int;
  members : int list array;
}

let find_cycles g =
  let scc = Tarjan.scc g in
  let n = Digraph.n_nodes g in
  let cycle_no = Array.make n 0 in
  let members = ref [] in
  let n_cycles = ref 0 in
  for c = 0 to scc.n_components - 1 do
    match scc.members.(c) with
    | _ :: _ :: _ as ms ->
      incr n_cycles;
      let no = !n_cycles in
      List.iter (fun v -> cycle_no.(v) <- no) ms;
      members := ms :: !members
    | _ -> ()
  done;
  { scc; cycle_no; n_cycles = !n_cycles; members = Array.of_list (List.rev !members) }

let comp_of t v = t.scc.component.(v)

(* Propagate.run *)

let run st (asg : Assign.result) (ag : arcgraph) ~seconds_per_tick =
  let n = Symtab.n_funcs st in
  let g = ag.graph in
  let cf = find_cycles g in
  let n_comps = cf.scc.n_components in
  let spt = seconds_per_tick in
  let self_sec = Array.map (fun t -> t *. spt) asg.self_ticks in

  (* --- call-count bookkeeping --- *)
  let self_calls = Array.init n (fun f -> Digraph.arc_count g ~src:f ~dst:f) in
  let spont_into = Array.make n 0 in
  List.iter (fun (f, k) -> spont_into.(f) <- spont_into.(f) + k) ag.spontaneous;
  let calls_in =
    Array.init n (fun f ->
        List.fold_left
          (fun acc (r, k) -> if r = f then acc else acc + k)
          spont_into.(f) (Digraph.preds g f))
  in
  (* External calls into each component: arcs whose source lies in a
     different component, plus spontaneous invocations of members. *)
  let ext_calls = Array.make n_comps 0 in
  Array.iteri
    (fun f s -> ext_calls.(comp_of cf f) <- ext_calls.(comp_of cf f) + s)
    spont_into;
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      let cd = comp_of cf dst in
      if comp_of cf src <> cd then ext_calls.(cd) <- ext_calls.(cd) + count)
    g;
  (* Calls among distinct members of each cycle. *)
  let intra_calls = Array.make (max cf.n_cycles 1) 0 in
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      if src <> dst && cf.cycle_no.(src) > 0 && cf.cycle_no.(src) = cf.cycle_no.(dst)
      then
        intra_calls.(cf.cycle_no.(src) - 1) <-
          intra_calls.(cf.cycle_no.(src) - 1) + count)
    g;

  (* --- the propagation sweep --- *)
  let child_fun = Array.make n 0.0 in
  let comp_members = cf.scc.members in
  let comp_self = Array.make n_comps 0.0 in
  let comp_child = Array.make n_comps 0.0 in
  for c = 0 to n_comps - 1 do
    let members = comp_members.(c) in
    comp_self.(c) <- List.fold_left (fun a m -> a +. self_sec.(m)) 0.0 members;
    comp_child.(c) <- List.fold_left (fun a m -> a +. child_fun.(m)) 0.0 members;
    let total = comp_self.(c) +. comp_child.(c) in
    let denom = ext_calls.(c) in
    if denom > 0 && total > 0.0 then
      List.iter
        (fun e ->
          List.iter
            (fun (r, count) ->
              if comp_of cf r <> c && count > 0 then
                child_fun.(r) <-
                  child_fun.(r) +. (total *. float_of_int count /. float_of_int denom))
            (Digraph.preds g e))
        members
  done;

  (* --- arc views --- *)
  (* The time a caller [r]'s arc receives from callee [e]'s component:
     the component totals scaled by the arc's share of the external
     calls. *)
  let arc_shares ~dst count =
    let c = comp_of cf dst in
    let denom = ext_calls.(c) in
    if denom <= 0 then (0.0, 0.0, denom)
    else begin
      let frac = float_of_int count /. float_of_int denom in
      (comp_self.(c) *. frac, comp_child.(c) *. frac, denom)
    end
  in
  let parents = Array.make n [] and children = Array.make n [] in
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      if src <> dst then begin
        let same = comp_of cf src = comp_of cf dst in
        if same then begin
          let total = intra_calls.(cf.cycle_no.(src) - 1) in
          let view other =
            {
              Profile.av_other = other;
              av_count = count;
              av_total = total;
              av_self = 0.0;
              av_child = 0.0;
              av_intra = true;
            }
          in
          children.(src) <- view (Profile.Func dst) :: children.(src);
          parents.(dst) <- view (Profile.Func src) :: parents.(dst)
        end
        else begin
          let s, ch, denom = arc_shares ~dst count in
          let mk other =
            {
              Profile.av_other = other;
              av_count = count;
              av_total = (if denom > 0 then denom else calls_in.(dst));
              av_self = s;
              av_child = ch;
              av_intra = false;
            }
          in
          children.(src) <- mk (Profile.Func dst) :: children.(src);
          parents.(dst) <- mk (Profile.Func src) :: parents.(dst)
        end
      end)
    g;
  List.iter
    (fun (f, k) ->
      let s, ch, denom = arc_shares ~dst:f k in
      parents.(f) <-
        {
          Profile.av_other = Profile.Spontaneous;
          av_count = k;
          av_total = (if denom > 0 then denom else calls_in.(f));
          av_self = s;
          av_child = ch;
          av_intra = false;
        }
        :: parents.(f))
    ag.spontaneous;

  let share v = v.Profile.av_self +. v.Profile.av_child in
  let asc a b =
    compare (share a, a.Profile.av_count) (share b, b.Profile.av_count)
  in
  let desc a b = asc b a in

  (* --- entries --- *)
  let entries =
    Array.init n (fun f ->
        {
          Profile.e_id = f;
          e_cycle = cf.cycle_no.(f);
          e_self = self_sec.(f);
          e_child = child_fun.(f);
          e_calls = calls_in.(f);
          e_self_calls = self_calls.(f);
          e_ticks = asg.self_ticks.(f);
          e_parents = List.sort asc parents.(f);
          e_children = List.sort desc children.(f);
        })
  in

  (* --- cycle entries --- *)
  let cycles =
    Array.init cf.n_cycles (fun i ->
        let no = i + 1 in
        let members = cf.members.(i) in
        let comp = comp_of cf (List.hd members) in
        let c_parents =
          List.concat_map
            (fun m ->
              List.filter
                (fun v -> not v.Profile.av_intra)
                entries.(m).Profile.e_parents)
            members
          |> List.sort asc
        in
        let member_views =
          List.map
            (fun m ->
              let intra_in =
                List.fold_left
                  (fun acc (r, k) ->
                    if r <> m && cf.cycle_no.(r) = no then acc + k else acc)
                  0 (Digraph.preds g m)
              in
              {
                Profile.av_other = Profile.Func m;
                av_count = intra_in;
                av_total = intra_calls.(i);
                av_self = self_sec.(m);
                av_child = child_fun.(m);
                av_intra = true;
              })
            members
          |> List.sort desc
        in
        {
          Profile.c_no = no;
          c_members = members;
          c_self = comp_self.(comp);
          c_child = comp_child.(comp);
          c_calls = ext_calls.(comp);
          c_intra_calls = intra_calls.(i);
          c_parents;
          c_member_views = member_views;
        })
  in

  (* --- display order and never-called --- *)
  let total_time = Array.fold_left ( +. ) 0.0 self_sec in
  let never_called =
    List.filter
      (fun f -> calls_in.(f) = 0 && self_calls.(f) = 0 && asg.self_ticks.(f) = 0.0)
      (List.init n Fun.id)
  in
  let listed f =
    calls_in.(f) > 0 || self_calls.(f) > 0
    || asg.self_ticks.(f) > 0.0
    || parents.(f) <> [] || children.(f) <> []
  in
  let parties =
    List.init cf.n_cycles (fun i -> Profile.Cycle (i + 1))
    @ (List.init n Fun.id |> List.filter listed |> List.map (fun f -> Profile.Func f))
  in
  let total_of = function
    | Profile.Func f -> self_sec.(f) +. child_fun.(f)
    | Profile.Cycle no ->
      let comp = comp_of cf (List.hd cf.members.(no - 1)) in
      comp_self.(comp) +. comp_child.(comp)
    | Profile.Spontaneous -> 0.0
  in
  let party_label = function
    | Profile.Func f -> (1, Symtab.name st f)
    | Profile.Cycle no -> (0, string_of_int no)
    | Profile.Spontaneous -> (2, "")
  in
  let order =
    List.sort
      (fun a b ->
        let c = compare (total_of b) (total_of a) in
        if c <> 0 then c else compare (party_label a) (party_label b))
      parties
    |> Array.of_list
  in
  Profile.make ~symtab:st ~total_time ~seconds_per_tick:spt ~entries ~cycles ~order
    ~never_called ~unattributed:(asg.unattributed *. spt)
