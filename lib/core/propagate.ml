module Digraph = Graphlib.Digraph

let run st (asg : Assign.result) (ag : Arcgraph.t) ~seconds_per_tick =
  Obs.Trace.with_span ~cat:"core" "propagate" @@ fun () ->
  let n = Symtab.n_funcs st in
  let g = ag.graph in
  let cf = Cyclefind.find g in
  let n_comps = cf.cond.scc.n_components in
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
    (fun f s -> ext_calls.(Cyclefind.comp_of cf f) <- ext_calls.(Cyclefind.comp_of cf f) + s)
    spont_into;
  Digraph.iter_arcs
    (fun ~src ~dst ~count ->
      let cd = Cyclefind.comp_of cf dst in
      if Cyclefind.comp_of cf src <> cd then ext_calls.(cd) <- ext_calls.(cd) + count)
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
  let comp_members = cf.cond.scc.members in
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
              if Cyclefind.comp_of cf r <> c && count > 0 then
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
    let c = Cyclefind.comp_of cf dst in
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
        let same = Cyclefind.comp_of cf src = Cyclefind.comp_of cf dst in
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
        let comp = Cyclefind.comp_of cf (List.hd members) in
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
      let comp = Cyclefind.comp_of cf (List.hd cf.members.(no - 1)) in
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
