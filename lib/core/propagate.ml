(* Views order by their share of the callee's time, then by count. *)
let asc (a : Profile.arc_view) (b : Profile.arc_view) =
  let c = Float.compare (a.av_self +. a.av_child) (b.av_self +. b.av_child) in
  if c <> 0 then c else Int.compare a.av_count b.av_count

let desc a b = asc b a

let run st (asg : Assign.result) (ag : Arcgraph.t) ~seconds_per_tick =
  Obs.Trace.with_span ~cat:"core" "propagate" @@ fun () ->
  let n = Symtab.n_funcs st in
  let { Graphlib.Digraph.succ_off; succ_dst; succ_count; _ } = ag.graph in
  let { Graphlib.Digraph.pred_off; pred_src; pred_count; _ } = ag.graph in
  let cf = Cyclefind.find ag.graph in
  let comp = cf.scc.component in
  let n_comps = cf.scc.n_components in
  let spt = seconds_per_tick in
  let self_sec = Array.map (fun t -> t *. spt) asg.self_ticks in

  (* --- call-count bookkeeping --- *)
  let spont_into = Array.make n 0 in
  List.iter (fun (f, k) -> spont_into.(f) <- spont_into.(f) + k) ag.spontaneous;
  let self_calls = Array.make n 0 in
  let calls_in = Array.copy spont_into in
  (* External calls into each component: arcs whose source lies in a
     different component, plus spontaneous invocations of members. *)
  let ext_calls = Array.make n_comps 0 in
  Array.iteri (fun f s -> ext_calls.(comp.(f)) <- ext_calls.(comp.(f)) + s) spont_into;
  (* Calls among distinct members of each cycle. *)
  let intra_calls = Array.make (max cf.n_cycles 1) 0 in
  for src = 0 to n - 1 do
    for j = succ_off.(src) to succ_off.(src + 1) - 1 do
      let dst = succ_dst.(j) and count = succ_count.(j) in
      if dst = src then self_calls.(src) <- count
      else begin
        calls_in.(dst) <- calls_in.(dst) + count;
        let cd = comp.(dst) in
        if comp.(src) <> cd then ext_calls.(cd) <- ext_calls.(cd) + count
        else
          let i = cf.cycle_no.(src) - 1 in
          intra_calls.(i) <- intra_calls.(i) + count
      end
    done
  done;

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
          for j = pred_off.(e) to pred_off.(e + 1) - 1 do
            let r = pred_src.(j) and count = pred_count.(j) in
            if comp.(r) <> c && count > 0 then
              child_fun.(r) <-
                child_fun.(r) +. (total *. float_of_int count /. float_of_int denom)
          done)
        members
  done;

  (* --- arc views --- *)
  (* The view of an arc into [dst] from outside its component: the
     component totals scaled by the arc's share of the external
     calls. *)
  let outside_view other ~dst count =
    let c = comp.(dst) in
    let denom = ext_calls.(c) in
    let av_self, av_child =
      if denom <= 0 then (0.0, 0.0)
      else
        let frac = float_of_int count /. float_of_int denom in
        (comp_self.(c) *. frac, comp_child.(c) *. frac)
    in
    {
      Profile.av_other = other;
      av_count = count;
      av_total = (if denom > 0 then denom else calls_in.(dst));
      av_self;
      av_child;
      av_intra = false;
    }
  in
  let parents = Array.make n [] and children = Array.make n [] in
  for src = 0 to n - 1 do
    for j = succ_off.(src) to succ_off.(src + 1) - 1 do
      let dst = succ_dst.(j) and count = succ_count.(j) in
      if src <> dst then
        if comp.(src) = comp.(dst) then begin
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
          children.(src) <- outside_view (Profile.Func dst) ~dst count :: children.(src);
          parents.(dst) <- outside_view (Profile.Func src) ~dst count :: parents.(dst)
        end
    done
  done;
  List.iter
    (fun (f, k) ->
      parents.(f) <- outside_view Profile.Spontaneous ~dst:f k :: parents.(f))
    ag.spontaneous;

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
          e_parents = List.stable_sort asc parents.(f);
          e_children = List.stable_sort desc children.(f);
        })
  in

  (* --- cycle entries --- *)
  let cycles =
    Array.init cf.n_cycles (fun i ->
        let no = i + 1 in
        let members = cf.members.(i) in
        let c = comp.(List.hd members) in
        let c_parents =
          List.concat_map
            (fun m ->
              List.filter
                (fun v -> not v.Profile.av_intra)
                entries.(m).Profile.e_parents)
            members
          |> List.stable_sort asc
        in
        let member_views =
          List.map
            (fun m ->
              let intra_in = ref 0 in
              for j = pred_off.(m) to pred_off.(m + 1) - 1 do
                let r = pred_src.(j) in
                if r <> m && cf.cycle_no.(r) = no then
                  intra_in := !intra_in + pred_count.(j)
              done;
              {
                Profile.av_other = Profile.Func m;
                av_count = !intra_in;
                av_total = intra_calls.(i);
                av_self = self_sec.(m);
                av_child = child_fun.(m);
                av_intra = true;
              })
            members
          |> List.stable_sort desc
        in
        {
          Profile.c_no = no;
          c_members = members;
          c_self = comp_self.(c);
          c_child = comp_child.(c);
          c_calls = ext_calls.(c);
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
  (* Parties 0..k-1 are the cycles, the rest the listed functions by
     id; each has its total and the label that breaks ties between
     equal totals. A cycle's label is its number in decimal, so cycle
     10 sorts before cycle 9. *)
  let k = cf.n_cycles in
  let funcs = Array.of_list (List.filter listed (List.init n Fun.id)) in
  let n_parties = k + Array.length funcs in
  let totals =
    Array.init n_parties (fun i ->
        if i < k then
          let c = comp.(List.hd cf.members.(i)) in
          comp_self.(c) +. comp_child.(c)
        else
          let f = funcs.(i - k) in
          self_sec.(f) +. child_fun.(f))
  in
  let labels =
    Array.init n_parties (fun i ->
        if i < k then string_of_int (i + 1) else Symtab.name st funcs.(i - k))
  in
  let by_total = Array.init n_parties Fun.id in
  (* busiest first; then cycles before functions; then by label *)
  Array.stable_sort
    (fun a b ->
      let c = Float.compare totals.(b) totals.(a) in
      if c <> 0 then c
      else
        let c = Bool.compare (a >= k) (b >= k) in
        if c <> 0 then c else String.compare labels.(a) labels.(b))
    by_total;
  let order =
    Array.map
      (fun i -> if i < k then Profile.Cycle (i + 1) else Profile.Func funcs.(i - k))
      by_total
  in
  Profile.make ~symtab:st ~total_time ~seconds_per_tick:spt ~entries ~cycles ~order
    ~never_called ~unattributed:(asg.unattributed *. spt)
