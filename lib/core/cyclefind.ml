type t = {
  scc : Graphlib.Tarjan.result;
  cycle_no : int array;
  n_cycles : int;
  members : int list array;
}

let find g =
  Obs.Trace.with_span ~cat:"core" "cyclefind" @@ fun () ->
  let scc = Graphlib.Tarjan.scc g in
  let n = Graphlib.Digraph.n_nodes g in
  let cycle_no = Array.make n 0 in
  let members = ref [] in
  let n_cycles = ref 0 in
  (* Component ids ascend leaves-first; visiting them in order numbers
     cycles the same way. *)
  for c = 0 to scc.n_components - 1 do
    match scc.members.(c) with
    | _ :: _ :: _ as ms ->
      incr n_cycles;
      let no = !n_cycles in
      List.iter (fun v -> cycle_no.(v) <- no) ms;
      members := ms :: !members
    | _ -> ()
  done;
  {
    scc;
    cycle_no;
    n_cycles = !n_cycles;
    members = Array.of_list (List.rev !members);
  }
