let entries (p : Profile.t) =
  let names =
    List.init (Symtab.n_funcs p.symtab) (fun id ->
        (Symtab.name p.symtab id, Profile.display_index p (Profile.Func id)))
  in
  let cycles =
    Array.to_list p.cycles
    |> List.map (fun (c : Profile.cycle_entry) ->
           ( "<cycle " ^ string_of_int c.c_no ^ ">",
             Profile.display_index p (Profile.Cycle c.c_no) ))
  in
  List.sort (fun (a, _) (b, _) -> compare a b) (names @ cycles)

let add_listing buf p =
  Obs.Trace.with_span ~cat:"core" "index" @@ fun () ->
  Buffer.add_string buf "index by function name:\n\n";
  List.iter
    (fun (name, idx) ->
      (match idx with
      | Some i ->
        Buffer.add_string buf "  [";
        Numfmt.add_int buf ~width:3 i;
        Buffer.add_string buf "] "
      | None -> Buffer.add_string buf "  [  -] ");
      Buffer.add_string buf name;
      Buffer.add_char buf '\n')
    (entries p)

let listing p =
  let buf = Buffer.create 512 in
  add_listing buf p;
  Buffer.contents buf
