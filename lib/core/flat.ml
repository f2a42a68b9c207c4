let rows (p : Profile.t) =
  let listed =
    Array.to_list p.entries
    |> List.filter (fun (e : Profile.entry) ->
           e.e_self > 0.0 || e.e_calls > 0 || e.e_self_calls > 0)
  in
  let sorted =
    List.sort
      (fun (a : Profile.entry) (b : Profile.entry) ->
        let c = compare b.e_self a.e_self in
        if c <> 0 then c else compare a.e_id b.e_id)
      listed
  in
  let cum = ref 0.0 in
  List.map
    (fun (e : Profile.entry) ->
      cum := !cum +. e.e_self;
      (e.e_id, e.e_self, !cum, e.e_calls + e.e_self_calls))
    sorted

let explanation =
  "Each row describes one routine:\n\
  \  % time    the percentage of the total running time of the program\n\
  \            spent executing this routine itself,\n\
  \  cumulative seconds    a running sum of the self seconds down the listing,\n\
  \  self seconds    the time accounted to this routine alone, from the\n\
  \            program-counter histogram,\n\
  \  calls     the number of times the routine was invoked (exact, from the\n\
  \            monitoring routine; self-recursive invocations included),\n\
  \  self/total ms/call    the average milliseconds per call spent in the\n\
  \            routine itself, and including its descendants (blank for\n\
  \            members of cycles, whose descendant time is shared),\n\
  \  name      the routine, followed by its index in the call graph listing.\n\
   Routines are listed in decreasing order of self time. The self seconds\n\
   column sums to the total execution time.\n\n"

let add_listing ~verbose buf (p : Profile.t) =
  Obs.Trace.with_span ~cat:"core" "flat" @@ fun () ->
  Buffer.add_string buf "flat profile:\n\n";
  if verbose then Buffer.add_string buf explanation;
  Buffer.add_string buf
    "  %       cumulative    self                self     total\n";
  Buffer.add_string buf
    " time       seconds  seconds      calls  ms/call  ms/call  name\n";
  let total = p.total_time in
  List.iter
    (fun (id, self, cum, calls) ->
      let pct = if total > 0.0 then 100.0 *. self /. total else 0.0 in
      let e = p.entries.(id) in
      Numfmt.add_fixed buf ~width:5 ~prec:1 pct;
      Buffer.add_char buf ' ';
      Numfmt.add_fixed buf ~width:13 ~prec:2 cum;
      Buffer.add_char buf ' ';
      Numfmt.add_fixed buf ~width:8 ~prec:2 self;
      Buffer.add_char buf ' ';
      Numfmt.add_int buf ~width:10 calls;
      Buffer.add_char buf ' ';
      if calls > 0 then begin
        Numfmt.add_fixed buf ~width:8 ~prec:2 (1000.0 *. self /. float_of_int calls);
        Buffer.add_char buf ' '
      end
      else Buffer.add_string buf "         ";
      if calls > 0 && e.e_cycle = 0 then begin
        Numfmt.add_fixed buf ~width:8 ~prec:2
          (1000.0 *. (e.e_self +. e.e_child) /. float_of_int calls);
        Buffer.add_string buf "  "
      end
      else Buffer.add_string buf "          ";
      Buffer.add_string buf (Profile.name_with_cycle p id);
      (match Profile.display_index p (Profile.Func id) with
      | Some i ->
        Buffer.add_string buf " [";
        Numfmt.add_int buf ~width:0 i;
        Buffer.add_char buf ']'
      | None -> ());
      Buffer.add_char buf '\n')
    (rows p);
  if p.unattributed > 0.0 then
    Printf.bprintf buf "\n%.2f seconds could not be attributed to any routine.\n"
      p.unattributed;
  match p.never_called with
  | [] -> ()
  | ids ->
    Buffer.add_string buf "\nroutines never called during this execution:\n";
    List.iter
      (fun id ->
        Buffer.add_string buf "    ";
        Buffer.add_string buf (Symtab.name p.symtab id);
        Buffer.add_char buf '\n')
      ids

let listing ?(verbose = false) p =
  let buf = Buffer.create 1024 in
  add_listing ~verbose buf p;
  Buffer.contents buf
