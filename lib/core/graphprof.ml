let separator =
  "-----------------------------------------------------------------------\n"

let header =
  "                                    called/total      parents\n\
   index  %time    self  descendants  called+self    name           index\n\
   \                                    called/total      children\n"

(* "[i]", or "[?]" for a party outside the display order; returns
   its length. *)
let add_index buf = function
  | Some i ->
    Buffer.add_char buf '[';
    let start = Buffer.length buf in
    Numfmt.add_int buf ~width:0 i;
    let digits = Buffer.length buf - start in
    Buffer.add_char buf ']';
    digits + 2
  | None ->
    Buffer.add_string buf "[?]";
    3

(* The name of a parent, child or member, then its index, then the
   end of the line. *)
let add_ref buf p party =
  Buffer.add_string buf (Profile.party_name p party);
  (match Profile.display_index p party with
  | Some i ->
    Buffer.add_string buf " [";
    Numfmt.add_int buf ~width:0 i;
    Buffer.add_char buf ']'
  | None -> ());
  Buffer.add_char buf '\n'

(* "      %7.2f      %7.2f  " *)
let add_times buf ~self ~child =
  Buffer.add_string buf "      ";
  Numfmt.add_fixed buf ~width:7 ~prec:2 self;
  Buffer.add_string buf "      ";
  Numfmt.add_fixed buf ~width:7 ~prec:2 child;
  Buffer.add_string buf "  "

(* A parent or child line: propagated self/descendants, the
   count/total fraction, the counterpart name, its index. *)
let arc_line buf p (v : Profile.arc_view) =
  match v.av_other with
  | Profile.Spontaneous ->
    Buffer.add_string buf "                                            <spontaneous>\n"
  | other ->
    if v.av_intra then begin
      Numfmt.add_spaces buf 28;
      Numfmt.add_int buf ~width:11 v.av_count
    end
    else begin
      add_times buf ~self:v.av_self ~child:v.av_child;
      Numfmt.add_int buf ~width:6 v.av_count;
      Buffer.add_char buf '/';
      Numfmt.add_int_left buf ~width:6 v.av_total
    end;
    Buffer.add_string buf (if v.av_intra then "     " else "   ");
    add_ref buf p other

let main_line buf p party ~self ~child ~calls ~self_calls =
  let idx = Profile.display_index p party in
  Numfmt.add_spaces buf (6 - add_index buf idx);
  Buffer.add_char buf ' ';
  Numfmt.add_fixed buf ~width:5 ~prec:1 (Profile.percent_time p party);
  Buffer.add_char buf ' ';
  Numfmt.add_fixed buf ~width:7 ~prec:2 self;
  Buffer.add_string buf "      ";
  Numfmt.add_fixed buf ~width:7 ~prec:2 child;
  Buffer.add_string buf "  ";
  Numfmt.add_int buf ~width:5 calls;
  if self_calls > 0 then begin
    Buffer.add_char buf '+';
    Numfmt.add_int_left buf ~width:6 self_calls;
    Buffer.add_string buf "   "
  end
  else Buffer.add_string buf "         ";
  Buffer.add_string buf (Profile.party_name p party);
  Buffer.add_char buf ' ';
  ignore (add_index buf idx);
  Buffer.add_char buf '\n'

let func_block buf (p : Profile.t) id =
  let e = p.entries.(id) in
  List.iter (arc_line buf p) e.e_parents;
  main_line buf p (Profile.Func id) ~self:e.e_self ~child:e.e_child ~calls:e.e_calls
    ~self_calls:e.e_self_calls;
  List.iter (arc_line buf p) e.e_children

let cycle_block buf (p : Profile.t) no =
  let c = p.cycles.(no - 1) in
  List.iter (arc_line buf p) c.c_parents;
  main_line buf p (Profile.Cycle no) ~self:c.c_self ~child:c.c_child ~calls:c.c_calls
    ~self_calls:c.c_intra_calls;
  List.iter
    (fun (v : Profile.arc_view) ->
      (* Member lines do show their own self/descendant times. *)
      add_times buf ~self:v.av_self ~child:v.av_child;
      Numfmt.add_int buf ~width:11 v.av_count;
      Buffer.add_string buf "     ";
      add_ref buf p v.av_other)
    c.c_member_views

let add_block buf p = function
  | Profile.Func id -> func_block buf p id
  | Profile.Cycle no -> cycle_block buf p no
  | Profile.Spontaneous -> invalid_arg "Graphprof.entry_block: Spontaneous"

let entry_block p party =
  let buf = Buffer.create 512 in
  add_block buf p party;
  Buffer.contents buf

let explanation =
  "Each entry in this listing describes one routine, between dashed lines.\n\
   The routine's own line carries its index in brackets, the percentage of\n\
   total time accounted to it and its descendants, its self seconds, the\n\
   seconds propagated to it from its descendants, and the number of times\n\
   it was called (calls+self for self-recursive routines, where only the\n\
   outside calls propagate time).\n\
   The lines above it are its parents: the self and descendant seconds this\n\
   routine propagates to each, and calls-from-that-parent / total-calls.\n\
   The lines below it are its children: the self and descendant seconds each\n\
   child propagates here, and calls-from-here / total-calls-to-that-child.\n\
   A child in a cycle shows the whole cycle's time, prorated by calls. A\n\
   cycle's own entry lists the members in place of children; calls among\n\
   members are shown but never propagate time. Every name is followed by\n\
   the index where its own entry can be found.\n\n"

let add_listing ~verbose buf (p : Profile.t) =
  Obs.Trace.with_span ~cat:"core" "graph" @@ fun () ->
  Buffer.add_string buf "call graph profile:\n\n";
  if verbose then Buffer.add_string buf explanation;
  Printf.bprintf buf
    "granularity: each sample hit covers 1 instruction for %.2f%% of %.2f seconds\n\n"
    (if p.total_time > 0.0 then 100.0 *. p.seconds_per_tick /. p.total_time else 0.0)
    p.total_time;
  Buffer.add_string buf header;
  Buffer.add_string buf separator;
  Array.iter
    (fun party ->
      add_block buf p party;
      Buffer.add_string buf separator)
    p.order

let listing ?(verbose = false) p =
  let buf = Buffer.create 4096 in
  add_listing ~verbose buf p;
  Buffer.contents buf
