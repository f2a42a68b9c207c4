type party = Func of int | Cycle of int | Spontaneous

type arc_view = {
  av_other : party;
  av_count : int;
  av_total : int;
  av_self : float;
  av_child : float;
  av_intra : bool;
}

type entry = {
  e_id : int;
  e_cycle : int;
  e_self : float;
  e_child : float;
  e_calls : int;
  e_self_calls : int;
  e_ticks : float;
  e_parents : arc_view list;
  e_children : arc_view list;
}

type cycle_entry = {
  c_no : int;
  c_members : int list;
  c_self : float;
  c_child : float;
  c_calls : int;
  c_intra_calls : int;
  c_parents : arc_view list;
  c_member_views : arc_view list;
}

type positions = int array

type names = string array

type t = {
  symtab : Symtab.t;
  total_time : float;
  seconds_per_tick : float;
  entries : entry array;
  cycles : cycle_entry array;
  order : party array;
  never_called : int list;
  unattributed : float;
  positions : positions;
  names : names;
}

(* A party's cell in [positions]: functions by id, then cycles by
   number, then Spontaneous; -1 for a party outside the profile. Each
   cell holds the party's first 1-based position in [order], 0 when it
   is not listed. *)
let slot ~n_funcs ~n_cycles = function
  | Func id -> if id >= 0 && id < n_funcs then id else -1
  | Cycle no -> if no >= 1 && no <= n_cycles then n_funcs + no - 1 else -1
  | Spontaneous -> n_funcs + n_cycles

let positions ~n_funcs ~n_cycles order =
  let pos = Array.make (n_funcs + n_cycles + 1) 0 in
  Array.iteri
    (fun i party ->
      let s = slot ~n_funcs ~n_cycles party in
      if s < 0 then invalid_arg "Profile: order lists a party outside the profile";
      if pos.(s) = 0 then pos.(s) <- i + 1)
    order;
  pos

let cycle_name no = "<cycle " ^ string_of_int no ^ " as a whole>"

(* Each function's name with its cycle, then each cycle's, once per
   profile rather than once per line that shows it. *)
let names ~symtab ~entries ~cycles =
  let n_funcs = Array.length entries in
  Array.init (n_funcs + Array.length cycles) (fun i ->
      if i >= n_funcs then cycle_name (i - n_funcs + 1)
      else
        let base = Symtab.name symtab i in
        match entries.(i).e_cycle with
        | 0 -> base
        | c -> base ^ " <cycle " ^ string_of_int c ^ ">")

let make ~symtab ~total_time ~seconds_per_tick ~entries ~cycles ~order ~never_called
    ~unattributed =
  let positions =
    positions ~n_funcs:(Array.length entries) ~n_cycles:(Array.length cycles) order
  in
  { symtab; total_time; seconds_per_tick; entries; cycles; order; never_called;
    unattributed; positions; names = names ~symtab ~entries ~cycles }

let restrict t keep =
  let order = Array.of_seq (Seq.filter keep (Array.to_seq t.order)) in
  let positions =
    positions ~n_funcs:(Array.length t.entries) ~n_cycles:(Array.length t.cycles) order
  in
  { t with order; positions }

let display_index t party =
  match
    slot ~n_funcs:(Array.length t.entries) ~n_cycles:(Array.length t.cycles) party
  with
  | -1 -> None
  | s -> ( match t.positions.(s) with 0 -> None | i -> Some i)

let name_with_cycle t id =
  if id >= Array.length t.entries then invalid_arg "Profile.name_with_cycle";
  t.names.(id)

let party_name t = function
  | Func id -> name_with_cycle t id
  | Cycle no ->
    if no >= 1 && no <= Array.length t.cycles then
      t.names.(Array.length t.entries + no - 1)
    else cycle_name no
  | Spontaneous -> "<spontaneous>"

let total_of t = function
  | Func id -> t.entries.(id).e_self +. t.entries.(id).e_child
  | Cycle no ->
    let c = t.cycles.(no - 1) in
    c.c_self +. c.c_child
  | Spontaneous -> 0.0

let percent_time t party =
  if t.total_time <= 0.0 then 0.0 else 100.0 *. total_of t party /. t.total_time
