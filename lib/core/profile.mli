(** The computed profile — everything the listings render.

    Produced by {!Propagate.run}; consumed by {!Flat},
    {!Graphprof}, and {!Xindex}. Times are in simulated seconds. *)

type party =
  | Func of int  (** a routine, by function id *)
  | Cycle of int  (** a whole cycle, by 1-based cycle number *)
  | Spontaneous  (** the unidentifiable caller *)

type arc_view = {
  av_other : party;  (** the endpoint this line describes *)
  av_count : int;  (** traversals of this arc *)
  av_total : int;  (** the denominator printed after the slash *)
  av_self : float;  (** propagated self seconds shown on the line *)
  av_child : float;  (** propagated descendant seconds *)
  av_intra : bool;
      (** arc between members of one cycle: listed, never propagated *)
}

type entry = {
  e_id : int;
  e_cycle : int;  (** 0 when not in a multi-member cycle *)
  e_self : float;
  e_child : float;
  e_calls : int;  (** incoming calls, self-recursion excluded *)
  e_self_calls : int;  (** the [+n] of the [called+self] column *)
  e_ticks : float;  (** raw self ticks before conversion *)
  e_parents : arc_view list;  (** ascending by contribution *)
  e_children : arc_view list;  (** descending by contribution *)
}

type cycle_entry = {
  c_no : int;
  c_members : int list;  (** function ids, ascending *)
  c_self : float;
  c_child : float;
  c_calls : int;  (** calls into the cycle from outside *)
  c_intra_calls : int;  (** calls among distinct members *)
  c_parents : arc_view list;
  c_member_views : arc_view list;
      (** one line per member, "listed in place of the children" *)
}

type positions
(** Each party's position in the display order; read it with
    {!display_index}. *)

type names
(** Each function's and cycle's name; read them with {!party_name}. *)

type t = private {
  symtab : Symtab.t;
  total_time : float;  (** seconds; the sum of all self times *)
  seconds_per_tick : float;
  entries : entry array;  (** indexed by function id *)
  cycles : cycle_entry array;  (** index = cycle number - 1 *)
  order : party array;  (** display order, busiest first *)
  never_called : int list;  (** ids with no calls, no ticks *)
  unattributed : float;  (** seconds outside every routine *)
  positions : positions;  (** computed from [order] with it *)
  names : names;  (** built once, with [entries] and [cycles] *)
}
(** Private, so the display order and its positions are only ever set
    together: by {!make}, and changed only by {!restrict}. *)

val make :
  symtab:Symtab.t ->
  total_time:float ->
  seconds_per_tick:float ->
  entries:entry array ->
  cycles:cycle_entry array ->
  order:party array ->
  never_called:int list ->
  unattributed:float ->
  t
(** The profile with the given display order; computes the positions
    in one pass over [order].
    @raise Invalid_argument when [order] lists a function id or cycle
    number outside [entries] or [cycles]. *)

val restrict : t -> (party -> bool) -> t
(** The same profile listing only the parties of [order] that satisfy
    the predicate, in the same relative order. *)

val display_index : t -> party -> int option
(** 1-based index of a party's first occurrence in the display order,
    [None] when it is not listed. O(1): an array read. *)

val party_name : t -> party -> string
(** ["EXAMPLE"], ["<cycle 2 as a whole>"], or ["<spontaneous>"]. *)

val name_with_cycle : t -> int -> string
(** Function name, suffixed with [" <cycle N>"] when it belongs to
    one — the notation of the paper's Figure 4. *)

val total_of : t -> party -> float
(** self + descendants of the party (0 for [Spontaneous]). *)

val percent_time : t -> party -> float
