(** The cross-reference index.

    "each name is followed by an index that shows where on the listing
    to find the entry for that routine" — this module prints the
    reverse map: routines alphabetically with their display indices
    (the navigation aid gprof appends for "the visual editors becoming
    popular at that time"). *)

val listing : Profile.t -> string

val add_listing : Buffer.t -> Profile.t -> unit
(** {!listing}, appended to the buffer. *)

val entries : Profile.t -> (string * int option) list
(** (name, display index) pairs, alphabetical; [None] for routines
    that are present in the executable but not in the listing. *)
