(** The post-processor's view of the symbol table.

    Wraps an executable's symbols as a dense function-id space
    (0..n-1, in address order) with fast pc-to-function resolution —
    the first thing gprof needs to turn raw addresses from the profile
    data file back into routine names. *)

type t

val of_objfile : Objcode.Objfile.t -> t

val unknown_name : string
(** ["<unknown>"]. *)

val with_unknown : t -> t * int
(** Extend the table with a synthetic {!unknown_name} function (no
    address range, never returned by pc lookup) and return its id —
    the landing spot for sampled PCs and arc endpoints that resolve to
    no routine when the analysis runs leniently over damaged profile
    data. Idempotent. *)

val objfile : t -> Objcode.Objfile.t

val n_funcs : t -> int

val name : t -> int -> string

val entry : t -> int -> int
(** Entry address of function [id]. *)

val size : t -> int -> int

val profiled : t -> int -> bool

val id_of_pc : t -> int -> int option
(** Function whose address range contains the pc. *)

val id_of_entry : t -> int -> int option
(** Function whose entry address is exactly the given pc. *)

val ids_of_name : t -> string -> int list
(** Every function of that name, ascending; an object may hold several
    routines of one name. [[]] for an unknown name. *)

val id_of_name : t -> string -> int option
(** The first function of that name, as {!Objcode.Objfile.symbol_by_name}
    finds it. *)

val ids_of_names : t -> string list -> (int list, string) result
(** Every function of each name; all-or-nothing: [Error] names the
    first unknown name. *)
