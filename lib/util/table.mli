(** Plain-text table rendering for the experiment harness.

    The profiler's own listings use their historical fixed formats (see
    {!Gprof_core}); this module is for the benchmark/experiment reports
    that accompany them. *)

type align = Left | Right

type t

val create : (string * align) list -> t
(** [create headers] starts a table with the given column headers and
    alignments. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header
    width. *)

val render : t -> string
(** Render with a header rule and column padding. *)

val print : t -> unit
(** [render] to stdout followed by a newline. *)

val cell_f : float -> string
(** Format a float with 3 decimals, trimming trailing zeros is NOT done
    (fixed width aids column scanning). *)

val cell_pct : float -> string
(** Format a percentage with one decimal and a ["%"] suffix. *)
