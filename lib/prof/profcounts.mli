(** The per-function counter file — prof's half of [mon.out].

    prof(1) pairs the PC histogram with per-function call counters.
    Our VM keeps those counters ([Pcount]) in memory; this module
    persists them next to the gmon file so the [profx] tool can be
    run after the fact, the way prof was. The format is textual:
    one [name count] line per function, validated against the
    executable's symbol table on load. *)

val to_string : Objcode.Objfile.t -> int array -> string
(** @raise Invalid_argument if the array length differs from the
    symbol count. *)

val of_string : Objcode.Objfile.t -> string -> (int array, string) result
(** Order-insensitive across names; the k-th line naming [f] is the
    count of the k-th routine named [f], as {!to_string} writes them.
    Unknown names, more lines for a name than routines of it, missing
    functions, and malformed counts are errors. *)

val save : Objcode.Objfile.t -> int array -> string -> unit

val load : Objcode.Objfile.t -> string -> (int array, string) result
