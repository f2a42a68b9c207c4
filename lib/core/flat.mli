(** The flat profile (Section 5.1).

    "a list of all the routines that are called during execution of
    the program, with the count of the number of times they are called
    and the number of seconds of execution time for which they are
    themselves accountable … in decreasing order of execution time. A
    list of the routines that are never called … is also available.
    … Notice that for this profile, the individual times sum to the
    total execution time." *)

val listing : ?verbose:bool -> Profile.t -> string
(** With [~verbose:true], the listing is preceded by the classic
    prose explaining each field (what gprof prints unless given
    [-b]). *)

val add_listing : verbose:bool -> Buffer.t -> Profile.t -> unit
(** {!listing}, appended to the buffer. *)

val rows : Profile.t -> (int * float * float * int) list
(** Machine-readable rows (function id, self seconds, cumulative
    seconds, calls incl. self-recursive), in listing order —
    decreasing self time, ties by increasing id. Functions that were
    never called and have no time are excluded (they appear in the
    never-called section of {!listing}). *)
