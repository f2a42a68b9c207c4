(** The call graph profile (Section 5.2, Figure 4).

    One block per listed routine or cycle, sorted by self plus
    inherited descendant time. A block shows the routine's parents
    above it and its children below it, each line carrying the
    propagated self/descendant seconds and the call-count fraction
    ([calls on this arc / total calls into the callee]); the
    routine's own line shows [called+self] when it is
    self-recursive. A cycle is "shown as though it were a single
    routine, except that members of the cycle are listed in place of
    the children". Every name is followed by its index "that shows
    where on the listing to find the entry for that routine". *)

val listing : ?verbose:bool -> Profile.t -> string
(** With [~verbose:true], the listing is preceded by the classic
    prose explaining the entry format. *)

val add_listing : verbose:bool -> Buffer.t -> Profile.t -> unit
(** {!listing}, appended to the buffer. *)

val entry_block : Profile.t -> Profile.party -> string
(** The block for one routine or cycle (no trailing separator);
    mainly for golden tests against Figure 4.
    @raise Invalid_argument on [Spontaneous]. *)
