(** Deterministic pseudo-random number generation (splitmix64).

    All randomness in the repository flows through this module so that
    workloads, sampling jitter, and property-test inputs are
    reproducible across machines and OCaml versions. *)

type t

val create : int -> t
(** [create seed] makes a generator from a seed. Equal seeds give equal
    streams. *)

val next64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. @raise Invalid_argument
    if [bound <= 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] is uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val split : t -> t
(** [split t] derives an independent generator, advancing [t]. *)

val shuffle : t -> 'a array -> unit
(** Fisher–Yates shuffle in place. *)

val choose : t -> 'a array -> 'a
(** Uniform choice from a non-empty array. @raise Invalid_argument on
    an empty array. *)
