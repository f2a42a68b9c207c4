(** The listings' number formatter: right- or left-justified integers
    and fixed-point decimals, written digit by digit into a [Buffer]
    with no intermediate string.

    Each function writes exactly what the [Printf] conversion named in
    its description writes. A decimal takes the digit path only when
    it can prove the rounding: a finite value with the sign bit clear,
    below [1e9] once scaled by [10{^prec}], whose scaled fraction lies
    more than [1e-6] from one half. Everything else (negatives, [-0.0],
    NaN, infinities, huge values and near-ties such as [0.125] at two
    places) goes through [Printf], which rounds the exact binary value. *)

val add_int : Buffer.t -> width:int -> int -> unit
(** [Printf.bprintf buf "%*d" width n]. *)

val add_int_left : Buffer.t -> width:int -> int -> unit
(** [Printf.bprintf buf "%-*d" width n]. *)

val add_fixed : Buffer.t -> width:int -> prec:int -> float -> unit
(** [Printf.bprintf buf "%*.*f" width prec x], for [0 <= prec <= 9]. *)

val add_spaces : Buffer.t -> int -> unit
(** [n] spaces; nothing when [n <= 0]. *)
