(** Growable vectors.

    A [Growvec.t] is a dynamically-resized array with amortized O(1)
    [push]. Used throughout the VM and profiler for tables whose size
    is unknown in advance (arc records, samples, instruction streams). *)

type 'a t

val create : ?capacity:int -> dummy:'a -> unit -> 'a t
(** [create ~dummy ()] makes an empty vector. [dummy] fills unused
    slots of the backing store and is never observable. *)

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit

val get : 'a t -> int -> 'a
(** [get v i] is the [i]th element. @raise Invalid_argument if out of
    bounds. *)

val pop : 'a t -> 'a option
(** [pop v] removes and returns the last element, if any. *)

val top : 'a t -> 'a option

val clear : 'a t -> unit
(** [clear v] resets the length to 0 without shrinking the store. *)

val iteri : (int -> 'a -> unit) -> 'a t -> unit

val fold : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

val to_list : 'a t -> 'a list

val to_array : 'a t -> 'a array

val of_list : dummy:'a -> 'a list -> 'a t

val map_to_list : ('a -> 'b) -> 'a t -> 'b list

val exists : ('a -> bool) -> 'a t -> bool

val find_opt : ('a -> bool) -> 'a t -> 'a option
