(** 64-bit FNV-1a, the one checksum of the repository: the data-file
    footer, the telemetry time-series lines and the profile store's
    shard routing all hash with it, so each of those is stable across
    processes, machines and releases. *)

val fnv1a64 : ?len:int -> string -> int64
(** Hash of the first [len] bytes of the string (default: all of it).
    [len] must not exceed the string's length. *)
