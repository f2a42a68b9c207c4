(** Executable images.

    An object file is the analogue of the paper's executable: a text
    segment of instructions, a symbol table mapping address ranges to
    function names, an entry point, and data-segment descriptors
    (global scalars and arrays). The symbol table is what lets the
    post-processor map program-counter samples back to routines, and
    the text segment is what the static call-graph scanner crawls. *)

type symbol = {
  name : string;
  addr : int;  (** address of the function's first instruction *)
  size : int;  (** number of instructions *)
  profiled : bool;
      (** whether the function was compiled with the monitoring
          prologue; unprofiled routines "run at full speed" and never
          appear as arc destinations *)
}

type t = {
  text : Instr.t array;
  symbols : symbol array;  (** sorted by [addr], non-overlapping *)
  entry : int;  (** address where execution starts (main) *)
  globals : string array;  (** scalar names; index = global id *)
  global_init : int array;  (** initial values, same length *)
  arrays : (string * int) array;  (** (name, length); index = array id *)
  lines : (int * int) array;
      (** line table: (address, source line) pairs, strictly ascending
          by address; each entry covers from its address up to the next
          entry. Empty when the producer kept no line information. *)
  source_name : string;  (** provenance note, e.g. the Mini file name *)
}

val line_of_addr : t -> int -> int option
(** Source line covering the instruction at the address, per the line
    table (binary search); [None] when no entry covers it. *)

val addrs_of_line : t -> int -> (int * int) list
(** [(first, last)] address ranges attributed to the source line, in
    ascending order (a line can compile to several ranges, e.g. a
    [for] header). *)

val find_symbol : t -> int -> symbol option
(** [find_symbol o pc] is the symbol whose [\[addr, addr+size)] range
    contains [pc] (binary search). *)

val symbol_index : t -> int -> int option
(** Like {!find_symbol} but returning the index into [symbols]. *)

val symbol_by_name : t -> string -> symbol option

val func_id_of_addr : t -> int -> int option
(** Index of the symbol whose [addr] equals the given address exactly
    (i.e. the address is a function entry point). *)

type entries
(** The symbol table's entry addresses, each mapped to its symbol id. *)

val entries : t -> entries
(** Built in one pass over the symbols, for a caller that looks up
    many call or funref targets. *)

val entry_id : entries -> int -> int
(** [entry_id (entries o) addr] is [i] when {!func_id_of_addr} gives
    [Some i] on a symbol table {!validate} accepts, and [-1] when it
    gives [None]: one hash probe instead of a binary search. *)

val max_locals : int
(** The largest call arity or [enter] count an image may declare, and
    the bound on local slot numbers (65,535, the JVM's [max_locals]). *)

val location : t -> int -> string
(** [location o pc] names an address the way load-time errors do:
    ["main+2 (pc 77)"] — function, offset, and pc — or ["pc N"] when
    no symbol covers it. *)

val validate : t -> (unit, string list) result
(** Structural linting: symbols sorted, in range and non-overlapping;
    entry targets a symbol start; array lengths non-negative; all jump
    targets fall inside the jumping function; all direct call and
    funref targets are symbol starts; call and calli arities and enter
    counts within [\[0, max_locals\]]; local slots within
    [\[0, max_locals)];
    global, array, and pcount ids in range. Errors about an
    instruction start with its {!location}. Returns all violations.

    This is the structural half of what the VM checks at load; the
    operand-stack half is {!Verify}, kept separate because fixtures
    that are never executed (the Figure 4 image) need only this one. *)

val to_string : t -> string
(** Textual serialization, stable across runs. *)

val of_string : string -> (t, string) result

val save : t -> string -> unit
(** [save o path] writes {!to_string} to [path]. *)

val load : string -> (t, string) result

val load_valid : string -> (t, string list) result
(** {!load}, then {!validate}: how the analysis tools read an object
    file, since their passes assume a structurally valid image. *)

val equal : t -> t -> bool
