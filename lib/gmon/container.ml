module Report = struct
  type mode = [ `Strict | `Salvage ]

  type decode_error = {
    de_path : string option;
    de_offset : int;
    de_context : string;
    de_msg : string;
  }

  let decode_error_to_string e =
    let path = match e.de_path with Some p -> p ^ ": " | None -> "" in
    Printf.sprintf "%sat byte %d: %s: %s" path e.de_offset e.de_context e.de_msg

  let pp_decode_error ppf e = Format.pp_print_string ppf (decode_error_to_string e)

  type checksum_state = [ `Ok | `Missing | `Mismatch ]

  type report = {
    r_checksum : checksum_state;
    r_dropped_buckets : int;
    r_dropped_arcs : int;
    r_dropped_bytes : int;
    r_notes : string list;
  }

  let lossless_report =
    { r_checksum = `Ok; r_dropped_buckets = 0; r_dropped_arcs = 0;
      r_dropped_bytes = 0; r_notes = [] }

  let report_degraded r =
    r.r_checksum <> `Ok || r.r_dropped_buckets > 0 || r.r_dropped_arcs > 0
    || r.r_dropped_bytes > 0 || r.r_notes <> []

  let report_summary r =
    let checksum =
      match r.r_checksum with
      | `Ok -> []
      | `Missing -> [ "checksum footer missing (torn write?)" ]
      | `Mismatch -> [ "checksum mismatch" ]
    in
    let drop what n = if n > 0 then [ Printf.sprintf "%d %s dropped" n what ] else [] in
    String.concat "; "
      (checksum
      @ drop "bucket(s)" r.r_dropped_buckets
      @ drop "arc(s)" r.r_dropped_arcs
      @ drop "byte(s)" r.r_dropped_bytes
      @ r.r_notes)
end

open Report

(* --- framing -------------------------------------------------------- *)

(* 8-byte footer tag + 64-bit FNV-1a of everything before it. *)
let footer_magic = "GMCKSUM1"

let footer_len = String.length footer_magic + 8

(* the shortest framed file: the 11-byte gmon magic plus the footer *)
let min_framed_len = 11 + footer_len

let add_footer buf =
  let body = Buffer.contents buf in
  Buffer.add_string buf footer_magic;
  Buffer.add_int64_le buf (Util.Fnv.fnv1a64 body)

(* Locate the checksum footer: the second component is where the
   decodable payload ends. A file without a verifiable footer is
   treated as possibly torn — the whole string is the (suspect) body. *)
let split_footer s =
  let len = String.length s in
  if
    len >= min_framed_len
    && String.sub s (len - footer_len) (String.length footer_magic) = footer_magic
  then begin
    let body_len = len - footer_len in
    let stored = String.get_int64_le s (len - 8) in
    if Int64.equal (Util.Fnv.fnv1a64 ~len:body_len s) stored then (`Ok, body_len)
    else (`Mismatch, body_len)
  end
  else (`Missing, len)

let put buf n = Buffer.add_int64_le buf (Int64.of_int n)

(* --- crash-safe emission -------------------------------------------- *)

(* one-shot: the next save writes [n] bytes straight to the path and stops *)
let torn_save_request : int option ref = ref None

let inject_torn_save n = torn_save_request := n

(* [close_out], not the [close_out_noerr] of [with_open_bin]'s cleanup:
   a write that fails at the final flush must fail the save *)
let write path data ~len =
  Out_channel.with_open_bin path (fun oc ->
      output_substring oc data 0 len;
      close_out oc)

let write_file_atomic ~what path data =
  match !torn_save_request with
  | Some n -> (
    torn_save_request := None;
    let n = max 0 (min n (String.length data)) in
    match write path data ~len:n with
    | () ->
      Error
        (Printf.sprintf "%s: fault injected: torn write stopped after %d of %d bytes"
           path n (String.length data))
    | exception Sys_error e -> Error e)
  | None -> (
    (* Write to a temp file in the same directory, then rename: a
       crash leaves either the old file or the new one, never a torn
       hybrid, and the checksum footer catches whatever a dying
       filesystem still manages to tear. *)
    let tmp = path ^ ".tmp" in
    try
      (try write tmp data ~len:(String.length data)
       with Sys_error _ as exn ->
         (try Sys.remove tmp with Sys_error _ -> ());
         raise exn);
      Sys.rename tmp path;
      Ok ()
    with Sys_error e -> Error (Printf.sprintf "%s: cannot save %s: %s" path what e))

(* --- the cursor ----------------------------------------------------- *)

exception Bad of decode_error

type cursor = {
  s : string;
  path : string option;
  mode : mode;
  stop : int;
  mutable pos : int;
  mutable notes : string list;
  mutable lost_buckets : int;
  mutable lost_records : int;
  mutable lost_bytes : int;
}

let fail c ~offset ~context fmt =
  Printf.ksprintf
    (fun de_msg ->
      raise (Bad { de_path = c.path; de_offset = offset; de_context = context; de_msg }))
    fmt

let bad c back context fmt = fail c ~offset:(c.pos - back) ~context fmt

let note c fmt = Printf.ksprintf (fun m -> c.notes <- m :: c.notes) fmt

let strict c = c.mode = `Strict

(* Reads never format their context unless they fail: a decode touches
   every bucket, epoch entry and stack frame. *)
let short c context =
  fail c ~offset:c.pos ~context "need 8 bytes, have %d (file ends at %d)"
    (c.stop - c.pos) c.stop

let get c =
  let v = Int64.to_int (String.get_int64_le c.s c.pos) in
  c.pos <- c.pos + 8;
  v

let int c context = if c.pos + 8 > c.stop then short c context else get c

let field c name =
  if c.pos + 8 > c.stop then short c ("header field " ^ name) else get c

let ctx what i field = Printf.sprintf "%s %d%s" what i field

let int_at c what i field =
  if c.pos + 8 > c.stop then short c (ctx what i field) else get c

let count c context ~max =
  let n = int c context in
  if n < 0 || n > max then bad c 8 context "absurd value %d" n;
  n

(* The records must end exactly at the footer. Salvage counts and skips
   the rest; calling this twice is harmless. *)
let finish c =
  if c.pos <> c.stop then
    if strict c then
      fail c ~offset:c.pos ~context:"end of file" "%d trailing bytes" (c.stop - c.pos)
    else begin
      c.lost_bytes <- c.lost_bytes + (c.stop - c.pos);
      note c "%d trailing byte(s) ignored" (c.stop - c.pos);
      c.pos <- c.stop
    end

(* --- salvage -------------------------------------------------------- *)

let salvage c f ~damaged =
  try f () with Bad e when c.mode = `Salvage -> damaged e; c.pos <- c.stop

let records c n read ~lost =
  let acc = ref [] and k = ref 0 and mark = ref c.pos in
  salvage c
    (fun () ->
      while !k < n do
        acc := read !k :: !acc;
        incr k;
        mark := c.pos
      done)
    ~damaged:(fun e ->
      lost e !k;
      c.lost_bytes <- c.lost_bytes + (c.stop - !mark));
  List.rev !acc

let rec collapse ~compare ~combine = function
  | a :: b :: rest when compare a b = 0 ->
    collapse ~compare ~combine (combine a b :: rest)
  | a :: rest -> a :: collapse ~compare ~combine rest
  | [] -> []

(* Strict files store their tables in canonical order with unique
   keys; a salvaged bit-flip may break that, so restore the order and
   drop duplicate keys (first record wins — reordering invents nothing,
   summing would). *)
let canonical c ~compare ~context ~refuse ~repair xs =
  let rec sorted = function
    | a :: (b :: _ as rest) -> compare a b < 0 && sorted rest
    | _ -> true
  in
  if sorted xs then xs
  else if strict c then fail c ~offset:c.pos ~context "%s" refuse
  else begin
    note c "%s" repair;
    collapse ~compare
      ~combine:(fun a _ ->
        c.lost_records <- c.lost_records + 1;
        a)
      (List.stable_sort compare xs)
  end

(* --- summing -------------------------------------------------------- *)

let iter_pairs f xs =
  let rec go i = function
    | a :: (b :: _ as rest) ->
      f i a b;
      go (i + 1) rest
    | _ -> ()
  in
  go 0 xs

let union ~compare ~add xs ys =
  let rec go xs ys acc =
    match (xs, ys) with
    | [], rest | rest, [] -> List.rev_append acc rest
    | x :: xs', y :: ys' ->
      let c = compare x y in
      if c = 0 then go xs' ys' (add x y :: acc)
      else if c < 0 then go xs' ys (x :: acc)
      else go xs ys' (y :: acc)
  in
  go xs ys []

let merge_all ~empty merge = function
  | [] -> Error empty
  | xs ->
    let rec round acc = function
      | [] -> Ok (List.rev acc)
      | [ x ] -> Ok (List.rev (x :: acc))
      | x :: y :: rest -> Result.bind (merge x y) (fun m -> round (m :: acc) rest)
    in
    let rec loop = function [ x ] -> Ok x | xs -> Result.bind (round [] xs) loop in
    loop xs

(* --- per-family metrics --------------------------------------------- *)

type metrics = {
  bytes_written : Obs.Metrics.counter;
  bytes_read : Obs.Metrics.counter;
  files_loaded : Obs.Metrics.counter;
  files_saved : Obs.Metrics.counter;
  merges : Obs.Metrics.counter;
  merged : Obs.Metrics.counter;
  decode_errors : Obs.Metrics.counter;
  checksum_mismatches : Obs.Metrics.counter;
  salvaged_files : Obs.Metrics.counter;
  dropped_buckets : Obs.Metrics.counter option;
  dropped_records : Obs.Metrics.counter;
  dropped_bytes : Obs.Metrics.counter;
}

let counter ?help name = Obs.Metrics.counter Obs.Metrics.default ?help name

(* A family's counters are named [prefix ^ field]; [records] names the
   entries of its table (arcs, stacks). *)
let metrics ~prefix ~records ~buckets helps =
  let c name = counter ?help:(List.assoc_opt name helps) (prefix ^ name) in
  {
    bytes_written = c "bytes_written";
    bytes_read = c "bytes_read";
    files_loaded = c "files_loaded";
    files_saved = c "files_saved";
    merges = c "merges";
    merged = c (records ^ "_merged");
    decode_errors = c "decode_errors";
    checksum_mismatches = c "checksum_mismatches";
    salvaged_files = c "salvage.files";
    dropped_buckets = (if buckets then Some (c "salvage.dropped_buckets") else None);
    dropped_records = c ("salvage.dropped_" ^ records);
    dropped_bytes = c "salvage.dropped_bytes";
  }

let merge_tables m ~compare ~add xs ys =
  let merged = union ~compare ~add xs ys in
  Obs.Metrics.incr m.merges;
  Obs.Metrics.incr m.merged
    ~by:(List.length xs + List.length ys - List.length merged);
  merged

(* --- schemas -------------------------------------------------------- *)

module type SCHEMA = sig
  type t

  val magic : string
  val noun : string
  val what : string
  val span : string option
  val metrics : metrics option
  val write : Buffer.t -> t -> unit
  val read : cursor -> t
end

module Make (S : SCHEMA) = struct
  let bump ?by field = Option.iter (fun m -> Obs.Metrics.incr ?by (field m)) S.metrics

  let traced suffix ?args f =
    match S.span with
    | Some family -> Obs.Trace.with_span ~cat:"gmon" (family ^ suffix) ?args f
    | None -> f ()

  let sniff_bytes s = String.starts_with ~prefix:S.magic s

  let sniff_file path =
    match
      In_channel.with_open_bin path (fun ic ->
          really_input_string ic (String.length S.magic))
    with
    | s -> s = S.magic
    | exception (Sys_error _ | End_of_file) -> false

  let to_bytes v =
    let buf = Buffer.create 1024 in
    Buffer.add_string buf S.magic;
    S.write buf v;
    add_footer buf;
    bump (fun m -> m.bytes_written) ~by:(Buffer.length buf);
    Buffer.contents buf

  let decode ?path ~mode s =
    bump (fun m -> m.bytes_read) ~by:(String.length s);
    let result =
      try
        let mlen = String.length S.magic in
        let checksum, stop = split_footer s in
        let c =
          { s; path; mode; stop; pos = mlen; notes = []; lost_buckets = 0;
            lost_records = 0; lost_bytes = 0 }
        in
        if not (sniff_bytes s) then
          fail c ~offset:0 ~context:"magic" "expected %S, found %S (not %s)" S.magic
            (String.sub s 0 (min (String.length s) mlen))
            S.noun;
        if strict c && checksum <> `Ok then
          fail c ~offset:stop ~context:"checksum footer"
            "%s: file is torn or corrupt (total %d bytes)"
            (match checksum with
            | `Missing -> "missing"
            | _ -> "stored checksum disagrees with the body")
            (String.length s);
        if checksum = `Mismatch then bump (fun m -> m.checksum_mismatches);
        let v = S.read c in
        finish c;
        Ok
          ( v,
            { r_checksum = checksum; r_dropped_buckets = c.lost_buckets;
              r_dropped_arcs = c.lost_records; r_dropped_bytes = c.lost_bytes;
              r_notes = List.rev c.notes } )
      with Bad e -> Error e
    in
    (match result with
    | Error _ -> bump (fun m -> m.decode_errors)
    | Ok (_, r) when report_degraded r ->
      bump (fun m -> m.salvaged_files);
      Option.iter
        (fun m ->
          Option.iter (Obs.Metrics.incr ~by:r.r_dropped_buckets) m.dropped_buckets)
        S.metrics;
      bump (fun m -> m.dropped_records) ~by:r.r_dropped_arcs;
      bump (fun m -> m.dropped_bytes) ~by:r.r_dropped_bytes
    | Ok _ -> ());
    result

  let of_bytes s =
    match decode ~mode:`Strict s with
    | Ok (v, _) -> Ok v
    | Error e -> Error (decode_error_to_string e)

  let save v path =
    bump (fun m -> m.files_saved);
    traced "-save" (fun () -> write_file_atomic ~what:S.what path (to_bytes v))

  let load_report ?(mode : mode = `Strict) path =
    bump (fun m -> m.files_loaded);
    traced "-load" ~args:[ ("path", path) ] (fun () ->
        match In_channel.with_open_bin path In_channel.input_all with
        | s -> decode ~path ~mode s
        | exception Sys_error e ->
          bump (fun m -> m.decode_errors);
          Error { de_path = Some path; de_offset = 0; de_context = "open"; de_msg = e })

  let load ?mode path =
    match load_report ?mode path with
    | Ok (v, _) -> Ok v
    | Error e -> Error (decode_error_to_string e)
end
