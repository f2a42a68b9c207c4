(* The telemetry time-series: an append-only JSONL file of metrics
   snapshots, each line independently checksummed.

   Line format (every line is itself valid JSON):

     {"crc":"<16 hex>","rec":{"seq":N,"ts":T,"metrics":{...}}}

   The crc is FNV-1a-64 over the serialized rec value, byte for byte
   as written. Because the crc prefix is fixed-width, a reader
   recovers the exact checksummed substring without re-serializing
   anything: rec = line[32 .. len-2]. Each line stands
   alone, so a torn tail (daemon killed mid-append) or a flipped byte
   costs exactly the damaged lines — the reader reports them and
   keeps the rest. *)

type record = { r_seq : int; r_ts : float; r_metrics : Snapshot.t }

let prefix_len = String.length {|{"crc":"0123456789abcdef","rec":|}

let encode_line ~seq ~ts snapshot =
  let rec_json =
    Printf.sprintf {|{"seq":%d,"ts":%.6f,"metrics":%s}|} seq ts
      (Snapshot.to_json snapshot)
  in
  Printf.sprintf {|{"crc":"%016Lx","rec":%s}|} (Util.Fnv.fnv1a64 rec_json) rec_json

let decode_line line =
  let n = String.length line in
  if n < prefix_len + 1 then Error "line too short to hold a record"
  else if String.sub line 0 8 <> {|{"crc":"|} then
    Error "line does not start with a crc field"
  else if String.sub line 24 8 <> {|","rec":|} then
    Error "malformed crc field"
  else if line.[n - 1] <> '}' then Error "line does not end the record object"
  else
    let crc_hex = String.sub line 8 16 in
    let rec_json = String.sub line prefix_len (n - prefix_len - 1) in
    match Int64.of_string_opt ("0x" ^ crc_hex) with
    | None -> Error "crc is not 16 hex digits"
    | Some crc ->
      if Util.Fnv.fnv1a64 rec_json <> crc then
        Error "checksum mismatch (corrupt record)"
      else
        let ( let* ) = Result.bind in
        let* v = Jsonin.parse rec_json in
        let* seq =
          match Option.bind (Jsonin.member "seq" v) Jsonin.to_int with
          | Some s -> Ok s
          | None -> Error "record has no integer seq"
        in
        let* ts =
          match Option.bind (Jsonin.member "ts" v) Jsonin.to_float with
          | Some t -> Ok t
          | None -> Error "record has no ts"
        in
        let* metrics =
          match Jsonin.member "metrics" v with
          | Some m -> Snapshot.of_value m
          | None -> Error "record has no metrics"
        in
        Ok { r_seq = seq; r_ts = ts; r_metrics = metrics }

(* --- reading ----------------------------------------------------------- *)

let read path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | contents ->
    let lines =
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
    in
    let records = ref [] and complaints = ref [] in
    List.iteri
      (fun i line ->
        match decode_line line with
        | Ok r -> records := r :: !records
        | Error e ->
          complaints := Printf.sprintf "line %d: %s" (i + 1) e :: !complaints)
      lines;
    Ok (List.rev !records, List.rev !complaints)

(* --- writing ----------------------------------------------------------- *)

type writer = { w_oc : out_channel; mutable w_next_seq : int }

let open_writer path =
  (* continue the sequence across daemon restarts: the series stays
     monotonic even when the registry behind it starts over *)
  let next_seq =
    match read path with
    | Ok (records, _) ->
      1 + List.fold_left (fun acc r -> max acc r.r_seq) (-1) records
    | Error _ -> 0
  in
  match open_out_gen [ Open_append; Open_creat; Open_wronly ] 0o644 path with
  | oc -> Ok { w_oc = oc; w_next_seq = next_seq }
  | exception Sys_error e -> Error e

let append w ~ts snapshot =
  let seq = w.w_next_seq in
  match
    output_string w.w_oc (encode_line ~seq ~ts snapshot ^ "\n");
    flush w.w_oc
  with
  | () ->
    w.w_next_seq <- seq + 1;
    Ok seq
  | exception Sys_error e -> Error e

let close_writer w = try close_out w.w_oc with Sys_error _ -> ()
