(* The sharded, append-only profile store. See store.mli for the
   design contract; the layout on disk is

     DIR/MANIFEST                versioned header naming the shard count
     DIR/shard-NNN/seg-S.gmon    uncompacted tail segments (one gmon
                                 payload per append, which may sum several
                                 runs; checksum-framed, atomic)
     DIR/shard-NNN/compact-S.gmon  the shard's folded profile; S is the
                                 highest segment sequence folded into it
     DIR/shard-NNN/sseg-S.sprof, scompact-S.sprof
                                 the same two kinds of file for the
                                 sampled track
     DIR/quarantine/q-*.bin      rejected submissions + .reason sidecars

   Everything durable goes through Gmon's crash-safe writer, so every
   file is either complete and checksummed or absent — recovery is a
   directory scan, not a log replay. The folded-through sequence number
   in the compact file's own name is what makes the scan unambiguous: a
   crash between "rename compact-N into place" and "delete the folded
   segments" leaves segments with seq <= N on disk, and recovery knows
   they are already counted and removes them instead of double-merging
   them. *)

(* One family of profiles in a shard. A shard holds two tracks, arc
   profiles and sampled profiles, with the same lifecycle in their own
   files, so one shard can hold both kinds of submissions for a label
   without either poisoning the other. *)
type 'p track = {
  (* tail segments: (sequence, path, runs) *)
  mutable segments : (int * string * int) list;
  mutable next_seq : int;
  mutable compact_seq : int;  (* 0 = no compact file *)
  (* the sum of the compact file and every tail segment, built at open
     and kept current at append; [None] = the track is empty *)
  mutable view : 'p option;
}

type shard = {
  sh_index : int;
  sh_dir : string;
  arcs : Gmon.t track;
  sampled : Gmon.Sprof.t track;
}

type t = {
  dir : string;
  n_shards : int;
  shards : shard array;
  mutable next_quarantine : int;
  (* each family's layout: the first profile recovered or admitted *)
  arc_layout : Gmon.t option ref;
  sprof_layout : Gmon.Sprof.t option ref;
}

type open_report = {
  or_created : bool;
  or_segments : int;
  or_compacted : int;
  or_salvaged : int;
  or_quarantined : Gmon.quarantined list;
  or_notes : string list;
}

let open_report_degraded r =
  r.or_salvaged > 0 || r.or_quarantined <> [] || r.or_notes <> []

let open_report_summary r =
  let part cond s = if cond then [ s ] else [] in
  String.concat "; "
    (part (r.or_salvaged > 0)
       (Printf.sprintf "%d torn file(s) salvaged" r.or_salvaged)
    @ part
        (r.or_quarantined <> [])
        (Printf.sprintf "%d file(s) quarantined" (List.length r.or_quarantined))
    @ r.or_notes)

let default_shards = 8

(* --- observability --------------------------------------------------- *)

let m_appends =
  Obs.Metrics.counter Obs.Metrics.default "store.appends"
    ~help:"segments durably appended (a flushed batch writes one per shard and family)"

let m_quarantined =
  Obs.Metrics.counter Obs.Metrics.default "store.quarantined"
    ~help:"submissions and torn files moved to quarantine"

let m_compactions = Obs.Metrics.counter Obs.Metrics.default "store.compactions"

let m_segments_folded =
  Obs.Metrics.counter Obs.Metrics.default "store.segments_folded"
    ~help:"tail segments folded into compact profiles"

let m_cache_hits =
  Obs.Metrics.counter Obs.Metrics.default "store.cache.hits"
    ~help:"shard views served from memory (every shard of every query)"

let m_cache_misses =
  Obs.Metrics.counter Obs.Metrics.default "store.cache.misses"
    ~help:"shard views built from disk (only when a store is opened)"

let m_recovered =
  Obs.Metrics.counter Obs.Metrics.default "store.recovered_segments"
    ~help:"intact segments found when opening a store"

let m_salvaged =
  Obs.Metrics.counter Obs.Metrics.default "store.salvaged_segments"
    ~help:"torn files recovered with data loss when opening a store"

(* --- paths and small helpers ----------------------------------------- *)

let manifest_magic = "PROFSTORE1\n"

let manifest_path dir = Filename.concat dir "MANIFEST"

let shard_dir dir i = Filename.concat dir (Printf.sprintf "shard-%03d" i)

let quarantine_dir_of dir = Filename.concat dir "quarantine"

(* [Some seq] when [name] is [prefix ^ seq ^ ext] *)
let scan_seq prefix ext name =
  try
    Scanf.sscanf name
      (Scanf.format_from_string (prefix ^ "%d" ^ ext ^ "%!") "%d%!")
      (fun n -> Some n)
  with Scanf.Scan_failure _ | Failure _ | End_of_file -> None

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "." && p <> "/" && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  try
    go path;
    if Sys.is_directory path then Ok ()
    else Error (Printf.sprintf "%s: exists and is not a directory" path)
  with Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "%s: cannot create: %s" path (Unix.error_message e))

let list_dir path =
  match Sys.readdir path with
  | entries -> List.sort compare (Array.to_list entries)
  | exception Sys_error _ -> []

let file_size path = match (Unix.stat path).st_size with n -> n | exception _ -> 0

let read_file path =
  try Some (In_channel.with_open_bin path In_channel.input_all)
  with Sys_error _ -> None

(* --- the two tracks --------------------------------------------------- *)

(* Every lifecycle step is written once against this record, which
   holds everything the arc and sampled tracks do differently. *)
type 'p codec = {
  c_seg : string;  (* segment file prefix *)
  c_compact : string;  (* compact file prefix *)
  c_ext : string;
  c_view_span : string;
  c_track : shard -> 'p track;
  c_layout : t -> 'p option ref;
  c_mergeable : 'p -> 'p -> (unit, string) result;
  c_load : string -> ('p, string) result;
  c_load_salvage : string -> ('p * Gmon.report, Gmon.decode_error) result;
  c_save : 'p -> string -> (unit, string) result;
  c_runs : 'p -> int;
  c_merge : 'p -> 'p -> ('p, string) result;
  c_merge_all : 'p list -> ('p, string) result;
}

let gmon_codec =
  {
    c_seg = "seg-";
    c_compact = "compact-";
    c_ext = ".gmon";
    c_view_span = "store-shard-view";
    c_track = (fun sh -> sh.arcs);
    c_layout = (fun t -> t.arc_layout);
    c_mergeable = Gmon.mergeable;
    c_load = Gmon.load ~mode:`Strict;
    c_load_salvage = Gmon.load_report ~mode:`Salvage;
    c_save = Gmon.save;
    c_runs = (fun g -> g.Gmon.runs);
    c_merge = Gmon.merge;
    c_merge_all = Gmon.merge_all;
  }

let sprof_codec =
  {
    c_seg = "sseg-";
    c_compact = "scompact-";
    c_ext = ".sprof";
    c_view_span = "store-sprof-shard-view";
    c_track = (fun sh -> sh.sampled);
    c_layout = (fun t -> t.sprof_layout);
    c_mergeable = Gmon.Sprof.mergeable;
    c_load = Gmon.Sprof.load ~mode:`Strict;
    c_load_salvage = Gmon.Sprof.load_report ~mode:`Salvage;
    c_save = Gmon.Sprof.save;
    c_runs = (fun (s : Gmon.Sprof.t) -> s.sp_runs);
    c_merge = Gmon.Sprof.merge;
    c_merge_all = Gmon.Sprof.merge_all;
  }

let file_path c sh prefix seq =
  Filename.concat sh.sh_dir (Printf.sprintf "%s%08d%s" prefix seq c.c_ext)

(* Refuse a profile its family's layout cannot sum; the first profile
   a family meets sets the layout. *)
let admit_to c t p =
  let layout = c.c_layout t in
  match !layout with
  | Some l -> c.c_mergeable l p
  | None ->
    layout := Some p;
    Ok ()

(* [p] summed into a track's view, once its family's layout admits it *)
let fold_into c t tr p =
  Result.bind (admit_to c t p) @@ fun () ->
  match tr.view with None -> Ok p | Some v -> c.c_merge v p

(* --- manifest --------------------------------------------------------- *)

let write_manifest dir ~shards =
  let buf = Buffer.create 64 in
  Buffer.add_string buf manifest_magic;
  Buffer.add_string buf (Printf.sprintf "shards %d\n" shards);
  Gmon.Wire.add_footer buf;
  Gmon.Wire.write_file_atomic ~what:"store manifest" (manifest_path dir)
    (Buffer.contents buf)

let read_manifest dir =
  match read_file (manifest_path dir) with
  | None -> `Missing
  | Some s -> (
    let state, body_len = Gmon.Wire.split_footer s in
    let mlen = String.length manifest_magic in
    if state <> `Ok then `Corrupt "checksum failure (torn write?)"
    else if body_len < mlen || String.sub s 0 mlen <> manifest_magic then
      `Corrupt "bad magic"
    else
      match
        Scanf.sscanf
          (String.sub s mlen (body_len - mlen))
          "shards %d\n%!"
          (fun n -> n)
      with
      | n when n >= 1 && n <= 4096 -> `Shards n
      | n -> `Corrupt (Printf.sprintf "absurd shard count %d" n)
      | exception _ -> `Corrupt "unparseable body")

(* --- quarantine ------------------------------------------------------- *)

let quarantine_bytes t ~origin ~reason bytes =
  let seq = t.next_quarantine in
  t.next_quarantine <- seq + 1;
  let base =
    Filename.concat (quarantine_dir_of t.dir) (Printf.sprintf "q-%06d" seq)
  in
  Obs.Metrics.incr m_quarantined;
  match
    Gmon.Wire.write_file_atomic ~what:"quarantined submission" (base ^ ".bin")
      bytes
  with
  | Error e -> Error e
  | Ok () ->
    (* the sidecar is advisory: losing it to a crash costs diagnostics,
       never data *)
    Gmon.Wire.write_file_atomic ~what:"quarantine reason" (base ^ ".reason")
      (Printf.sprintf "origin: %s\nreason: %s\n" origin reason)

(* --- opening and recovery -------------------------------------------- *)

type recovery = {
  mutable rv_segments : int;
  mutable rv_compacted : int;
  mutable rv_salvaged : int;
  mutable rv_quarantined : Gmon.quarantined list;
  mutable rv_notes : string list;
}

let quarantine_file t rv path reason =
  let bytes = Option.value ~default:"" (read_file path) in
  (match quarantine_bytes t ~origin:path ~reason bytes with
  | Ok () | Error _ -> ());
  (try Sys.remove path with Sys_error _ -> ());
  rv.rv_quarantined <- { Gmon.q_path = path; q_reason = reason } :: rv.rv_quarantined

(* Fold a recovered profile into its track's view, or quarantine its
   file when its family's layout cannot sum it. *)
let recover_into c t rv tr path p =
  match fold_into c t tr p with
  | Ok v ->
    tr.view <- Some v;
    true
  | Error reason ->
    quarantine_file t rv path reason;
    false

(* Choose the shard's compacted state. Compact files are examined from
   the highest folded-through sequence down; the first that decodes
   strictly wins. A higher compact file that does not decode can only
   be the remains of an interrupted (or fault-injected) compaction
   whose segments were therefore never deleted, so its content is still
   covered by the lower compact plus the surviving segments — it is
   quarantined, not salvaged. When no compact file decodes at all, a
   damaged one is salvaged only if no segment with a sequence number at
   or below its own survives: segments are deleted only after a compact
   write commits, so a surviving one marks a torn compaction, which is
   quarantined while its segments replay. The newest damaged compact
   left is salvaged, since then its valid prefix is the best remaining
   evidence. Lower intact compact files are subsumed by the chosen one
   and removed. *)
let recover_compacts c t rv tr ~min_seg compacts =
  let ordered = List.sort (fun (a, _) (b, _) -> compare b a) compacts in
  (* a compact of another layout is quarantined, but its sequence
     still marks the segments folded into it *)
  let set path p seq =
    tr.compact_seq <- seq;
    let kept = recover_into c t rv tr path p in
    if kept then rv.rv_compacted <- rv.rv_compacted + 1;
    kept
  in
  let torn_reason =
    "torn compact profile (interrupted compaction; its segments survive)"
  in
  let rec choose damaged = function
    | [] -> (
      (* nothing strict-clean; salvage the newest damaged one whose
         segments are gone, if any *)
      let torn, stale =
        List.partition (fun (seq, _) -> seq >= min_seg) (List.rev damaged)
      in
      List.iter (fun (_, p) -> quarantine_file t rv p torn_reason) torn;
      match stale with
      | [] -> ()
      | (seq, path) :: rest -> (
        List.iter
          (fun (_, p) ->
            quarantine_file t rv p "superseded torn compact profile")
          rest;
        match c.c_load_salvage path with
        | Ok (g, rep) ->
          if set path g seq then begin
            (match c.c_save g path with Ok () | Error _ -> ());
            Obs.Metrics.incr m_salvaged;
            rv.rv_salvaged <- rv.rv_salvaged + 1;
            rv.rv_notes <-
              Printf.sprintf "%s: salvaged (%s)" path (Gmon.report_summary rep)
              :: rv.rv_notes
          end
        | Error e ->
          quarantine_file t rv path
            (Gmon.decode_error_to_string { e with de_path = None })))
    | (seq, path) :: rest -> (
      match c.c_load path with
      | Ok g ->
        ignore (set path g seq);
        (* everything below is strictly subsumed; everything damaged
           above is covered by us + surviving segments *)
        List.iter
          (fun (_, p) -> quarantine_file t rv p torn_reason)
          (List.rev damaged);
        List.iter
          (fun (_, p) ->
            rv.rv_notes <-
              Printf.sprintf "%s: removed (subsumed by newer compaction)" p
              :: rv.rv_notes;
            try Sys.remove p with Sys_error _ -> ())
          rest
      | Error _ -> choose ((seq, path) :: damaged) rest)
  in
  choose [] ordered

(* One tail segment: keep it intact, salvage-rewrite it, or
   quarantine it. The track's compact sequence identifies stale
   leftovers of an interrupted post-compaction delete. *)
let recover_segment c t rv tr path seq =
  let add p =
    let kept = recover_into c t rv tr path p in
    if kept then tr.segments <- (seq, path, c.c_runs p) :: tr.segments;
    kept
  in
  if seq <= tr.compact_seq then begin
    (* already folded into the compact profile: the remains of an
       interrupted post-compaction delete *)
    rv.rv_notes <-
      Printf.sprintf "%s: removed (already folded into compaction %d)" path
        tr.compact_seq
      :: rv.rv_notes;
    try Sys.remove path with Sys_error _ -> ()
  end
  else
    match c.c_load path with
    | Ok g ->
      if add g then begin
        Obs.Metrics.incr m_recovered;
        rv.rv_segments <- rv.rv_segments + 1
      end
    | Error _ -> (
      match c.c_load_salvage path with
      | Ok (g, rep) ->
        if add g then begin
          (* rewrite the salvaged prefix so the segment is intact
             from here on; a failed rewrite keeps the torn file for
             the next recovery *)
          (match c.c_save g path with Ok () | Error _ -> ());
          Obs.Metrics.incr m_salvaged;
          rv.rv_segments <- rv.rv_segments + 1;
          rv.rv_salvaged <- rv.rv_salvaged + 1;
          rv.rv_notes <-
            Printf.sprintf "%s: salvaged (%s)" path (Gmon.report_summary rep)
            :: rv.rv_notes
        end
      | Error e ->
        quarantine_file t rv path
          (Gmon.decode_error_to_string { e with de_path = None }))

(* Compacts before segments: a segment at or below its track's compact
   sequence is already folded into it. Building a track's view from
   disk here is the only cache miss it ever has. *)
let recover_shard t rv sh =
  let entries = list_dir sh.sh_dir in
  let files c prefix =
    List.filter_map
      (fun name ->
        Option.map
          (fun seq -> (seq, Filename.concat sh.sh_dir name))
          (scan_seq prefix c.c_ext name))
      entries
  in
  let recover c =
    let tr = c.c_track sh in
    let compacts = files c c.c_compact and segments = files c c.c_seg in
    if compacts <> [] || segments <> [] then begin
      Obs.Metrics.incr m_cache_misses;
      Obs.Trace.with_span ~cat:"store" c.c_view_span
        ~args:[ ("shard", string_of_int sh.sh_index) ]
      @@ fun () ->
      let min_seg =
        List.fold_left (fun acc (seq, _) -> min acc seq) max_int segments
      in
      recover_compacts c t rv tr ~min_seg compacts;
      List.iter
        (fun (seq, path) ->
          tr.next_seq <- max tr.next_seq (seq + 1);
          recover_segment c t rv tr path seq)
        segments;
      tr.next_seq <- max tr.next_seq (tr.compact_seq + 1)
    end
  in
  recover gmon_codec;
  recover sprof_codec

let open_ ?(shards = default_shards) dir =
  if shards < 1 || shards > 4096 then
    Error (Printf.sprintf "store: absurd shard count %d" shards)
  else
    Obs.Trace.with_span ~cat:"store" "store-open" ~args:[ ("dir", dir) ]
    @@ fun () ->
    Result.bind (mkdir_p dir) @@ fun () ->
    let existing_shard_dirs =
      List.filter
        (fun name ->
          String.length name > 6
          && String.sub name 0 6 = "shard-"
          && Sys.is_directory (Filename.concat dir name))
        (list_dir dir)
    in
    let notes = ref [] in
    let created = ref false in
    let shard_count =
      match read_manifest dir with
      | `Shards n ->
        if List.length existing_shard_dirs <= n then Ok n
        else
          Error
            (Printf.sprintf
               "store %s: manifest says %d shard(s) but %d shard directories \
                exist"
               dir n
               (List.length existing_shard_dirs))
      | `Missing when existing_shard_dirs = [] ->
        (* a fresh store *)
        created := true;
        Result.map (fun () -> shards) (write_manifest dir ~shards)
      | `Missing ->
        (* segments exist but the manifest is gone: the shard count is
           load-bearing (it is the label-to-shard map), so rebuild it
           from the directories and say so *)
        let n = List.length existing_shard_dirs in
        notes :=
          Printf.sprintf "manifest missing; rebuilt for %d shard(s)" n :: !notes;
        Result.map (fun () -> n) (write_manifest dir ~shards:n)
      | `Corrupt why ->
        if existing_shard_dirs = [] then begin
          created := true;
          notes := Printf.sprintf "manifest corrupt (%s); recreated" why :: !notes;
          Result.map (fun () -> shards) (write_manifest dir ~shards)
        end
        else begin
          let n = List.length existing_shard_dirs in
          notes :=
            Printf.sprintf "manifest corrupt (%s); rebuilt for %d shard(s)" why n
            :: !notes;
          Result.map (fun () -> n) (write_manifest dir ~shards:n)
        end
    in
    Result.bind shard_count @@ fun n_shards ->
    Result.bind (mkdir_p (quarantine_dir_of dir)) @@ fun () ->
    let track () = { segments = []; next_seq = 1; compact_seq = 0; view = None } in
    let mk i =
      { sh_index = i; sh_dir = shard_dir dir i; arcs = track ();
        sampled = track () }
    in
    let shards_arr = Array.init n_shards mk in
    let rec make_dirs i =
      if i >= n_shards then Ok ()
      else
        match mkdir_p shards_arr.(i).sh_dir with
        | Error e -> Error e
        | Ok () -> make_dirs (i + 1)
    in
    Result.bind (make_dirs 0) @@ fun () ->
    let next_q =
      List.fold_left
        (fun acc name ->
          match scan_seq "q-" ".bin" name with
          | Some n -> max acc (n + 1)
          | None -> acc)
        1
        (list_dir (quarantine_dir_of dir))
    in
    let t =
      {
        dir;
        n_shards;
        shards = shards_arr;
        next_quarantine = next_q;
        arc_layout = ref None;
        sprof_layout = ref None;
      }
    in
    let rv =
      {
        rv_segments = 0;
        rv_compacted = 0;
        rv_salvaged = 0;
        rv_quarantined = [];
        rv_notes = [];
      }
    in
    Array.iter (recover_shard t rv) shards_arr;
    Ok
      ( t,
        {
          or_created = !created;
          or_segments = rv.rv_segments;
          or_compacted = rv.rv_compacted;
          or_salvaged = rv.rv_salvaged;
          or_quarantined = List.rev rv.rv_quarantined;
          or_notes = List.rev !notes @ List.rev rv.rv_notes;
        } )

let dir t = t.dir

let n_shards t = t.n_shards

let quarantine_dir t = quarantine_dir_of t.dir

let shard_of_label t label =
  Int64.to_int
    (Int64.rem
       (Int64.logand (Util.Fnv.fnv1a64 label) Int64.max_int)
       (Int64.of_int t.n_shards))

(* --- appending -------------------------------------------------------- *)

(* The profile is folded into the view before its segment is written,
   so one that cannot be summed never reaches disk; the new view is
   committed only once the write has succeeded. *)
let append_to c t ~label p =
  let sh = t.shards.(shard_of_label t label) in
  let tr = c.c_track sh in
  Result.bind (fold_into c t tr p) @@ fun view ->
  let seq = tr.next_seq in
  let path = file_path c sh c.c_seg seq in
  (* bump first: even a failed (torn) write may leave a file at this
     path, and a retry must not collide with it *)
  tr.next_seq <- seq + 1;
  match c.c_save p path with
  | Error e -> Error e
  | Ok () ->
    tr.segments <- (seq, path, c.c_runs p) :: tr.segments;
    tr.view <- Some view;
    Obs.Metrics.incr m_appends;
    Ok ()

let append t ~label g = append_to gmon_codec t ~label g

let append_sprof t ~label sp = append_to sprof_codec t ~label sp

type profile = Arc of Gmon.t | Sampled of Gmon.Sprof.t

let admit t = function
  | Arc g -> admit_to gmon_codec t g
  | Sampled sp -> admit_to sprof_codec t sp

let quarantine t ~label ~reason bytes =
  quarantine_bytes t ~origin:("submission " ^ label) ~reason bytes

(* --- queries ---------------------------------------------------------- *)

let shard_view c sh =
  Obs.Metrics.incr m_cache_hits;
  (c.c_track sh).view

let merged_of c t =
  match List.filter_map (shard_view c) (Array.to_list t.shards) with
  | [] -> Ok None
  | parts -> Result.map Option.some (c.c_merge_all parts)

let merged t = merged_of gmon_codec t

let merged_sprof t = merged_of sprof_codec t

(* --- compaction ------------------------------------------------------- *)

(* Compaction saves the view the track already holds. *)
let compact_track c sh =
  let tr = c.c_track sh in
  match (tr.segments, tr.view) with
  | [], _ | _, None -> Ok 0
  | segs, Some m ->
    let folded_seq =
      List.fold_left (fun acc (s, _, _) -> max acc s) tr.compact_seq segs
    in
    (* commit point: the rename of compact-<folded_seq> into place.
       A crash before it loses nothing (the old compact and every
       segment survive); a crash after it leaves stale segments with
       seq <= folded_seq and possibly the old compact file, all of
       which recovery identifies by sequence number and removes
       without double-counting. *)
    Result.bind (c.c_save m (file_path c sh c.c_compact folded_seq))
    @@ fun () ->
    List.iter
      (fun (_, path, _) -> try Sys.remove path with Sys_error _ -> ())
      segs;
    if tr.compact_seq > 0 then begin
      try Sys.remove (file_path c sh c.c_compact tr.compact_seq)
      with Sys_error _ -> ()
    end;
    let n = List.length segs in
    tr.segments <- [];
    tr.compact_seq <- folded_seq;
    Obs.Metrics.incr m_segments_folded ~by:n;
    Ok n

let compact t =
  Obs.Trace.with_span ~cat:"store" "store-compact" @@ fun () ->
  Obs.Metrics.incr m_compactions;
  let rec go acc i =
    if i >= t.n_shards then Ok acc
    else
      Result.bind (compact_track gmon_codec t.shards.(i)) @@ fun n ->
      Result.bind (compact_track sprof_codec t.shards.(i)) @@ fun ns ->
      go (acc + n + ns) (i + 1)
  in
  go 0 0

(* --- stats ------------------------------------------------------------ *)

type stats = {
  st_shards : int;
  st_segments : int;
  st_compacted_runs : int;
  st_total_runs : int;
  st_sprof_segments : int;
  st_sprof_runs : int;
  st_quarantined : int;
  st_cache_hits : int;
  st_cache_misses : int;
  st_disk_bytes : int;
}

(* (tail segments, tail runs, all runs, bytes on disk) of one track,
   summed over the shards. The view holds every run; the compacted
   ones are those not in the tail. *)
let track_stats c t =
  Array.fold_left
    (fun (segs, tail_runs, runs, bytes) sh ->
      let tr = c.c_track sh in
      let segs, tail_runs, bytes =
        List.fold_left
          (fun (n, r, b) (_, path, k) -> (n + 1, r + k, b + file_size path))
          (segs, tail_runs, bytes) tr.segments
      in
      let compact_bytes =
        if tr.compact_seq > 0 then
          file_size (file_path c sh c.c_compact tr.compact_seq)
        else 0
      in
      ( segs,
        tail_runs,
        runs + Option.fold ~none:0 ~some:c.c_runs tr.view,
        bytes + compact_bytes ))
    (0, 0, 0, 0) t.shards

let stats t =
  let segments, tail_runs, runs, bytes = track_stats gmon_codec t in
  let ssegments, _, sprof_runs, sbytes = track_stats sprof_codec t in
  let quarantined =
    List.length
      (List.filter
         (fun n -> Filename.check_suffix n ".bin")
         (list_dir (quarantine_dir t)))
  in
  {
    st_shards = t.n_shards;
    st_segments = segments;
    st_compacted_runs = runs - tail_runs;
    st_total_runs = runs;
    st_sprof_segments = ssegments;
    st_sprof_runs = sprof_runs;
    st_quarantined = quarantined;
    st_cache_hits = Obs.Metrics.counter_value m_cache_hits;
    st_cache_misses = Obs.Metrics.counter_value m_cache_misses;
    st_disk_bytes = bytes + sbytes;
  }

type shard_info = {
  si_index : int;
  si_segments : int;
  si_sprof_segments : int;
  si_compact_seq : int;
  si_scompact_seq : int;
}

let shard_info t =
  Array.to_list
    (Array.map
       (fun sh ->
         {
           si_index = sh.sh_index;
           si_segments = List.length sh.arcs.segments;
           si_sprof_segments = List.length sh.sampled.segments;
           si_compact_seq = sh.arcs.compact_seq;
           si_scompact_seq = sh.sampled.compact_seq;
         })
       t.shards)

let last_compact_seq t =
  Array.fold_left
    (fun acc sh -> max acc (max sh.arcs.compact_seq sh.sampled.compact_seq))
    0 t.shards

let stats_to_json s =
  Printf.sprintf
    "{\"shards\":%d,\"segments\":%d,\"compacted_runs\":%d,\"total_runs\":%d,\
     \"sprof_segments\":%d,\"sprof_runs\":%d,\
     \"quarantined\":%d,\"cache_hits\":%d,\"cache_misses\":%d,\"disk_bytes\":%d}"
    s.st_shards s.st_segments s.st_compacted_runs s.st_total_runs
    s.st_sprof_segments s.st_sprof_runs s.st_quarantined s.st_cache_hits
    s.st_cache_misses s.st_disk_bytes

(* --- merged-view queries ---------------------------------------------- *)

let top_buckets t ~n =
  match merged t with
  | Error e -> Error e
  | Ok None -> Ok []
  | Ok (Some g) ->
    let nonzero = ref [] in
    Array.iteri
      (fun i c -> if c > 0 then nonzero := (i, c) :: !nonzero)
      g.Gmon.hist.h_counts;
    let sorted =
      List.sort (fun (i1, c1) (i2, c2) -> compare (-c1, i1) (-c2, i2)) !nonzero
    in
    let rec take k = function
      | [] -> []
      | _ when k <= 0 -> []
      | x :: rest -> x :: take (k - 1) rest
    in
    Ok
      (List.map
         (fun (i, c) ->
           let lo, hi = Gmon.bucket_range g.Gmon.hist i in
           (lo, hi, c))
         (take n sorted))

let sync t =
  (* The atomic writer leaves durability of the *rename* to the
     directory: fsync every shard directory (and the root, for the
     manifest and quarantine) so a power cut after a graceful drain
     cannot roll back segments the daemon already acknowledged. *)
  let sync_dir path =
    match Unix.openfile path [ Unix.O_RDONLY ] 0 with
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "%s: %s" path (Unix.error_message e))
    | fd ->
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
        (fun () ->
          match Unix.fsync fd with
          | () -> Ok ()
          | exception Unix.Unix_error (e, _, _) ->
            (* some filesystems refuse fsync on a directory fd; that
               is a property of the mount, not a store failure *)
            if e = Unix.EINVAL || e = Unix.EBADF then Ok ()
            else Error (Printf.sprintf "%s: %s" path (Unix.error_message e)))
  in
  let dirs =
    t.dir
    :: quarantine_dir t
    :: Array.to_list (Array.map (fun sh -> sh.sh_dir) t.shards)
  in
  let rec go = function
    | [] -> Ok ()
    | d :: rest ->
      if not (Sys.file_exists d) then go rest
      else ( match sync_dir d with Ok () -> go rest | Error e -> Error e)
  in
  go dirs
