type hist = {
  h_lowpc : int;
  h_highpc : int;
  h_bucket_size : int;
  h_counts : int array;
}

type arc = { a_from : int; a_self : int; a_count : int }

type t = {
  hist : hist;
  arcs : arc list;
  ticks_per_second : int;
  cycles_per_tick : int;
  runs : int;
}

let n_buckets ~lowpc ~highpc ~bucket_size =
  (highpc - lowpc + bucket_size - 1) / bucket_size

let make_hist ~lowpc ~highpc ~bucket_size =
  if bucket_size <= 0 then invalid_arg "Gmon.make_hist: bucket_size must be positive";
  if lowpc < 0 || highpc <= lowpc then
    invalid_arg "Gmon.make_hist: need 0 <= lowpc < highpc";
  {
    h_lowpc = lowpc;
    h_highpc = highpc;
    h_bucket_size = bucket_size;
    h_counts = Array.make (n_buckets ~lowpc ~highpc ~bucket_size) 0;
  }

let bucket_of_pc h pc =
  if pc < h.h_lowpc || pc >= h.h_highpc then None
  else Some ((pc - h.h_lowpc) / h.h_bucket_size)

let bucket_range h i =
  let lo = h.h_lowpc + (i * h.h_bucket_size) in
  (lo, min (lo + h.h_bucket_size) h.h_highpc)

(* Buckets are uniform, so the ones overlapping [lo, hi) are one run
   of indices: [(lo - lowpc) / size] to [(hi - 1 - lowpc) / size],
   clamped to the array. Both numerators are nonnegative once the
   range meets [lowpc, highpc), so the divisions floor. *)
let iter_overlapping h ~lo ~hi f =
  let nb = Array.length h.h_counts in
  let bs = h.h_bucket_size in
  if bs > 0 && nb > 0 && hi > h.h_lowpc && lo < h.h_highpc then
    for i = (max lo h.h_lowpc - h.h_lowpc) / bs
        to min (nb - 1) ((hi - 1 - h.h_lowpc) / bs) do
      f i h.h_counts.(i)
    done

let total_ticks t = Array.fold_left ( + ) 0 t.hist.h_counts

let seconds_of_ticks t ticks = float_of_int ticks /. float_of_int t.ticks_per_second

let total_seconds t = seconds_of_ticks t (total_ticks t)

let arc_count_into t self =
  List.fold_left
    (fun acc a -> if a.a_self = self then acc + a.a_count else acc)
    0 t.arcs

(* arcs are keyed by (call site, callee) *)
let compare_arc a b =
  let c = compare a.a_from b.a_from in
  if c <> 0 then c else compare a.a_self b.a_self

let add_arc x y = { x with a_count = x.a_count + y.a_count }

let validate t =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let h = t.hist in
  if h.h_bucket_size <= 0 then err "bucket size %d not positive" h.h_bucket_size;
  if h.h_lowpc < 0 || h.h_highpc <= h.h_lowpc then
    err "bad pc range [%d,%d)" h.h_lowpc h.h_highpc;
  (* the bucket-count check only makes sense on a sane geometry (and
     n_buckets divides by the bucket size) *)
  if h.h_bucket_size > 0 && h.h_lowpc >= 0 && h.h_highpc > h.h_lowpc then begin
    let expect =
      n_buckets ~lowpc:h.h_lowpc ~highpc:h.h_highpc ~bucket_size:h.h_bucket_size
    in
    if Array.length h.h_counts <> expect then
      err "histogram has %d buckets, expected %d" (Array.length h.h_counts) expect
  end;
  Array.iteri (fun i c -> if c < 0 then err "negative count in bucket %d" i) h.h_counts;
  Container.iter_pairs
    (fun _ a b ->
      if compare_arc a b >= 0 then
        err "arcs not strictly sorted at (%d,%d)" b.a_from b.a_self)
    t.arcs;
  List.iter
    (fun a ->
      if a.a_count < 0 then err "negative arc count on (%d,%d)" a.a_from a.a_self)
    t.arcs;
  if t.ticks_per_second <= 0 then err "ticks_per_second %d not positive" t.ticks_per_second;
  if t.cycles_per_tick <= 0 then err "cycles_per_tick %d not positive" t.cycles_per_tick;
  if t.runs < 1 then err "runs %d < 1" t.runs;
  match List.rev !errs with [] -> Ok () | es -> Error es

include Container.Report

(* --- self-observability --------------------------------------------- *)

(* The codec publishes its traffic to the process-wide registry: the
   retrospective found that "reading data files … represents the
   dominating factor" of gprof's own run time, so the byte counts are
   first-class metrics. Salvage bookkeeping lands there too, so callers
   can report exactly what was dropped without threading the report
   around. Epoch containers count as gmon traffic. *)
let m =
  Container.metrics ~prefix:"gmon." ~records:"arcs" ~buckets:true
    [
      ("bytes_written", "profile data bytes encoded");
      ("bytes_read", "profile data bytes presented for decoding");
      ("arcs_merged", "arc records combined on key collision during profile summing");
      ("decode_errors", "profile decodes rejected outright (strict or unsalvageable)");
      ("salvage.files", "profiles recovered with data loss by salvage decoding");
    ]

let m_quarantined =
  Container.counter ~help:"undecodable profiles skipped by quarantined summing"
    "gmon.quarantined_files"

let mergeable a b =
  let ha = a.hist and hb = b.hist in
  if
    ha.h_lowpc <> hb.h_lowpc || ha.h_highpc <> hb.h_highpc
    || ha.h_bucket_size <> hb.h_bucket_size
  then Error "cannot merge profiles with different histogram layouts"
  else if a.ticks_per_second <> b.ticks_per_second then
    Error "cannot merge profiles with different clock rates"
  else if a.cycles_per_tick <> b.cycles_per_tick then
    Error "cannot merge profiles with different cycle rates"
  else Ok ()

let merge a b =
  Result.map
    (fun () ->
      let ha = a.hist and hb = b.hist in
      let counts = Array.mapi (fun i c -> c + hb.h_counts.(i)) ha.h_counts in
      let arcs =
        Container.merge_tables m ~compare:compare_arc ~add:add_arc a.arcs b.arcs
      in
      {
        hist = { ha with h_counts = counts };
        arcs;
        ticks_per_second = a.ticks_per_second;
        cycles_per_tick = a.cycles_per_tick;
        runs = a.runs + b.runs;
      })
    (mergeable a b)

let merge_all = Container.merge_all ~empty:"no profiles to merge" merge

(* --- the gmon schema ------------------------------------------------ *)

let put = Container.put

let write_arcs buf arcs =
  put buf (List.length arcs);
  List.iter
    (fun a ->
      put buf a.a_from;
      put buf a.a_self;
      put buf a.a_count)
    arcs

(* Only nonzero entries, as (index, value) pairs after their count. *)
let write_sparse buf counts =
  put buf (Array.fold_left (fun n x -> if x <> 0 then n + 1 else n) 0 counts);
  Array.iteri
    (fun i x ->
      if x <> 0 then begin
        put buf i;
        put buf x
      end)
    counts

(* The clock rates and run count in three header fields from [at].
   The header is load-bearing: without it nothing downstream can be
   interpreted, so its damage is unrecoverable even in salvage mode. *)
let check_rates c ~at tps cpt runs =
  let bad k name fmt =
    Container.fail c ~offset:(at + (8 * k)) ~context:("header field " ^ name) fmt
  in
  if tps <= 0 then bad 0 "ticks_per_second" "%d not positive" tps;
  if cpt <= 0 then bad 1 "cycles_per_tick" "%d not positive" cpt;
  if runs < 1 then bad 2 "runs" "%d < 1" runs

(* The geometry and clock rates that open gmon files and epoch
   containers (gmon adds [runs]), as an empty profile and its bucket
   count. Every field is read before any is checked. *)
let read_geometry c ~with_runs =
  let open Container in
  let at = c.pos in
  let lowpc = field c "lowpc" in
  let highpc = field c "highpc" in
  let bucket_size = field c "bucket_size" in
  let ticks_per_second = field c "ticks_per_second" in
  let cycles_per_tick = field c "cycles_per_tick" in
  let runs = if with_runs then field c "runs" else 1 in
  if bucket_size <= 0 then
    fail c ~offset:(at + 16) ~context:"header field bucket_size" "%d not positive"
      bucket_size;
  if lowpc < 0 || highpc <= lowpc then
    fail c ~offset:(at + 8) ~context:"header pc range" "bad range [%d,%d)" lowpc highpc;
  check_rates c ~at:(at + 24) ticks_per_second cycles_per_tick runs;
  let nb = n_buckets ~lowpc ~highpc ~bucket_size in
  if nb < 0 || nb > 1 lsl 26 then
    fail c ~offset:(at + 8) ~context:"header pc range"
      "range [%d,%d) at bucket size %d implies an absurd bucket count" lowpc highpc
      bucket_size;
  let hist =
    { h_lowpc = lowpc; h_highpc = highpc; h_bucket_size = bucket_size; h_counts = [||] }
  in
  ({ hist; arcs = []; ticks_per_second; cycles_per_tick; runs }, nb)

let read c =
  let open Container in
  let header, expect = read_geometry c ~with_runs:true in
  (* The stored bucket count is header too: when it disagrees with the
     geometry, either it or a geometry field is damaged, and the
     decoder cannot tell which — reading on would take arc records for
     buckets or buckets for arcs. *)
  let stored = int c "bucket count" in
  if stored <> expect then
    bad c 8 "bucket count"
      "stored count %d disagrees with the pc range (expected %d)" stored expect;
  (* Buckets: in salvage mode a short or damaged histogram is
     zero-filled — zeros never invent ticks, and the geometry stays
     intact so the result still validates. *)
  let counts = Array.make expect 0 in
  let i = ref 0 in
  salvage c
    (fun () ->
      while !i < expect do
        let v = int_at c "bucket" !i "" in
        if v >= 0 then counts.(!i) <- v
        else if strict c then bad c 8 (ctx "bucket" !i "") "negative count %d" v
        else begin
          c.lost_buckets <- c.lost_buckets + 1;
          note c "bucket %d had negative count %d; zeroed" !i v
        end;
        incr i
      done)
    ~damaged:(fun e ->
      c.lost_buckets <- c.lost_buckets + (expect - !i);
      note c "histogram truncated at byte %d: buckets %d..%d zero-filled" e.de_offset !i
        (expect - 1));
  (* Arcs: whole records only; a partial trailing record or a record
     with a negative count is dropped, never repaired. Every unread
     record counts as dropped — unless the count itself is torn, when
     the loss is unknown. *)
  let rev_arcs = ref [] and n_read = ref 0 and n_stored = ref 0 in
  salvage c
    (fun () ->
      n_stored := count c "arc count" ~max:(1 lsl 30);
      while !n_read < !n_stored do
        if c.pos + 24 > c.stop then
          fail c ~offset:c.pos ~context:(ctx "arc" !n_read "") "need 24 bytes, have %d"
            (c.stop - c.pos);
        let a_from = get c in
        let a_self = get c in
        let a_count = get c in
        if a_count >= 0 then rev_arcs := { a_from; a_self; a_count } :: !rev_arcs
        else if strict c then
          bad c 24 (ctx "arc" !n_read "") "negative traversal count %d" a_count
        else begin
          c.lost_records <- c.lost_records + 1;
          note c "arc %d (%d -> %d) had negative count %d; dropped" !n_read a_from
            a_self a_count
        end;
        incr n_read
      done)
    ~damaged:(fun e ->
      note c "arc table ends early at byte %d after %d whole record(s)" e.de_offset
        !n_read;
      c.lost_records <- c.lost_records + (!n_stored - !n_read);
      c.lost_bytes <- c.lost_bytes + (c.stop - c.pos));
  let arcs =
    canonical c ~compare:compare_arc ~context:"arc table"
      ~refuse:"records not strictly sorted" ~repair:"arc table unsorted; reordered"
      (List.rev !rev_arcs)
  in
  { header with hist = { header.hist with h_counts = counts }; arcs }

include Container.Make (struct
  type nonrec t = t

  let magic = "GMONOCAML1\n"
  let noun = "a profile data file"
  let what = "profile data"
  let span = Some "gmon"
  let metrics = Some m

  let write buf t =
    let h = t.hist in
    List.iter (put buf)
      [ h.h_lowpc; h.h_highpc; h.h_bucket_size; t.ticks_per_second; t.cycles_per_tick;
        t.runs; Array.length h.h_counts ];
    Array.iter (put buf) h.h_counts;
    write_arcs buf t.arcs

  let read = read
end)

let inject_torn_save = Container.inject_torn_save

(* --- quarantined summing -------------------------------------------- *)

type quarantined = { q_path : string; q_reason : string }

let merge_all_quarantine inputs =
  let rev_quarantined = ref [] in
  let quarantine path reason acc =
    rev_quarantined := { q_path = path; q_reason = reason } :: !rev_quarantined;
    Obs.Metrics.incr m_quarantined;
    acc
  in
  let add acc (path, r) =
    match (r, acc) with
    | Error e, _ -> quarantine path e acc
    | Ok g, None -> Some g
    | Ok g, Some a -> (
      match merge a g with Ok m -> Some m | Error e -> quarantine path e acc)
  in
  match List.fold_left add None inputs with
  | Some t -> Ok (t, List.rev !rev_quarantined)
  | None ->
    Error
      (if inputs = [] then "no profiles to merge"
       else
         Printf.sprintf "all %d profile(s) quarantined: %s" (List.length inputs)
           (String.concat "; "
              (List.map
                 (fun q -> Printf.sprintf "%s (%s)" q.q_path q.q_reason)
                 (List.rev !rev_quarantined))))

(* plain data throughout, so structural equality is field equality *)
let equal (a : t) b = a = b

let pp ppf t =
  Format.fprintf ppf
    "@[<v>profile: pc [%d,%d) step %d, %d ticks @@ %d Hz (%.3fs), %d run(s)"
    t.hist.h_lowpc t.hist.h_highpc t.hist.h_bucket_size (total_ticks t)
    t.ticks_per_second (total_seconds t) t.runs;
  Array.iteri
    (fun i c ->
      if c > 0 then
        let lo, hi = bucket_range t.hist i in
        Format.fprintf ppf "@,  bucket %d [%d,%d): %d" i lo hi c)
    t.hist.h_counts;
  List.iter
    (fun a -> Format.fprintf ppf "@,  arc %d -> %d: %d" a.a_from a.a_self a.a_count)
    t.arcs;
  Format.fprintf ppf "@]"

type profile = t

module Wire = Container

module Icount = struct
  type t = { text_size : int; counts : int array }

  let of_counts counts = { text_size = Array.length counts; counts = Array.copy counts }

  let count t addr =
    if addr < 0 || addr >= t.text_size then
      invalid_arg "Icount.count: address out of range";
    t.counts.(addr)

  let merge a b =
    if a.text_size <> b.text_size then
      Error "cannot merge instruction counts for different binaries"
    else
      Ok
        {
          text_size = a.text_size;
          counts = Array.mapi (fun i c -> c + b.counts.(i)) a.counts;
        }

  include Container.Make (struct
    type nonrec t = t

    let magic = "ICOUNTOCaml1\n"
    let noun = "an instruction-count file"
    let what = "instruction counts"
    let span = None
    let metrics = None

    let write buf t =
      put buf t.text_size;
      write_sparse buf t.counts

    let read c =
      let open Container in
      let text_size = int c "text size" in
      if text_size < 0 || text_size > 1 lsl 30 then
        bad c 8 "text size" "absurd value %d" text_size;
      let nonzero = int c "entry count" in
      if nonzero < 0 || nonzero > text_size then
        bad c 8 "entry count" "absurd value %d for text size %d" nonzero text_size;
      let counts = Array.make text_size 0 in
      for i = 1 to nonzero do
        let addr = int_at c "entry" i " address" in
        let v = int_at c "entry" i " count" in
        if addr < 0 || addr >= text_size then
          bad c 16 (ctx "entry" i " address") "%d outside text [0,%d)" addr text_size;
        if v <= 0 then bad c 8 (ctx "entry" i " count") "nonpositive count %d" v;
        if counts.(addr) <> 0 then
          bad c 16 (ctx "entry" i " address") "duplicate entry for address %d" addr;
        counts.(addr) <- v
      done;
      { text_size; counts }
  end)

  let load path = load path

  let equal (a : t) b = a = b
end

module Epoch = struct
  type entry = {
    ep_end_cycle : int;
    ep_end_tick : int;
    ep_counts : int array;
    ep_arcs : arc list;
  }

  type t = {
    e_lowpc : int;
    e_highpc : int;
    e_bucket_size : int;
    e_ticks_per_second : int;
    e_cycles_per_tick : int;
    e_epochs : entry list;
  }

  let n_epochs c = List.length c.e_epochs

  let container_buckets c =
    n_buckets ~lowpc:c.e_lowpc ~highpc:c.e_highpc ~bucket_size:c.e_bucket_size

  let profile c counts arcs =
    {
      hist =
        { h_lowpc = c.e_lowpc; h_highpc = c.e_highpc;
          h_bucket_size = c.e_bucket_size; h_counts = counts };
      arcs;
      ticks_per_second = c.e_ticks_per_second;
      cycles_per_tick = c.e_cycles_per_tick;
      runs = 1;
    }

  (* The header must make a valid empty profile; then every epoch a
     valid interval profile, and no boundary may move backwards. *)
  let validate c =
    let sane = c.e_bucket_size > 0 && c.e_lowpc >= 0 && c.e_highpc > c.e_lowpc in
    let nb = if sane then container_buckets c else 0 in
    match validate (profile c (Array.make nb 0) []) with
    | Error _ as header -> header
    | Ok () ->
      let errs = ref [] and prev_cycle = ref 0 and prev_tick = ref 0 in
      let err fmt = Printf.ksprintf (fun s -> errs := s :: !errs) fmt in
      List.iteri
        (fun k e ->
          let k = k + 1 in
          Result.iter_error (List.iter (err "epoch %d %s" k))
            (validate (profile c e.ep_counts e.ep_arcs));
          if e.ep_end_cycle < !prev_cycle then
            err "epoch %d cycle boundary %d before %d" k e.ep_end_cycle !prev_cycle;
          if e.ep_end_tick < !prev_tick then
            err "epoch %d tick boundary %d before %d" k e.ep_end_tick !prev_tick;
          prev_cycle := e.ep_end_cycle;
          prev_tick := e.ep_end_tick)
        c.e_epochs;
      match List.rev !errs with [] -> Ok () | es -> Error es

  let profile_of c e = profile c (Array.copy e.ep_counts) e.ep_arcs

  let nth c k =
    if k < 1 || k > n_epochs c then
      Error
        (Printf.sprintf "epoch %d out of range (container has %d)" k
           (n_epochs c))
    else Ok (List.nth c.e_epochs (k - 1))

  let sum c =
    match c.e_epochs with
    | [] -> Error "epoch container is empty"
    | es -> (
      match validate c with
      | Error errs -> Error (String.concat "; " errs)
      | Ok () ->
        let counts = Array.make (container_buckets c) 0 in
        let arcs =
          List.fold_left
            (fun acc e ->
              Array.iteri (fun i n -> counts.(i) <- counts.(i) + n) e.ep_counts;
              Container.union ~compare:compare_arc ~add:add_arc acc e.ep_arcs)
            [] es
        in
        Ok (profile c counts arcs))

  let m_salvaged_epochs =
    Container.counter
      ~help:"whole epochs dropped from the tail of torn timeline containers"
      "gmon.salvage.dropped_epochs"

  (* Epochs are recovered whole or not at all: a failure inside epoch
     k drops k and everything after it — the prefix is intact data,
     the tail is never guessed at. *)
  let read c =
    let open Container in
    let p, nb = read_geometry c ~with_runs:false in
    let stored = count c "epoch count" ~max:(1 lsl 20) in
    let prev_cycle = ref 0 and prev_tick = ref 0 in
    let read_epoch k =
      let k = k + 1 in
      let end_cycle = int_at c "epoch" k " end_cycle" in
      let end_tick = int_at c "epoch" k " end_tick" in
      if end_cycle < !prev_cycle || end_tick < !prev_tick then
        fail c ~offset:c.pos ~context:(ctx "epoch" k "")
          "boundary (%d cycles, %d ticks) before its predecessor" end_cycle end_tick;
      let nonzero = int_at c "epoch" k " bucket entry count" in
      if nonzero < 0 || nonzero > nb then
        bad c 8 (ctx "epoch" k " bucket entry count")
          "absurd value %d for %d buckets" nonzero nb;
      let counts = Array.make nb 0 in
      let prev_idx = ref (-1) in
      for _ = 1 to nonzero do
        let i = int_at c "epoch" k " bucket index" in
        let v = int_at c "epoch" k " bucket delta" in
        if i <= !prev_idx || i >= nb then
          bad c 16 (ctx "epoch" k " bucket index")
            "index %d out of order or outside [0,%d)" i nb;
        if v < 0 then bad c 8 (ctx "epoch" k " bucket delta") "negative count %d" v;
        counts.(i) <- v;
        prev_idx := i
      done;
      let narcs = int_at c "epoch" k " arc count" in
      if narcs < 0 || narcs > 1 lsl 26 then
        bad c 8 (ctx "epoch" k " arc count") "absurd value %d" narcs;
      let rev_arcs = ref [] in
      for _ = 1 to narcs do
        let a_from = int_at c "epoch" k " arc from" in
        let a_self = int_at c "epoch" k " arc self" in
        let a_count = int_at c "epoch" k " arc count field" in
        let a = { a_from; a_self; a_count } in
        (match !rev_arcs with
        | prev :: _ when compare_arc prev a >= 0 ->
          bad c 24 (ctx "epoch" k " arc table")
            "records not strictly sorted at (%d,%d)" a_from a_self
        | _ -> ());
        if a_count < 0 then
          bad c 8 (ctx "epoch" k " arc count field")
            "negative traversal count %d" a_count;
        rev_arcs := a :: !rev_arcs
      done;
      prev_cycle := end_cycle;
      prev_tick := end_tick;
      { ep_end_cycle = end_cycle; ep_end_tick = end_tick; ep_counts = counts;
        ep_arcs = List.rev !rev_arcs }
    in
    let epochs =
      records c stored read_epoch ~lost:(fun e k ->
          Obs.Metrics.incr m_salvaged_epochs ~by:(stored - k);
          note c "epoch stream damaged at byte %d: epoch(s) %d..%d dropped" e.de_offset
            (k + 1) stored)
    in
    {
      e_lowpc = p.hist.h_lowpc;
      e_highpc = p.hist.h_highpc;
      e_bucket_size = p.hist.h_bucket_size;
      e_ticks_per_second = p.ticks_per_second;
      e_cycles_per_tick = p.cycles_per_tick;
      e_epochs = epochs;
    }

  include Container.Make (struct
    type nonrec t = t

    let magic = "GMONEPOCH1\n"
    let noun = "an epoch container"
    let what = "epoch container"
    let span = Some "epoch"
    let metrics = Some m

    let write buf c =
      List.iter (put buf)
        [ c.e_lowpc; c.e_highpc; c.e_bucket_size; c.e_ticks_per_second;
          c.e_cycles_per_tick; List.length c.e_epochs ];
      List.iter
        (fun e ->
          put buf e.ep_end_cycle;
          put buf e.ep_end_tick;
          write_sparse buf e.ep_counts;
          write_arcs buf e.ep_arcs)
        c.e_epochs

    let read = read
  end)

  let equal (a : t) b = a = b
end

module Sprof = struct
  type t = {
    sp_sample_interval : int;
    sp_ticks_per_second : int;
    sp_cycles_per_tick : int;
    sp_runs : int;
    sp_stacks : (int array * int) list;
  }

  (* Explicit lexicographic order over frame addresses (shorter stack
     first on a shared prefix): the canonical order every container
     stores its table in, so that equal merges are byte-identical
     regardless of the order inputs arrived in. Deliberately not the
     polymorphic compare, whose array ordering puts length first. *)
  let compare_stack a b =
    let la = Array.length a and lb = Array.length b in
    let rec go i =
      if i >= la || i >= lb then compare la lb
      else
        let c = compare a.(i) b.(i) in
        if c <> 0 then c else go (i + 1)
    in
    go 0

  let compare_entry (a, _) (b, _) = compare_stack a b

  let add_entry (s, x) (_, y) = (s, x + y)

  (* Sort into canonical order and sum counts of duplicate stacks;
     zero- or negative-count entries are dropped (they carry no
     samples). *)
  let normalize stacks =
    List.filter (fun (_, c) -> c > 0) stacks
    |> List.stable_sort compare_entry
    |> Container.collapse ~compare:compare_entry ~combine:add_entry

  let of_folded ~sample_interval ~ticks_per_second ~cycles_per_tick folded =
    if sample_interval < 1 then
      invalid_arg "Sprof.of_folded: sample_interval must be >= 1";
    if ticks_per_second < 1 then
      invalid_arg "Sprof.of_folded: ticks_per_second must be >= 1";
    if cycles_per_tick < 1 then
      invalid_arg "Sprof.of_folded: cycles_per_tick must be >= 1";
    {
      sp_sample_interval = sample_interval;
      sp_ticks_per_second = ticks_per_second;
      sp_cycles_per_tick = cycles_per_tick;
      sp_runs = 1;
      sp_stacks = normalize (List.map (fun (s, c) -> (Array.copy s, c)) folded);
    }

  let n_stacks t = List.length t.sp_stacks

  let n_samples t = List.fold_left (fun a (_, c) -> a + c) 0 t.sp_stacks

  let validate t =
    let errs = ref [] in
    let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
    if t.sp_sample_interval < 1 then
      err "sample_interval %d < 1" t.sp_sample_interval;
    if t.sp_ticks_per_second <= 0 then
      err "ticks_per_second %d not positive" t.sp_ticks_per_second;
    if t.sp_cycles_per_tick <= 0 then
      err "cycles_per_tick %d not positive" t.sp_cycles_per_tick;
    if t.sp_runs < 1 then err "runs %d < 1" t.sp_runs;
    List.iteri
      (fun i (s, c) ->
        if c < 1 then err "stack %d has nonpositive count %d" i c;
        Array.iter (fun a -> if a < 0 then err "stack %d has negative frame" i) s)
      t.sp_stacks;
    Container.iter_pairs
      (fun i a b ->
        if compare_entry a b >= 0 then err "stacks not strictly sorted at %d" (i + 1))
      t.sp_stacks;
    match List.rev !errs with [] -> Ok () | es -> Error es

  (* --- self-observability ------------------------------------------- *)

  let m =
    Container.metrics ~prefix:"sprof.codec." ~records:"stacks" ~buckets:false
      [
        ("bytes_written", "sampled-profile bytes encoded");
        ("bytes_read", "sampled-profile bytes presented for decoding");
        ("stacks_merged", "stack records combined on key collision during summing");
        ("decode_errors", "sampled-profile decodes rejected outright");
        ( "salvage.files",
          "sampled profiles recovered with data loss by salvage decoding" );
      ]

  (* --- merge algebra ------------------------------------------------ *)

  let mergeable a b =
    if a.sp_sample_interval <> b.sp_sample_interval then
      Error "cannot merge sampled profiles with different sample intervals"
    else if a.sp_ticks_per_second <> b.sp_ticks_per_second then
      Error "cannot merge sampled profiles with different clock rates"
    else if a.sp_cycles_per_tick <> b.sp_cycles_per_tick then
      Error "cannot merge sampled profiles with different cycle rates"
    else Ok ()

  let merge a b =
    Result.map
      (fun () ->
        let stacks =
          Container.merge_tables m ~compare:compare_entry ~add:add_entry
            a.sp_stacks b.sp_stacks
        in
        {
          sp_sample_interval = a.sp_sample_interval;
          sp_ticks_per_second = a.sp_ticks_per_second;
          sp_cycles_per_tick = a.sp_cycles_per_tick;
          sp_runs = a.sp_runs + b.sp_runs;
          sp_stacks = stacks;
        })
      (mergeable a b)

  let merge_all = Container.merge_all ~empty:"no sampled profiles to merge" merge

  (* --- serialization ------------------------------------------------ *)

  let max_depth_wire = 1 lsl 20

  let read c =
    let open Container in
    let at = c.pos in
    let sample_interval = field c "sample_interval" in
    let ticks_per_second = field c "ticks_per_second" in
    let cycles_per_tick = field c "cycles_per_tick" in
    let runs = field c "runs" in
    if sample_interval < 1 then
      fail c ~offset:at ~context:"header field sample_interval" "%d < 1"
        sample_interval;
    check_rates c ~at:(at + 8) ticks_per_second cycles_per_tick runs;
    let stored = count c "stack count" ~max:(1 lsl 26) in
    (* Stack records are recovered whole or not at all: a failure
       inside record k drops k and everything after it — the record
       length depends on the stored depth, so nothing after a damaged
       record can be trusted. *)
    let read_stack k =
      let k = k + 1 in
      let n = int_at c "stack record" k " count" in
      if n < 1 then
        bad c 8 (ctx "stack record" k " count") "nonpositive sample count %d" n;
      let depth = int_at c "stack record" k " depth" in
      if depth < 0 || depth > max_depth_wire then
        bad c 8 (ctx "stack record" k " depth") "absurd value %d" depth;
      let stack = Array.make depth 0 in
      for i = 0 to depth - 1 do
        let a = int_at c "stack record" k " frame" in
        if a < 0 then bad c 8 (ctx "stack record" k " frame") "negative address %d" a;
        stack.(i) <- a
      done;
      (stack, n)
    in
    let stacks =
      records c stored read_stack ~lost:(fun e k ->
          c.lost_records <- c.lost_records + (stored - k);
          note c "stack table damaged at byte %d: record(s) %d..%d dropped" e.de_offset
            (k + 1) stored)
    in
    (* trailing bytes are reported before the table is reordered *)
    finish c;
    {
      sp_sample_interval = sample_interval;
      sp_ticks_per_second = ticks_per_second;
      sp_cycles_per_tick = cycles_per_tick;
      sp_runs = runs;
      sp_stacks =
        canonical c ~compare:compare_entry ~context:"stack table"
          ~refuse:"records not in canonical order"
          ~repair:"stack table out of order; reordered" stacks;
    }

  include Container.Make (struct
    type nonrec t = t

    let magic = "SPROFOCAML1\n"
    let noun = "a sampled-profile file"
    let what = "sampled profile"
    let span = Some "sprof"
    let metrics = Some m

    let write buf t =
      List.iter (put buf)
        [ t.sp_sample_interval; t.sp_ticks_per_second; t.sp_cycles_per_tick; t.sp_runs;
          List.length t.sp_stacks ];
      List.iter
        (fun (s, c) ->
          put buf c;
          put buf (Array.length s);
          Array.iter (put buf) s)
        t.sp_stacks

    let read = read
  end)

  let equal (a : t) b = a = b

  let pp ppf t =
    Format.fprintf ppf
      "@[<v>sampled profile: %d sample(s) over %d stack(s), interval %d @@ %d Hz, %d run(s)"
      (n_samples t) (n_stacks t) t.sp_sample_interval t.sp_ticks_per_second
      t.sp_runs;
    List.iter
      (fun (s, c) ->
        Format.fprintf ppf "@,  [%s] x %d"
          (String.concat ";" (Array.to_list (Array.map string_of_int s)))
          c)
      t.sp_stacks;
    Format.fprintf ppf "@]"
end
