(* The batching ingestion queue. Decode strictly at the door,
   quarantine failures and profiles of another layout immediately,
   buffer the rest, and flush whole batches to the store on a size or
   age trigger, one summed segment per shard and family. *)

type entry = { e_label : string; e_payload : Store.profile }

type t = {
  ing_store : Store.t;
  max_batch : int;
  max_age : float;
  queue_cap : int;
  mutable buffer : entry list;  (* newest first *)
  mutable n_buffered : int;
  mutable oldest : float;  (* arrival time of the oldest buffered entry *)
}

let m_submitted =
  Obs.Metrics.counter Obs.Metrics.default "ingest.submitted"
    ~help:"submissions accepted into the queue"

let m_quarantined =
  Obs.Metrics.counter Obs.Metrics.default "ingest.quarantined"
    ~help:
      "submissions rejected at the door (undecodable or of another layout) and \
       quarantined"

let m_batches =
  Obs.Metrics.counter Obs.Metrics.default "ingest.batches"
    ~help:"batch flushes performed"

let m_flushed =
  Obs.Metrics.counter Obs.Metrics.default "ingest.flushed_profiles"
    ~help:"profiles appended to the store by batch flushes"

let m_batch_size =
  Obs.Metrics.histogram Obs.Metrics.default "ingest.batch_size"
    ~help:"profiles per flushed batch"

let m_bytes =
  Obs.Metrics.counter Obs.Metrics.default "ingest.bytes_received"
    ~help:"submission bytes presented to the queue"

let m_shed =
  Obs.Metrics.counter Obs.Metrics.default "ingest.shed"
    ~help:"submissions refused because the queue was full (overload)"

let create ?(max_batch = 64) ?(max_age = 5.0) ?(queue_cap = 256) store =
  let max_batch = max 1 max_batch in
  {
    ing_store = store;
    max_batch;
    max_age = Float.max 0.0 max_age;
    queue_cap = max max_batch queue_cap;
    buffer = [];
    n_buffered = 0;
    oldest = 0.0;
  }

let store t = t.ing_store

let pending t = t.n_buffered

let queue_cap t = t.queue_cap

type outcome =
  | Queued of int
  | Flushed of int
  | Quarantined of string
  | Shed

(* The buffered entries (newest first) grouped by (shard, family),
   each group in arrival order. *)
let groups t entries =
  let n = Store.n_shards t.ing_store in
  let groups = Array.make (2 * n) [] in
  List.iter
    (fun e ->
      let family = match e.e_payload with Store.Arc _ -> 0 | Store.Sampled _ -> n in
      let i = family + Store.shard_of_label t.ing_store e.e_label in
      groups.(i) <- e :: groups.(i))
    entries;
  List.filter (function [] -> false | _ :: _ -> true) (Array.to_list groups)

(* One group lands as one segment: its profiles summed, under the
   label of its first entry. A group holds one family. *)
let append_group t group =
  let label = (List.hd group).e_label in
  let arcs, sampled =
    List.partition_map
      (fun e ->
        match e.e_payload with Store.Arc g -> Left g | Store.Sampled sp -> Right sp)
      group
  in
  if Faultplane.store_fails () then Error "injected store fault: append refused"
  else if sampled = [] then
    Result.bind (Gmon.merge_all arcs) (Store.append t.ing_store ~label)
  else Result.bind (Gmon.Sprof.merge_all sampled) (Store.append_sprof t.ing_store ~label)

let flush t =
  match t.buffer with
  | [] -> Ok 0
  | entries ->
    t.buffer <- [];
    t.n_buffered <- 0;
    Obs.Trace.with_span ~cat:"ingest" "ingest-flush"
      ~args:[ ("batch", string_of_int (List.length entries)) ]
    @@ fun () ->
    let rec go n = function
      | [] ->
        Obs.Metrics.incr m_batches;
        Obs.Metrics.observe m_batch_size n;
        Ok n
      | group :: rest -> (
        match append_group t group with
        | Ok () ->
          let k = List.length group in
          Obs.Metrics.incr m_flushed ~by:k;
          go (n + k) rest
        | Error err ->
          (* keep what did not reach the store: the next flush (or the
             caller's retry) sees it again *)
          let kept = List.concat (group :: rest) in
          t.buffer <- List.rev_append kept t.buffer;
          t.n_buffered <- t.n_buffered + List.length kept;
          Error err)
    in
    go 0 (groups t entries)

let submit t ~label bytes =
  Obs.Metrics.incr m_bytes ~by:(String.length bytes);
  (* Backpressure before decode: a full queue means the store is not
     keeping up, and the cheapest thing to do with work we cannot hold
     is to refuse it before spending decode cycles on it. The shed is
     explicit (the caller answers BUSY, never drops silently). *)
  if
    t.n_buffered >= t.queue_cap
    && (Result.is_error (flush t) || t.n_buffered >= t.queue_cap)
  then begin
    Obs.Metrics.incr m_shed;
    Ok Shed
  end
  else
    let decoded =
      if Gmon.Sprof.sniff_bytes bytes then
        Result.map
          (fun (sp, _) -> Store.Sampled sp)
          (Gmon.Sprof.decode ~mode:`Strict bytes)
      else Result.map (fun (g, _) -> Store.Arc g) (Gmon.decode ~mode:`Strict bytes)
    in
    let admitted =
      match decoded with
      | Error e -> Error (Gmon.decode_error_to_string e)
      | Ok p -> Result.map (fun () -> p) (Store.admit t.ing_store p)
    in
    match admitted with
    | Error reason ->
      Obs.Metrics.incr m_quarantined;
      Result.map
        (fun () -> Quarantined reason)
        (Store.quarantine t.ing_store ~label ~reason bytes)
    | Ok payload ->
      Obs.Metrics.incr m_submitted;
      if t.buffer = [] then t.oldest <- Unix.gettimeofday ();
      t.buffer <- { e_label = label; e_payload = payload } :: t.buffer;
      t.n_buffered <- t.n_buffered + 1;
      let n = t.n_buffered in
      if n >= t.max_batch then
        match flush t with
        | Ok k -> Ok (Flushed k)
        | Error _ when t.n_buffered <= t.queue_cap ->
          (* the store refused the batch but the queue can still hold
             it: the submission is accepted (buffered), and the age
             trigger or an explicit FLUSH will retry the append *)
          Ok (Queued t.n_buffered)
        | Error e -> Error e
      else Ok (Queued n)

let tick t =
  if t.buffer <> [] && Unix.gettimeofday () -. t.oldest >= t.max_age then
    flush t
  else Ok 0
