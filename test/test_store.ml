(* Tests for the fleet-aggregation layer: Gmon.Wire edge cases, the
   sharded profile store (equivalence with offline merging, compaction,
   caching, crash recovery), and the batching ingestion queue. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(lowpc = 0) ?(highpc = 20) ?(bucket = 1) ?(ticks = []) ?(arcs = [])
    ?(runs = 1) () =
  let hist = Gmon.make_hist ~lowpc ~highpc ~bucket_size:bucket in
  let counts = Array.copy hist.h_counts in
  List.iter (fun (b, c) -> counts.(b) <- c) ticks;
  {
    Gmon.hist = { hist with h_counts = counts };
    arcs =
      List.map (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c }) arcs
      |> List.sort (fun (a : Gmon.arc) b ->
             compare (a.a_from, a.a_self) (b.a_from, b.a_self));
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs;
  }

(* a small family of distinct, mergeable profiles *)
let sample i =
  mk
    ~ticks:[ (i mod 20, i + 1); ((i * 7) mod 20, 2 * i + 3) ]
    ~arcs:[ (1, 10, i + 1); ((i mod 5) + 2, 11, i + 2) ]
    ()

let offline gs =
  match Gmon.merge_all gs with Ok g -> g | Error e -> Alcotest.fail e

(* fresh store directory per test, cleaned up afterwards *)
let with_dir f =
  let dir = Filename.temp_file "store_test" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm path =
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let open_ok ?shards dir =
  match Store.open_ ?shards dir with
  | Ok (st, rep) -> (st, rep)
  | Error e -> Alcotest.fail e

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let merged_exn st =
  match Store.merged st with
  | Ok (Some g) -> g
  | Ok None -> Alcotest.fail "store unexpectedly empty"
  | Error e -> Alcotest.fail e

(* ------------------------------------------------------------------ *)
(* Wire edge cases: damaged inputs produce structured errors or a
   salvage report — never exceptions. *)

let test_wire_empty () =
  (match Gmon.Wire.split_footer "" with
  | `Missing, 0 -> ()
  | _ -> Alcotest.fail "empty string should have no footer");
  (match Gmon.decode ~mode:`Strict "" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty payload accepted (strict)");
  match Gmon.decode ~mode:`Salvage "" with
  | Error _ -> () (* nothing to salvage: the header itself is gone *)
  | Ok _ -> Alcotest.fail "empty payload accepted (salvage)"

let test_wire_footer_only () =
  (* a file holding nothing but a checksum footer: too short to even
     hold a profile header, so the framing layer classifies the footer
     as missing rather than pretending an empty body was verified *)
  let buf = Buffer.create 16 in
  Gmon.Wire.add_footer buf;
  let bytes = Buffer.contents buf in
  (match Gmon.Wire.split_footer bytes with
  | `Missing, n -> check_int "whole file is the body" (String.length bytes) n
  | _ -> Alcotest.fail "footer-only: expected a missing-footer verdict");
  (match Gmon.decode ~mode:`Strict bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "footer-only file accepted (strict)");
  match Gmon.decode ~mode:`Salvage bytes with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "footer-only file accepted (salvage)"

let test_wire_truncated_mid_frame () =
  (* every possible truncation point: strict must reject, salvage must
     either reject or report losses, and neither may raise *)
  let bytes = Gmon.to_bytes (sample 3) in
  for len = 0 to String.length bytes - 1 do
    let cut = String.sub bytes 0 len in
    (match Gmon.decode ~mode:`Strict cut with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "strict accepted a %d-byte prefix" len
    | exception e ->
      Alcotest.failf "strict raised on a %d-byte prefix: %s" len
        (Printexc.to_string e));
    match Gmon.decode ~mode:`Salvage cut with
    | Error _ -> ()
    | Ok (_, rep) ->
      check_bool
        (Printf.sprintf "salvage of a %d-byte prefix reports losses" len)
        true
        (Gmon.report_degraded rep)
    | exception e ->
      Alcotest.failf "salvage raised on a %d-byte prefix: %s" len
        (Printexc.to_string e)
  done

(* ------------------------------------------------------------------ *)
(* The store. *)

let test_store_merged_equals_offline () =
  with_dir @@ fun dir ->
  let st, rep = open_ok ~shards:4 dir in
  check_bool "fresh store created" true rep.Store.or_created;
  let gs = List.init 9 sample in
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "host-%d" i) g))
    gs;
  check_bool "merged = offline merge_all" true
    (Gmon.equal (offline gs) (merged_exn st));
  let s = Store.stats st in
  check_int "segments" 9 s.Store.st_segments;
  check_int "total runs" 9 s.Store.st_total_runs;
  check_int "nothing compacted yet" 0 s.Store.st_compacted_runs

let test_store_compaction_preserves_merge () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:3 dir in
  let first = List.init 6 sample in
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "h%d" i) g))
    first;
  let folded = ok (Store.compact st) in
  check_int "all segments folded" 6 folded;
  check_bool "compacted merged view unchanged" true
    (Gmon.equal (offline first) (merged_exn st));
  (* appends after compaction land in the tail and still sum in *)
  let more = [ sample 10; sample 11 ] in
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "h%d" i) g))
    more;
  check_bool "compacted + tail" true
    (Gmon.equal (offline (first @ more)) (merged_exn st));
  ignore (ok (Store.compact st));
  check_bool "second compaction" true
    (Gmon.equal (offline (first @ more)) (merged_exn st));
  let s = Store.stats st in
  check_int "tail empty after compaction" 0 s.Store.st_segments;
  check_int "every run in compacted state" 8 s.Store.st_compacted_runs

let cache_counters () =
  let hits =
    Obs.Metrics.counter Obs.Metrics.default "store.cache.hits"
  and misses =
    Obs.Metrics.counter Obs.Metrics.default "store.cache.misses"
  in
  (Obs.Metrics.counter_value hits, Obs.Metrics.counter_value misses)

let test_store_cache_counters () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  ok (Store.append st ~label:"a" (sample 1));
  ignore (ok (Store.compact st));
  let h0, m0 = cache_counters () in
  let g1 = merged_exn st in
  let h1, m1 = cache_counters () in
  check_int "hit served from the view" (h0 + 1) h1;
  check_int "no miss on a warm view" m0 m1;
  (* an append folds into the shard's view: the next query hits too *)
  ok (Store.append st ~label:"a" (sample 2));
  let g2 = merged_exn st in
  let h2, m2 = cache_counters () in
  check_int "query after an append hits" (h1 + 1) h2;
  check_int "query after an append does not miss" m1 m2;
  check_bool "view = offline merge" true
    (Gmon.equal (offline [ sample 1; sample 2 ]) g2);
  check_bool "pre-append view was correct too" true
    (Gmon.equal (sample 1) g1);
  (* a view is built from disk once, when the store is opened *)
  let st2, _ = open_ok dir in
  let h3, m3 = cache_counters () in
  check_int "open builds the shard's view: one miss" (m2 + 1) m3;
  check_bool "reopened view = offline merge" true
    (Gmon.equal (offline [ sample 1; sample 2 ]) (merged_exn st2));
  let h4, m4 = cache_counters () in
  check_int "reopened query hits" (h3 + 1) h4;
  check_int "reopened query does not miss" m3 m4

let test_store_reopen_equivalence () =
  with_dir @@ fun dir ->
  let gs = List.init 7 sample in
  let st, _ = open_ok ~shards:4 dir in
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "n%d" i) g))
    (List.filteri (fun i _ -> i < 4) gs);
  ignore (ok (Store.compact st));
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "n%d" (4 + i)) g))
    (List.filteri (fun i _ -> i >= 4) gs);
  (* a second handle on the same directory reconstructs everything:
     manifest, compacted state, and the uncompacted tail *)
  let st2, rep = open_ok dir in
  check_bool "reopen is not a creation" false rep.Store.or_created;
  check_bool "reopen is clean" false (Store.open_report_degraded rep);
  check_int "shard count from the manifest" 4 (Store.n_shards st2);
  check_bool "reopened merged view" true
    (Gmon.equal (offline gs) (merged_exn st2))

let test_store_quarantine_bytes () =
  with_dir @@ fun dir ->
  let st, _ = open_ok dir in
  ok (Store.append st ~label:"good" (sample 1));
  let q = Ingest.create ~max_batch:1 st in
  (match ok (Ingest.submit q ~label:"bad" "not a profile at all") with
  | Ingest.Quarantined _ -> ()
  | _ -> Alcotest.fail "garbage stored as a profile");
  (* a truncated-but-valid-prefix payload is still quarantined whole:
     the store never silently keeps half a submission *)
  let torn = String.sub (Gmon.to_bytes (sample 2)) 0 40 in
  (match ok (Ingest.submit q ~label:"torn" torn) with
  | Ingest.Quarantined _ -> ()
  | _ -> Alcotest.fail "torn payload stored");
  let s = Store.stats st in
  check_int "both quarantined" 2 s.Store.st_quarantined;
  check_bool "quarantine does not poison the merge" true
    (Gmon.equal (sample 1) (merged_exn st));
  (* quarantined payloads are kept byte-for-byte for post-mortems *)
  let files = Sys.readdir (Store.quarantine_dir st) in
  check_int "payload + reason sidecar per case" 4 (Array.length files)

let test_store_torn_append_recovery () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:2 dir in
  let baseline = [ sample 1; sample 2; sample 3 ] in
  List.iteri
    (fun i g -> ok (Store.append st ~label:(Printf.sprintf "k%d" i) g))
    baseline;
  (* fault injection: the next segment write dies mid-file, leaving a
     4-byte fragment at the final path — an unrecoverable header *)
  Gmon.inject_torn_save (Some 4);
  (match Store.append st ~label:"k1" (sample 9) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "torn append reported success");
  let st2, rep = open_ok dir in
  check_bool "restart reports the loss" true (Store.open_report_degraded rep);
  check_int "torn segment quarantined" 1 (List.length rep.Store.or_quarantined);
  check_bool "survivors intact after recovery" true
    (Gmon.equal (offline baseline) (merged_exn st2));
  (* the handle that hit the fault also retries cleanly: the torn
     sequence number is not reused *)
  ok (Store.append st ~label:"k1" (sample 9));
  check_bool "retry lands" true
    (Gmon.equal (offline (sample 9 :: baseline)) (merged_exn st))

let test_store_torn_append_salvage () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  ok (Store.append st ~label:"a" (sample 1));
  (* tear the write late: header and buckets survive, so recovery
     salvages a sub-profile instead of quarantining *)
  let full = String.length (Gmon.to_bytes (sample 6)) in
  Gmon.inject_torn_save (Some (full - 5));
  (match Store.append st ~label:"a" (sample 6) with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "torn append reported success");
  let st2, rep = open_ok dir in
  check_bool "restart reports the salvage" true
    (Store.open_report_degraded rep);
  check_int "segment salvaged, not quarantined" 1 rep.Store.or_salvaged;
  check_int "nothing quarantined" 0 (List.length rep.Store.or_quarantined);
  (* the salvaged sub-profile plus the intact segment still merge; the
     salvaged part never invents data, so total ticks are bounded by
     the offline sum *)
  let m = merged_exn st2 in
  check_bool "salvaged view within offline bounds" true
    (Gmon.total_ticks m <= Gmon.total_ticks (offline [ sample 1; sample 6 ]));
  check_bool "salvaged view keeps the intact segment" true
    (Gmon.total_ticks m >= Gmon.total_ticks (sample 1))

let test_store_shard_routing () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:4 dir in
  let labels = List.init 32 (Printf.sprintf "service-%d") in
  List.iter
    (fun l ->
      let s = Store.shard_of_label st l in
      check_bool "shard in range" true (s >= 0 && s < 4);
      check_int "routing is stable" s (Store.shard_of_label st l))
    labels;
  let distinct =
    List.sort_uniq compare (List.map (Store.shard_of_label st) labels)
  in
  check_bool "labels spread over shards" true (List.length distinct > 1)

(* ------------------------------------------------------------------ *)
(* Crash recovery: one case per crash state a compaction can leave
   behind, each run on both tracks of a one-shard store. *)

type 'p track = {
  tr_name : string;
  tr_seg : string;  (* segment file prefix *)
  tr_compact : string;  (* compact file prefix *)
  tr_ext : string;
  tr_sample : int -> 'p;
  tr_append : Store.t -> label:string -> 'p -> (unit, string) result;
  tr_merged : Store.t -> ('p option, string) result;
  tr_merge_all : 'p list -> ('p, string) result;
  tr_equal : 'p -> 'p -> bool;
  tr_to_bytes : 'p -> string;
  tr_runs : Store.stats -> int;  (* runs stored on this track *)
}

let arc_track =
  {
    tr_name = "arc";
    tr_seg = "seg-";
    tr_compact = "compact-";
    tr_ext = ".gmon";
    tr_sample = sample;
    tr_append = Store.append;
    tr_merged = Store.merged;
    tr_merge_all = Gmon.merge_all;
    tr_equal = Gmon.equal;
    tr_to_bytes = Gmon.to_bytes;
    tr_runs = (fun s -> s.Store.st_total_runs);
  }

let sprof_sample i =
  let stacks = [ ([| i mod 3 |], i + 1); ([| i mod 3; 4 |], (2 * i) + 1) ] in
  {
    Gmon.Sprof.sp_sample_interval = 2;
    sp_ticks_per_second = 60;
    sp_cycles_per_tick = 16_666;
    sp_runs = 1;
    sp_stacks =
      List.sort (fun (a, _) (b, _) -> Gmon.Sprof.compare_stack a b) stacks;
  }

let sampled_track =
  {
    tr_name = "sampled";
    tr_seg = "sseg-";
    tr_compact = "scompact-";
    tr_ext = ".sprof";
    tr_sample = sprof_sample;
    tr_append = Store.append_sprof;
    tr_merged = Store.merged_sprof;
    tr_merge_all = Gmon.Sprof.merge_all;
    tr_equal = Gmon.Sprof.equal;
    tr_to_bytes = Gmon.Sprof.to_bytes;
    tr_runs = (fun s -> s.Store.st_sprof_runs);
  }

type crash =
  | Stale_segment
  | Old_compact_left
  | Second_compaction_torn
  | Damaged_compact_no_segments
  | First_compaction_torn

type file = Seg of int | Compact of int

let file_name tr = function
  | Seg n -> Printf.sprintf "%s%08d%s" tr.tr_seg n tr.tr_ext
  | Compact n -> Printf.sprintf "%s%08d%s" tr.tr_compact n tr.tr_ext

let read_bytes path = In_channel.with_open_bin path In_channel.input_all

let write_bytes path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* Append samples 1..3 to a one-shard store and leave it in [crash]'s
   state, the way a process killed at that point would. *)
let drive tr st shard crash =
  let add i = ok (tr.tr_append st ~label:"a" (tr.tr_sample i)) in
  let path f = Filename.concat shard (file_name tr f) in
  let compact () = ignore (ok (Store.compact st)) in
  (* a compaction whose write tears 30 bytes short of the three-run merge *)
  let torn_compact () =
    let all = ok (tr.tr_merge_all (List.map tr.tr_sample [ 1; 2; 3 ])) in
    Gmon.inject_torn_save (Some (String.length (tr.tr_to_bytes all) - 30));
    match Store.compact st with
    | Error _ -> ()
    | Ok _ -> Alcotest.fail "torn compaction reported success"
  in
  match crash with
  | Stale_segment ->
    (* the post-compaction delete was interrupted: a folded segment
       survives beside the compact file *)
    add 1; add 2; add 3;
    let seg = read_bytes (path (Seg 1)) in
    compact ();
    write_bytes (path (Seg 1)) seg
  | Old_compact_left ->
    add 1; add 2;
    compact ();
    let old = read_bytes (path (Compact 2)) in
    add 3;
    compact ();
    write_bytes (path (Compact 2)) old
  | Second_compaction_torn ->
    add 1; add 2;
    compact ();
    add 3;
    torn_compact ()
  | Damaged_compact_no_segments ->
    add 1; add 2; add 3;
    compact ();
    (* cut the 16-byte checksum footer: every record survives, but
       only salvage will read the file *)
    let whole = read_bytes (path (Compact 3)) in
    write_bytes (path (Compact 3))
      (String.sub whole 0 (String.length whole - 16))
  | First_compaction_torn ->
    add 1; add 2; add 3;
    torn_compact ()

(* (crash state, open-report counts (segments, compacted, salvaged,
   quarantined), files left in the shard directory) *)
let recovery_cases =
  [
    ("stale segment", Stale_segment, (0, 1, 0, 0), [ Compact 3 ]);
    ( "old compact left behind",
      Old_compact_left,
      (0, 1, 0, 0),
      [ Compact 3 ] );
    ( "second compaction torn",
      Second_compaction_torn,
      (1, 1, 0, 1),
      [ Compact 2; Seg 3 ] );
    ( "damaged compact, no segments",
      Damaged_compact_no_segments,
      (0, 1, 1, 0),
      [ Compact 3 ] );
    ( "first compaction torn",
      First_compaction_torn,
      (3, 0, 0, 1),
      [ Seg 1; Seg 2; Seg 3 ] );
  ]

let test_recovery tr (_, crash, counts, files) () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  let shard = Filename.concat dir "shard-000" in
  drive tr st shard crash;
  let st2, rep = open_ok dir in
  Alcotest.(check (pair (pair int int) (pair int int)))
    "open report (segments, compacted), (salvaged, quarantined)"
    (let s, c, v, q = counts in ((s, c), (v, q)))
    ( (rep.Store.or_segments, rep.Store.or_compacted),
      (rep.Store.or_salvaged, List.length rep.Store.or_quarantined) );
  let offline = ok (tr.tr_merge_all (List.map tr.tr_sample [ 1; 2; 3 ])) in
  (match tr.tr_merged st2 with
  | Ok (Some m) ->
    check_bool "merged = offline merge_all" true (tr.tr_equal offline m)
  | Ok None -> Alcotest.fail "store unexpectedly empty"
  | Error e -> Alcotest.fail e);
  Alcotest.(check (list string))
    "files left in the shard"
    (List.sort compare (List.map (file_name tr) files))
    (List.sort compare (Array.to_list (Sys.readdir shard)))

let recovery_tests =
  List.concat_map
    (fun case ->
      let name, _, _, _ = case in
      [
        Alcotest.test_case ("arcs: " ^ name) `Quick
          (test_recovery arc_track case);
        Alcotest.test_case ("sampled: " ^ name) `Quick
          (test_recovery sampled_track case);
      ])
    recovery_cases

(* ------------------------------------------------------------------ *)
(* One layout per family: a profile the store could never sum with the
   others is refused at the door, at append, and at open. *)

(* another binary: a wider histogram *)
let misfit i = mk ~highpc:32 ~ticks:[ (i mod 32, i + 1) ] ~arcs:[ (1, 10, i + 1) ] ()

let layout_error = "cannot merge profiles with different histogram layouts"

let quarantined_payloads st =
  let qdir = Store.quarantine_dir st in
  Sys.readdir qdir |> Array.to_list
  |> List.filter (fun n -> Filename.check_suffix n ".bin")
  |> List.sort compare
  |> List.map (fun n -> read_bytes (Filename.concat qdir n))

let shard_files dir = List.sort compare (Array.to_list (Sys.readdir dir))

let test_layout_refused_at_the_door ~shards () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards dir in
  (* the misfit's label lands in another shard when there are several *)
  let a = "svc-a" in
  let b =
    List.find
      (fun l -> shards = 1 || Store.shard_of_label st l <> Store.shard_of_label st a)
      (List.init 64 (Printf.sprintf "svc-%d"))
  in
  let q = Ingest.create ~max_batch:8 st in
  let submit label g = ok (Ingest.submit q ~label (Gmon.to_bytes g)) in
  ignore (submit a (sample 1));
  (match submit b (misfit 1) with
  | Ingest.Quarantined reason ->
    Alcotest.(check string) "the merge message is the reason" layout_error reason
  | _ -> Alcotest.fail "a profile of another layout was accepted");
  ignore (submit b (sample 2));
  ignore (ok (Ingest.flush q));
  let want = offline [ sample 1; sample 2 ] in
  check_bool "merged = the first layout's profiles" true
    (Gmon.equal want (merged_exn st));
  ignore (ok (Store.compact st));
  check_bool "compaction succeeds and keeps the view" true
    (Gmon.equal want (merged_exn st));
  Alcotest.(check (list string))
    "the quarantine holds the misfit byte for byte"
    [ Gmon.to_bytes (misfit 1) ]
    (quarantined_payloads st)

let test_sampled_layout_refused () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  let q = Ingest.create ~max_batch:8 st in
  let other = { (sprof_sample 2) with Gmon.Sprof.sp_sample_interval = 3 } in
  let submit sp = ok (Ingest.submit q ~label:"a" (Gmon.Sprof.to_bytes sp)) in
  ignore (submit (sprof_sample 1));
  (match submit other with
  | Ingest.Quarantined reason ->
    Alcotest.(check string) "the merge message is the reason"
      "cannot merge sampled profiles with different sample intervals" reason
  | _ -> Alcotest.fail "a sampled profile of another interval was accepted");
  ignore (ok (Ingest.flush q));
  (match Store.merged_sprof st with
  | Ok (Some sp) ->
    check_bool "merged = the first profile" true
      (Gmon.Sprof.equal (sprof_sample 1) sp)
  | Ok None -> Alcotest.fail "store unexpectedly empty"
  | Error e -> Alcotest.fail e);
  ignore (ok (Store.compact st));
  Alcotest.(check (list string))
    "the quarantine holds the misfit byte for byte"
    [ Gmon.Sprof.to_bytes other ]
    (quarantined_payloads st)

let test_layout_refused_at_append () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  let shard = Filename.concat dir "shard-000" in
  ok (Store.append st ~label:"a" (sample 1));
  ok (Store.append_sprof st ~label:"a" (sprof_sample 1));
  let before = shard_files shard in
  (match Store.append st ~label:"a" (misfit 1) with
  | Error e -> Alcotest.(check string) "arc misfit refused" layout_error e
  | Ok () -> Alcotest.fail "Store.append stored a profile of another layout");
  (match
     Store.append_sprof st ~label:"a"
       { (sprof_sample 2) with Gmon.Sprof.sp_ticks_per_second = 100 }
   with
  | Error e ->
    Alcotest.(check string) "sampled misfit refused"
      "cannot merge sampled profiles with different clock rates" e
  | Ok () -> Alcotest.fail "Store.append_sprof stored a profile of another layout");
  Alcotest.(check (list string)) "no file written" before (shard_files shard);
  check_bool "merged view untouched" true (Gmon.equal (sample 1) (merged_exn st))

let test_layout_refused_at_open () =
  with_dir @@ fun dir ->
  let st, _ = open_ok ~shards:1 dir in
  let shard = Filename.concat dir "shard-000" in
  ok (Store.append st ~label:"a" (sample 1));
  ok (Store.append st ~label:"a" (sample 2));
  (* a store written before layouts were checked can hold a segment
     of another binary *)
  let bad = Filename.concat shard "seg-00000003.gmon" in
  ok (Gmon.save (misfit 3) bad);
  let st2, rep = open_ok dir in
  (match rep.Store.or_quarantined with
  | [ q ] ->
    Alcotest.(check string) "quarantined file" bad q.Gmon.q_path;
    Alcotest.(check string) "the merge message is the reason" layout_error
      q.Gmon.q_reason
  | qs -> Alcotest.failf "%d file(s) quarantined, want 1" (List.length qs));
  check_int "two segments recovered" 2 rep.Store.or_segments;
  check_bool "merged = the first layout's profiles" true
    (Gmon.equal (offline [ sample 1; sample 2 ]) (merged_exn st2));
  check_bool "the misfit left the shard" false (Sys.file_exists bad);
  Alcotest.(check (list string))
    "the quarantine holds the misfit byte for byte"
    [ Gmon.to_bytes (misfit 3) ]
    (quarantined_payloads st2);
  check_int "compaction folds the survivors" 2 (ok (Store.compact st2))

(* ------------------------------------------------------------------ *)
(* The ingestion queue. *)

let test_ingest_size_trigger () =
  with_dir @@ fun dir ->
  let st, _ = open_ok dir in
  let q = Ingest.create ~max_batch:3 ~max_age:3600.0 st in
  let submit i =
    ok (Ingest.submit q ~label:"lbl" (Gmon.to_bytes (sample i)))
  in
  (match submit 1 with
  | Ingest.Queued 1 -> ()
  | _ -> Alcotest.fail "first submission should queue");
  (match submit 2 with
  | Ingest.Queued 2 -> ()
  | _ -> Alcotest.fail "second submission should queue");
  check_int "nothing on disk yet" 0 (Store.stats st).Store.st_segments;
  (match submit 3 with
  | Ingest.Flushed 3 -> ()
  | _ -> Alcotest.fail "third submission should trip the size trigger");
  (* one label, one shard: the batch lands summed, as one segment *)
  check_int "batch landed as one segment" 1 (Store.stats st).Store.st_segments;
  check_int "the segment holds every run" 3 (Store.stats st).Store.st_total_runs;
  check_int "queue drained" 0 (Ingest.pending q);
  check_bool "batched view = offline" true
    (Gmon.equal (offline [ sample 1; sample 2; sample 3 ]) (merged_exn st))

let test_ingest_age_trigger () =
  with_dir @@ fun dir ->
  let st, _ = open_ok dir in
  let q = Ingest.create ~max_batch:100 ~max_age:0.0 st in
  (match ok (Ingest.submit q ~label:"x" (Gmon.to_bytes (sample 4))) with
  | Ingest.Queued 1 -> ()
  | _ -> Alcotest.fail "should buffer below the size trigger");
  (* max_age 0: the oldest entry is already over age on the next tick *)
  check_int "tick flushes by age" 1 (ok (Ingest.tick q));
  check_int "tick with an empty queue is a no-op" 0 (ok (Ingest.tick q));
  check_bool "flushed by age" true
    (Gmon.equal (sample 4) (merged_exn st))

let test_ingest_quarantine () =
  with_dir @@ fun dir ->
  let st, _ = open_ok dir in
  let q = Ingest.create st in
  (match ok (Ingest.submit q ~label:"evil" "GMONOCAML1\nbut then junk") with
  | Ingest.Quarantined _ -> ()
  | _ -> Alcotest.fail "undecodable submission not quarantined");
  check_int "never buffered" 0 (Ingest.pending q);
  check_int "recorded in quarantine" 1 (Store.stats st).Store.st_quarantined;
  (* good submissions around it are unaffected *)
  ignore (ok (Ingest.submit q ~label:"fine" (Gmon.to_bytes (sample 2))));
  check_int "flush writes only the good one" 1 (ok (Ingest.flush q));
  check_bool "merge unaffected by quarantine" true
    (Gmon.equal (sample 2) (merged_exn st));
  (* a quarantined payload is decoded once, on its own family's codec *)
  List.iter
    (fun (family, payload) ->
      let counter name =
        Obs.Metrics.counter_value
          (Obs.Metrics.counter Obs.Metrics.default (family ^ name))
      in
      let errors = counter "decode_errors" and read = counter "bytes_read" in
      (match ok (Ingest.submit q ~label:"evil" payload) with
      | Ingest.Quarantined _ -> ()
      | _ -> Alcotest.fail "undecodable submission not quarantined");
      check_int (family ^ "decode_errors") (errors + 1) (counter "decode_errors");
      check_int (family ^ "bytes_read")
        (read + String.length payload)
        (counter "bytes_read"))
    [
      ("gmon.", "GMONOCAML1\nbut then junk");
      ("sprof.codec.", "SPROFOCAML1\nbut then junk");
    ]

(* ------------------------------------------------------------------ *)
(* The store against a model: random interleavings of submissions,
   flushes, compactions, reopens and queries. After every query and
   every reopen the merged view must serialize to the bytes of
   merge_all over everything flushed so far, and the stats must count
   the same runs. The case is drawn from one seed, which a failure
   prints. *)

type op = Submit of int * int | Flush | Compact | Reopen | Query

let scenario seed =
  let rs = Random.State.make [| seed |] in
  let batch = 1 + Random.State.int rs 4 in
  let ops =
    List.init
      (5 + Random.State.int rs 30)
      (fun _ ->
        match Random.State.int rs 10 with
        | 0 | 1 | 2 | 3 | 4 ->
          Submit (Random.State.int rs 4, Random.State.int rs 6)
        | 5 -> Flush
        | 6 -> Compact
        | 7 -> Reopen
        | _ -> Query)
  in
  (batch, ops)

let show_scenario seed =
  let batch, ops = scenario seed in
  Printf.sprintf "seed %d (batch %d): %s" seed batch
    (String.concat " "
       (List.map
          (function
            | Submit (k, l) -> Printf.sprintf "submit(%d,host-%d)" k l
            | Flush -> "flush"
            | Compact -> "compact"
            | Reopen -> "reopen"
            | Query -> "query")
          ops))

let model_property ~shards tr =
  QCheck.Test.make ~count:100
    ~name:(Printf.sprintf "%s track, %d shard(s)" tr.tr_name shards)
    (QCheck.make ~print:show_scenario QCheck.Gen.(int_bound 1_000_000_000))
    (fun seed ->
      with_dir @@ fun dir ->
      let batch, ops = scenario seed in
      let st = ref (fst (open_ok ~shards dir)) in
      let ingest () = Ingest.create ~max_batch:batch ~max_age:3600.0 !st in
      let q = ref (ingest ()) in
      (* newest first *)
      let flushed = ref [] and queued = ref [] in
      let flush_queued () =
        flushed := !queued @ !flushed;
        queued := []
      in
      let check after =
        let want =
          match !flushed with
          | [] -> None
          | ps -> Some (tr.tr_to_bytes (ok (tr.tr_merge_all ps)))
        in
        if Option.map tr.tr_to_bytes (ok (tr.tr_merged !st)) <> want then
          QCheck.Test.fail_reportf
            "seed %d: after %s the merged view differs from merge_all of the \
             %d flushed profiles"
            seed after (List.length !flushed);
        let runs = tr.tr_runs (Store.stats !st) in
        if runs <> List.length !flushed then
          QCheck.Test.fail_reportf "seed %d: after %s the stats count %d runs, %d flushed"
            seed after runs (List.length !flushed)
      in
      List.iter
        (function
          | Submit (k, l) -> (
            let p = tr.tr_sample k in
            queued := p :: !queued;
            match
              ok
                (Ingest.submit !q
                   ~label:(Printf.sprintf "host-%d" l)
                   (tr.tr_to_bytes p))
            with
            | Ingest.Flushed _ -> flush_queued ()
            | Ingest.Queued _ -> ()
            | Ingest.Quarantined r ->
              QCheck.Test.fail_reportf "seed %d: submission quarantined: %s" seed r
            | Ingest.Shed -> QCheck.Test.fail_reportf "seed %d: submission shed" seed)
          | Flush ->
            ignore (ok (Ingest.flush !q));
            flush_queued ()
          | Compact -> ignore (ok (Store.compact !st))
          | Reopen ->
            ignore (ok (Ingest.flush !q));
            flush_queued ();
            st := fst (open_ok dir);
            q := ingest ();
            check "reopen"
          | Query -> check "query")
        ops;
      true)

let model_tests =
  List.map QCheck_alcotest.to_alcotest
    [
      model_property ~shards:1 arc_track;
      model_property ~shards:4 arc_track;
      model_property ~shards:1 sampled_track;
      model_property ~shards:4 sampled_track;
    ]

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "store"
    [
      ( "wire",
        [
          Alcotest.test_case "empty payload" `Quick test_wire_empty;
          Alcotest.test_case "footer-only file" `Quick test_wire_footer_only;
          Alcotest.test_case "truncated mid-frame" `Quick
            test_wire_truncated_mid_frame;
        ] );
      ( "store",
        [
          Alcotest.test_case "merged = offline merge_all" `Quick
            test_store_merged_equals_offline;
          Alcotest.test_case "compaction preserves the merge" `Quick
            test_store_compaction_preserves_merge;
          Alcotest.test_case "cache hit/miss counters" `Quick
            test_store_cache_counters;
          Alcotest.test_case "reopen reconstructs the view" `Quick
            test_store_reopen_equivalence;
          Alcotest.test_case "undecodable bytes quarantined" `Quick
            test_store_quarantine_bytes;
          Alcotest.test_case "torn append quarantined on restart" `Quick
            test_store_torn_append_recovery;
          Alcotest.test_case "torn append salvaged on restart" `Quick
            test_store_torn_append_salvage;
          Alcotest.test_case "shard routing" `Quick test_store_shard_routing;
        ] );
      ("recovery", recovery_tests);
      ( "layout",
        [
          Alcotest.test_case "refused at the door, one shard" `Quick
            (test_layout_refused_at_the_door ~shards:1);
          Alcotest.test_case "refused at the door, across shards" `Quick
            (test_layout_refused_at_the_door ~shards:8);
          Alcotest.test_case "sampled interval refused" `Quick
            test_sampled_layout_refused;
          Alcotest.test_case "refused at append" `Quick
            test_layout_refused_at_append;
          Alcotest.test_case "quarantined at open" `Quick
            test_layout_refused_at_open;
        ] );
      ( "ingest",
        [
          Alcotest.test_case "size trigger" `Quick test_ingest_size_trigger;
          Alcotest.test_case "age trigger" `Quick test_ingest_age_trigger;
          Alcotest.test_case "quarantine at the door" `Quick
            test_ingest_quarantine;
        ] );
      ("model", model_tests);
    ]
