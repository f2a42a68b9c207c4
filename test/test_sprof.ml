(* Tests for the sampled-profile (sprof) container: codec robustness
   under truncation and corruption (mirroring test_robust's regime for
   gmon), the QCheck-pinned merge algebra — commutative, associative,
   and canonical, so equal merges serialize byte-identically — and the
   store's sampled track (daemon-equivalent to offline merging). *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(interval = 2) ?(runs = 1) stacks =
  {
    Gmon.Sprof.sp_sample_interval = interval;
    sp_ticks_per_second = 60;
    sp_cycles_per_tick = 16_666;
    sp_runs = runs;
    sp_stacks =
      List.stable_sort
        (fun (a, _) (b, _) -> Gmon.Sprof.compare_stack a b)
        stacks;
  }

let sample =
  mk [ ([| 0 |], 3); ([| 0; 4 |], 7); ([| 0; 4; 8 |], 2); ([| 0; 8 |], 1) ]

(* Magic (12 bytes) + five header fields: before this point nothing is
   recoverable, after it salvage always yields a container. *)
let header_end = 12 + (5 * 8)

let assert_valid what sp =
  match Gmon.Sprof.validate sp with
  | Ok () -> ()
  | Error es -> Alcotest.failf "%s: invalid: %s" what (String.concat "; " es)

(* Whole-record prefix recovery: every salvaged stack must appear in
   the original with the same count — salvage never invents samples. *)
let sub_sprof (s : Gmon.Sprof.t) (o : Gmon.Sprof.t) =
  s.sp_sample_interval = o.sp_sample_interval
  && s.sp_ticks_per_second = o.sp_ticks_per_second
  && s.sp_cycles_per_tick = o.sp_cycles_per_tick
  && List.for_all
       (fun (stack, count) ->
         List.exists
           (fun (so, co) -> Gmon.Sprof.compare_stack stack so = 0 && count = co)
           o.sp_stacks)
       s.sp_stacks

(* ------------------------------------------------------------------ *)
(* Codec robustness *)

let test_truncate_everywhere () =
  let bytes = Gmon.Sprof.to_bytes sample in
  let len = String.length bytes in
  for cut = 0 to len - 1 do
    let s = String.sub bytes 0 cut in
    (match Gmon.Sprof.decode ~mode:`Strict s with
    | Error e ->
      check_bool
        (Printf.sprintf "cut %d: strict offset in range" cut)
        true
        (e.de_offset >= 0 && e.de_offset <= cut)
    | Ok _ -> Alcotest.failf "cut %d: strict accepted a truncated file" cut);
    match Gmon.Sprof.decode ~mode:`Salvage s with
    | Ok (sp, rep) ->
      check_bool
        (Printf.sprintf "cut %d: salvage past header" cut)
        true (cut >= header_end);
      assert_valid (Printf.sprintf "cut %d" cut) sp;
      check_bool
        (Printf.sprintf "cut %d: salvaged is a sub-container" cut)
        true (sub_sprof sp sample);
      check_bool
        (Printf.sprintf "cut %d: report degraded" cut)
        true (Gmon.report_degraded rep)
    | Error _ ->
      check_bool
        (Printf.sprintf "cut %d: only header damage is unrecoverable" cut)
        true (cut < header_end)
  done;
  match
    ( Gmon.Sprof.decode ~mode:`Strict bytes,
      Gmon.Sprof.decode ~mode:`Salvage bytes )
  with
  | Ok (s1, r1), Ok (s2, r2) ->
    check_bool "strict roundtrip" true (Gmon.Sprof.equal s1 sample);
    check_bool "salvage roundtrip" true (Gmon.Sprof.equal s2 sample);
    check_bool "no strict losses" false (Gmon.report_degraded r1);
    check_bool "no salvage losses" false (Gmon.report_degraded r2)
  | _ -> Alcotest.fail "intact file rejected"

let test_flip_everywhere () =
  let bytes = Gmon.Sprof.to_bytes sample in
  for i = 0 to String.length bytes - 1 do
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    let s = Bytes.to_string b in
    (* the checksum footer catches every single-byte corruption *)
    (match Gmon.Sprof.decode ~mode:`Strict s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "flip %d: strict accepted corrupt bytes" i);
    match Gmon.Sprof.decode ~mode:`Salvage s with
    | Ok (sp, rep) ->
      assert_valid (Printf.sprintf "flip %d" i) sp;
      check_bool
        (Printf.sprintf "flip %d: degradation reported" i)
        true (Gmon.report_degraded rep)
    | Error _ -> ()
  done

let test_salvage_recovers_prefix () =
  let bytes = Gmon.Sprof.to_bytes sample in
  (* cut inside the third stack record: the first two survive whole *)
  let rec_len n_frames = 8 + 8 + (8 * n_frames) in
  let cut = header_end + rec_len 1 + rec_len 2 + 5 in
  match Gmon.Sprof.decode ~mode:`Salvage (String.sub bytes 0 cut) with
  | Error e -> Alcotest.fail (Gmon.decode_error_to_string e)
  | Ok (sp, rep) ->
    check_int "two whole records recovered" 2 (Gmon.Sprof.n_stacks sp);
    check_bool "prefix of the canonical table" true (sub_sprof sp sample);
    check_int "dropped records counted" 2 rep.Gmon.r_dropped_arcs;
    check_bool "bytes lost counted" true (rep.Gmon.r_dropped_bytes > 0);
    (* salvaged data keeps merging downstream *)
    (match Gmon.Sprof.merge sp (mk [ ([| 5 |], 4) ]) with
    | Error e -> Alcotest.failf "salvaged sprof refused to merge: %s" e
    | Ok m ->
      assert_valid "salvaged+clean" m;
      check_int "samples add"
        (Gmon.Sprof.n_samples sp + 4)
        (Gmon.Sprof.n_samples m))

let test_strict_errors_carry_offsets () =
  (match Gmon.Sprof.decode ~mode:`Strict "garbage" with
  | Error e ->
    check_int "magic offset" 0 e.Gmon.de_offset;
    Alcotest.(check string) "magic context" "magic" e.Gmon.de_context
  | Ok _ -> Alcotest.fail "garbage accepted");
  let bytes = Gmon.Sprof.to_bytes sample in
  let cut = String.length bytes - 5 in
  match
    Gmon.Sprof.decode ~path:"some.sprof" ~mode:`Strict (String.sub bytes 0 cut)
  with
  | Error e ->
    Alcotest.(check (option string)) "path carried" (Some "some.sprof") e.de_path
  | Ok _ -> Alcotest.fail "torn file accepted"

let test_sniff_and_family () =
  let bytes = Gmon.Sprof.to_bytes sample in
  check_bool "sniffs its own magic" true (Gmon.Sprof.sniff_bytes bytes);
  check_bool "gmon decoder rejects sprof bytes" true
    (Result.is_error (Gmon.decode ~mode:`Strict bytes));
  let g = Gmon.make_hist ~lowpc:0 ~highpc:4 ~bucket_size:1 in
  let gmon_bytes =
    Gmon.to_bytes
      { Gmon.hist = g; arcs = []; ticks_per_second = 60;
        cycles_per_tick = 16_666; runs = 1 }
  in
  check_bool "sprof decoder rejects gmon bytes" true
    (Result.is_error (Gmon.Sprof.decode ~mode:`Strict gmon_bytes));
  check_bool "sprof sniff rejects gmon bytes" false
    (Gmon.Sprof.sniff_bytes gmon_bytes)

let test_merge_rejects_mismatched_rates () =
  let a = mk ~interval:1 [ ([| 0 |], 1) ] in
  let b = mk ~interval:4 [ ([| 0 |], 1) ] in
  (match Gmon.Sprof.merge a b with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "merged across sample intervals");
  match Gmon.Sprof.merge_all [] with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "empty merge produced a container"

(* ------------------------------------------------------------------ *)
(* QCheck: codec round-trip and the merge algebra *)

let random_sprof_gen =
  QCheck.Gen.(
    let stack_gen =
      let* depth = int_range 0 5 in
      let* frames = list_repeat depth (int_range 0 40) in
      return (Array.of_list frames)
    in
    let* stacks =
      list_size (int_range 0 10) (pair stack_gen (int_range 1 50))
    in
    let* runs = int_range 1 3 in
    return
      {
        (mk ~runs []) with
        Gmon.Sprof.sp_stacks =
          Gmon.Sprof.(
            (of_folded ~sample_interval:2 ~ticks_per_second:60
               ~cycles_per_tick:16_666 stacks)
              .sp_stacks);
      })

let arb_sprof =
  QCheck.make
    ~print:(fun sp -> Format.asprintf "%a" Gmon.Sprof.pp sp)
    random_sprof_gen

let codec_roundtrip =
  QCheck.Test.make ~name:"sprof codec: to_bytes/decode round-trips" ~count:200
    arb_sprof (fun sp ->
      match Gmon.Sprof.decode ~mode:`Strict (Gmon.Sprof.to_bytes sp) with
      | Ok (sp', rep) ->
        Gmon.Sprof.equal sp sp' && not (Gmon.report_degraded rep)
      | Error _ -> false)

let reader_total =
  QCheck.Test.make ~name:"sprof reader: random bytes never raise" ~count:500
    QCheck.(map (fun s -> "SPROFOCAML1\n" ^ s) string)
    (fun s ->
      (match Gmon.Sprof.decode ~mode:`Strict s with Ok _ | Error _ -> ());
      match Gmon.Sprof.decode ~mode:`Salvage s with
      | Ok (sp, _) -> Gmon.Sprof.validate sp = Ok ()
      | Error _ -> true)

let merge_ok a b = match Gmon.Sprof.merge a b with
  | Ok m -> m
  | Error e -> QCheck.Test.fail_report e

let merge_commutative =
  QCheck.Test.make ~name:"sprof merge: commutative and byte-identical"
    ~count:200 (QCheck.pair arb_sprof arb_sprof) (fun (a, b) ->
      let ab = merge_ok a b and ba = merge_ok b a in
      Gmon.Sprof.equal ab ba
      && Gmon.Sprof.to_bytes ab = Gmon.Sprof.to_bytes ba)

let merge_associative =
  QCheck.Test.make ~name:"sprof merge: associative and byte-identical"
    ~count:200
    (QCheck.triple arb_sprof arb_sprof arb_sprof)
    (fun (a, b, c) ->
      let l = merge_ok (merge_ok a b) c and r = merge_ok a (merge_ok b c) in
      Gmon.Sprof.equal l r && Gmon.Sprof.to_bytes l = Gmon.Sprof.to_bytes r)

let merge_preserves_samples =
  QCheck.Test.make ~name:"sprof merge: sample counts are an exact sum"
    ~count:200 (QCheck.pair arb_sprof arb_sprof) (fun (a, b) ->
      let m = merge_ok a b in
      Gmon.Sprof.validate m = Ok ()
      && Gmon.Sprof.n_samples m
         = Gmon.Sprof.n_samples a + Gmon.Sprof.n_samples b
      && m.sp_runs = a.sp_runs + b.sp_runs)

(* ------------------------------------------------------------------ *)
(* The store's sampled track: daemon-path equivalent to offline *)

let with_dir f =
  let dir = Filename.temp_file "sprof_store" "" in
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

let ok = function Ok v -> v | Error e -> Alcotest.fail e

let sample_i i =
  mk [ ([| i mod 3 |], i + 1); ([| i mod 3; 4 |], (2 * i) + 1) ]

let merged_sprof_exn st =
  match Store.merged_sprof st with
  | Ok (Some sp) -> sp
  | Ok None -> Alcotest.fail "store holds no sampled profiles"
  | Error e -> Alcotest.fail e

let test_store_sprof_equals_offline () =
  with_dir @@ fun dir ->
  let st, _ = ok (Store.open_ ~shards:4 dir) in
  let sps = List.init 9 sample_i in
  List.iteri
    (fun i sp ->
      ok (Store.append_sprof st ~label:(Printf.sprintf "job-%d" (i mod 3)) sp))
    sps;
  let offline = ok (Gmon.Sprof.merge_all sps) in
  let view = merged_sprof_exn st in
  check_bool "merged = offline merge_all" true (Gmon.Sprof.equal view offline);
  check_bool "byte-identical (canonical merge)" true
    (Gmon.Sprof.to_bytes view = Gmon.Sprof.to_bytes offline);
  (* compaction must not change the view, and survives reopening *)
  let folded = ok (Store.compact st) in
  check_bool "compaction folded sprof segments" true (folded > 0);
  check_bool "view unchanged after compact" true
    (Gmon.Sprof.equal (merged_sprof_exn st) offline);
  let st2, rep = ok (Store.open_ dir) in
  check_bool "clean recovery" false (Store.open_report_degraded rep);
  check_bool "view reconstructed after reopen" true
    (Gmon.Sprof.equal (merged_sprof_exn st2) offline)

let test_store_tracks_are_independent () =
  with_dir @@ fun dir ->
  let st, _ = ok (Store.open_ ~shards:2 dir) in
  let g = Gmon.make_hist ~lowpc:0 ~highpc:4 ~bucket_size:1 in
  let gmon =
    { Gmon.hist = g; arcs = []; ticks_per_second = 60;
      cycles_per_tick = 16_666; runs = 1 }
  in
  ok (Store.append st ~label:"a" gmon);
  ok (Store.append_sprof st ~label:"a" (sample_i 1));
  (* submission bytes route by magic *)
  let q = Ingest.create ~max_batch:1 st in
  (match ok (Ingest.submit q ~label:"b" (Gmon.Sprof.to_bytes (sample_i 2))) with
  | Ingest.Flushed 1 -> ()
  | Ingest.Quarantined r -> Alcotest.failf "sprof bytes quarantined: %s" r
  | _ -> Alcotest.fail "sprof bytes not stored");
  let stats = Store.stats st in
  check_int "sprof segments counted" 2 stats.st_sprof_segments;
  check_int "sprof runs counted" 2 stats.st_sprof_runs;
  check_int "arc segments unaffected" 1 stats.st_segments;
  let expected = ok (Gmon.Sprof.merge_all [ sample_i 1; sample_i 2 ]) in
  check_bool "sampled view sums both labels" true
    (Gmon.Sprof.equal (merged_sprof_exn st) expected);
  match Store.merged st with
  | Ok (Some m) -> check_bool "arc view untouched" true (Gmon.equal m gmon)
  | _ -> Alcotest.fail "arc view lost"

let test_store_quarantines_torn_sprof () =
  with_dir @@ fun dir ->
  let st, _ = ok (Store.open_ ~shards:1 dir) in
  let torn =
    let b = Gmon.Sprof.to_bytes (sample_i 1) in
    String.sub b 0 (String.length b - 3)
  in
  (match ok (Ingest.submit (Ingest.create st) ~label:"x" torn) with
  | Ingest.Quarantined _ -> ()
  | _ -> Alcotest.fail "torn sprof bytes stored");
  check_int "quarantined" 1 (Store.stats st).st_quarantined

(* ------------------------------------------------------------------ *)

let () =
  if Sys.getenv_opt "QCHECK_SEED" = None then Unix.putenv "QCHECK_SEED" "20260807";
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sprof"
    [
      ( "codec",
        [
          Alcotest.test_case "truncate everywhere" `Quick test_truncate_everywhere;
          Alcotest.test_case "flip everywhere" `Quick test_flip_everywhere;
          Alcotest.test_case "salvage recovers the prefix" `Quick
            test_salvage_recovers_prefix;
          Alcotest.test_case "errors carry offsets" `Quick
            test_strict_errors_carry_offsets;
          Alcotest.test_case "magic separates the family" `Quick
            test_sniff_and_family;
          Alcotest.test_case "mismatched rates refuse to merge" `Quick
            test_merge_rejects_mismatched_rates;
        ] );
      ( "algebra",
        [
          qt codec_roundtrip; qt reader_total; qt merge_commutative;
          qt merge_associative; qt merge_preserves_samples;
        ] );
      ( "store",
        [
          Alcotest.test_case "merged = offline merge_all" `Quick
            test_store_sprof_equals_offline;
          Alcotest.test_case "tracks are independent" `Quick
            test_store_tracks_are_independent;
          Alcotest.test_case "torn submissions quarantined" `Quick
            test_store_quarantines_torn_sprof;
        ] );
    ]
