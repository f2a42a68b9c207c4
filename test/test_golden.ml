(* Golden regression net for the on-disk data files and the reports.
   Everything the codecs write or report, and every byte the report
   renderers print, is pinned here, so a change that moves a single
   byte, error message, report field or metric shows up as a diff
   against a committed table.

   fixtures/golden/smoke.{gmon,icount,epochs,sprof} come from one
   deterministic run:

     minic test/fixtures/smoke.mini --pg -o smoke.obj
     minirun smoke.obj -q --seed 1 --gmon smoke.gmon --icount smoke.icount \
       --epoch-ticks 4 --epochs smoke.epochs --sample-ticks 1 \
       --sample-out smoke.sprof

   Beside them sit the hand-built samples below, committed as
   hand.gmon, hand.epochs, hand.sprof and hand.icount: small enough to
   pin one text line per damage case. The test checks:

   - decoding each file and encoding it again gives the same bytes;
   - the store manifest for a fixed shard count, and shard routing;
   - strict and salvage decoding of every truncation and every
     single-byte flip (xor 0xff) gives the pinned outcome: one line per
     case for the hand-built samples (outcomes.txt), one digest per
     (file, mutation, mode) for the smoke files (digests.txt);
   - every [gmon.*] and [sprof.codec.*] counter moves by the pinned
     delta for one save, clean load, salvaged load and refused load per
     family (metrics.txt);
   - every report renderer prints the pinned bytes: one digest per
     (program, option set, renderer) for fixtures/smoke.mini and every
     stock workload, each built -pg and run with the default VM config
     (listings.txt), and the full text of the Figure 4 listing
     (figure4.txt);
   - the full text of the timeline digest of three multi-epoch
     containers: the committed smoke.epochs against smoke.mini built
     -pg, and the matrix and indirect workloads run with a 25-tick epoch
     window (timeline.txt).

   On a mismatch the test writes the table it computed next to itself
   as [<table>.actual] (under _build/default/test), so an intended
   change is reviewed as a diff and committed by copying that file. *)

let golden name = Filename.concat "fixtures/golden" name

let read_file path = In_channel.with_open_bin path In_channel.input_all

let digest s = String.sub (Digest.to_hex (Digest.string s)) 0 16

(* Compare a computed text with its committed copy; name the first
   differing line. *)
let check_text name actual =
  let expected = read_file (golden name) in
  if actual <> expected then begin
    Out_channel.with_open_bin (name ^ ".actual") (fun oc ->
        Out_channel.output_string oc actual);
    let exp = String.split_on_char '\n' expected in
    let rec first i = function
      | e :: es, a :: as_ when e = a -> first (i + 1) (es, as_)
      | e :: _, a :: _ -> Alcotest.failf "%s line %d:\n  want %s\n  got  %s" name i e a
      | [], a :: _ | a :: _, [] -> Alcotest.failf "%s line %d: extra %S" name i a
      | [], [] -> Alcotest.failf "%s differs" name
    in
    first 1 (exp, String.split_on_char '\n' actual)
  end

let check_table name lines =
  check_text name (String.concat "" (List.map (fun l -> l ^ "\n") lines))

(* --- the hand-built samples ------------------------------------------- *)

(* test_robust's sample: 12 one-address buckets, 3 arcs *)
let hand_gmon =
  let counts = Array.make 12 0 in
  List.iter (fun (b, c) -> counts.(b) <- c) [ (0, 3); (4, 7); (11, 2) ];
  {
    Gmon.hist = { h_lowpc = 0; h_highpc = 12; h_bucket_size = 1; h_counts = counts };
    arcs =
      List.map
        (fun (f, s, c) -> { Gmon.a_from = f; a_self = s; a_count = c })
        [ (1, 4, 9); (2, 8, 1); (5, 4, 3) ];
    ticks_per_second = 60;
    cycles_per_tick = 16_666;
    runs = 1;
  }

(* test_sprof's sample: four stacks, one a prefix of two others *)
let hand_sprof =
  {
    Gmon.Sprof.sp_sample_interval = 2;
    sp_ticks_per_second = 60;
    sp_cycles_per_tick = 16_666;
    sp_runs = 1;
    sp_stacks =
      [ ([| 0 |], 3); ([| 0; 4 |], 7); ([| 0; 4; 8 |], 2); ([| 0; 8 |], 1) ];
  }

(* two epochs over six two-address buckets *)
let hand_epochs =
  let arc (f, s, c) = { Gmon.a_from = f; a_self = s; a_count = c } in
  {
    Gmon.Epoch.e_lowpc = 0;
    e_highpc = 12;
    e_bucket_size = 2;
    e_ticks_per_second = 60;
    e_cycles_per_tick = 500;
    e_epochs =
      [
        { ep_end_cycle = 1_000; ep_end_tick = 2; ep_counts = [| 1; 0; 0; 1; 0; 0 |];
          ep_arcs = [ arc (1, 4, 2) ] };
        { ep_end_cycle = 2_500; ep_end_tick = 5; ep_counts = [| 0; 0; 0; 0; 0; 3 |];
          ep_arcs = [ arc (1, 4, 1); arc (5, 8, 3) ] };
      ];
  }

(* test_robust's instruction counts *)
let hand_icount = Gmon.Icount.of_counts [| 3; 0; 0; 7; 1 |]

(* --- outcomes -------------------------------------------------------- *)

type family = {
  f_ext : string;
  f_modes : Gmon.mode list;
  f_outcome : Gmon.mode -> string -> string;
  f_reencode : string -> string option;  (** strict decode, then encode *)
}

let error_line (e : Gmon.decode_error) =
  Printf.sprintf "err @%d %s: %s" e.de_offset e.de_context e.de_msg

let report_line enc (r : Gmon.report) =
  Printf.sprintf "ok %s %s b=%d a=%d y=%d%s" (digest enc)
    (match r.r_checksum with `Ok -> "sum" | `Missing -> "nosum" | `Mismatch -> "badsum")
    r.r_dropped_buckets r.r_dropped_arcs r.r_dropped_bytes
    (String.concat "" (List.map (fun n -> " | " ^ n) r.r_notes))

let outcome decode encode mode s =
  match decode ~mode s with
  | Ok (v, r) -> report_line (encode v) r
  | Error e -> error_line e

(* Icount errors are strings; only the outcome and the byte offset are
   pinned, so its messages may change wording. *)
let icount_outcome _ s =
  match Gmon.Icount.of_bytes s with
  | Ok ic -> "ok " ^ digest (Gmon.Icount.to_bytes ic)
  | Error msg -> (
    match Scanf.sscanf_opt msg "%_s@at byte %d" (fun n -> n) with
    | Some n -> Printf.sprintf "err @%d" n
    | None -> "err (no offset) " ^ msg)

let reencode decode encode s =
  match decode ~mode:`Strict s with Ok (v, _) -> Some (encode v) | Error _ -> None

let families =
  [
    { f_ext = "gmon"; f_modes = [ `Strict; `Salvage ];
      f_outcome = outcome (Gmon.decode ?path:None) Gmon.to_bytes;
      f_reencode = reencode (Gmon.decode ?path:None) Gmon.to_bytes };
    { f_ext = "epochs"; f_modes = [ `Strict; `Salvage ];
      f_outcome = outcome (Gmon.Epoch.decode ?path:None) Gmon.Epoch.to_bytes;
      f_reencode = reencode (Gmon.Epoch.decode ?path:None) Gmon.Epoch.to_bytes };
    { f_ext = "sprof"; f_modes = [ `Strict; `Salvage ];
      f_outcome = outcome (Gmon.Sprof.decode ?path:None) Gmon.Sprof.to_bytes;
      f_reencode = reencode (Gmon.Sprof.decode ?path:None) Gmon.Sprof.to_bytes };
    { f_ext = "icount"; f_modes = [ `Strict ]; f_outcome = icount_outcome;
      f_reencode =
        (fun s ->
          Result.to_option (Result.map Gmon.Icount.to_bytes (Gmon.Icount.of_bytes s))) };
  ]

let family_of file =
  List.find (fun f -> Filename.extension file = "." ^ f.f_ext) families

let mode_name = function `Strict -> "strict" | `Salvage -> "salvage"

(* Every truncation and every single-byte flip of [bytes], grouped by
   (file, mutation, mode), one line per case. *)
let cases file f bytes =
  let flip i =
    let b = Bytes.of_string bytes in
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0xff));
    Bytes.to_string b
  in
  List.concat_map
    (fun (kind, mutate) ->
      List.map
        (fun mode ->
          let group = Printf.sprintf "%s %s %s" file kind (mode_name mode) in
          ( group,
            List.init (String.length bytes) (fun i ->
                Printf.sprintf "%s %s %d %s %s" file kind i (mode_name mode)
                  (f.f_outcome mode (mutate i))) ))
        f.f_modes)
    [ ("cut", fun i -> String.sub bytes 0 i); ("flip", flip) ]

let hand_files =
  [
    ("hand.gmon", Gmon.to_bytes hand_gmon);
    ("hand.epochs", Gmon.Epoch.to_bytes hand_epochs);
    ("hand.sprof", Gmon.Sprof.to_bytes hand_sprof);
    ("hand.icount", Gmon.Icount.to_bytes hand_icount);
  ]

let smoke_files = [ "smoke.gmon"; "smoke.epochs"; "smoke.sprof"; "smoke.icount" ]

(* --- the four checks ---------------------------------------------------- *)

let test_roundtrip () =
  List.iter
    (fun (file, enc) ->
      Alcotest.(check bool) (file ^ ": the sample encodes to the committed file") true
        (enc = read_file (golden file)))
    hand_files;
  List.iter
    (fun file ->
      let bytes = read_file (golden file) in
      match (family_of file).f_reencode bytes with
      | Some enc ->
        Alcotest.(check bool) (file ^ ": decode then encode is the identity") true
          (enc = bytes)
      | None -> Alcotest.failf "%s: strict decode refused the golden file" file)
    (List.map fst hand_files @ smoke_files)

let test_store_manifest () =
  let dir = Filename.temp_file "golden" ".store" in
  Sys.remove dir;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Sys.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists dir then rm dir)
    (fun () ->
      match Store.open_ ~shards:4 dir with
      | Error e -> Alcotest.fail e
      | Ok (st, _) ->
        Alcotest.(check bool) "manifest bytes" true
          (read_file (Filename.concat dir "MANIFEST") = read_file (golden "MANIFEST.4"));
        Alcotest.(check (list int)) "shard routing" [ 1; 0; 0; 2; 0; 2 ]
          (List.map (Store.shard_of_label st)
             [ ""; "a"; "foobar"; "smoke"; "run-1"; "fleet/host-7" ]))

let test_outcomes () =
  check_table "outcomes.txt"
    (List.concat_map
       (fun (file, bytes) -> List.concat_map snd (cases file (family_of file) bytes))
       hand_files);
  check_table "digests.txt"
    (List.concat_map
       (fun file ->
         List.map
           (fun (group, lines) -> group ^ " " ^ digest (String.concat "\n" lines))
           (cases file (family_of file) (read_file (golden file))))
       smoke_files)

(* --- metric deltas -------------------------------------------------------- *)

let codec_counters () =
  List.filter_map
    (fun (name, v) ->
      match v with
      | Obs.Metrics.View_counter n
        when String.starts_with ~prefix:"gmon." name
             || String.starts_with ~prefix:"sprof.codec." name ->
        Some (name, n)
      | _ -> None)
    (Obs.Metrics.views Obs.Metrics.default)

let delta_line what f =
  let before = codec_counters () in
  f ();
  let moved =
    List.filter_map
      (fun (name, n) ->
        let n0 = Option.value ~default:0 (List.assoc_opt name before) in
        if n <> n0 then Some (Printf.sprintf " %s%+d" name (n - n0)) else None)
      (codec_counters ())
  in
  what ^ String.concat "" moved

(* One save, then loads of the clean file, of a torn copy (salvaged,
   then strict: refused) and of a copy whose last body byte is flipped
   (salvaged past a checksum mismatch). Icount has no salvage mode. *)
let test_metric_deltas () =
  let path name =
    Filename.concat (Filename.get_temp_dir_name ()) ("golden_metrics_" ^ name)
  in
  let family name ~save ~load ~salvage ~bytes =
    let n = String.length bytes in
    let flipped = Bytes.of_string bytes in
    Bytes.set flipped (n - 17) (Char.chr (Char.code bytes.[n - 17] lxor 0xff));
    let files =
      [ ("torn", String.sub bytes 0 (n - 40)); ("flipped", Bytes.to_string flipped) ]
    in
    List.iter
      (fun (f, data) ->
        Out_channel.with_open_bin (path f) (fun oc -> Out_channel.output_string oc data))
      files;
    let op what f expect_ok =
      delta_line (name ^ " " ^ what) (fun () ->
          match (f (), expect_ok) with
          | Ok (), true | Error _, false -> ()
          | Ok (), false -> Alcotest.failf "%s %s: accepted" name what
          | Error e, true -> Alcotest.failf "%s %s: %s" name what e)
    in
    let ops =
      [ ("save", (fun () -> save (path name)), true);
        ("clean-load", (fun () -> load `Strict (path name)), true) ]
      @ (if salvage then
           [ ("salvaged-load", (fun () -> load `Salvage (path "torn")), true);
             ("mismatch-load", (fun () -> load `Salvage (path "flipped")), true) ]
         else [])
      @ [ ("refused-load", (fun () -> load `Strict (path "torn")), false) ]
    in
    let lines = List.map (fun (what, f, expect_ok) -> op what f expect_ok) ops in
    List.iter (fun f -> Sys.remove (path f)) (name :: List.map fst files);
    lines
  in
  let loader (type a)
      (load :
        ?mode:Gmon.mode -> string -> (a * Gmon.report, Gmon.decode_error) result)
      mode p =
    Result.map ignore (load ~mode p) |> Result.map_error Gmon.decode_error_to_string
  in
  let gmon =
    family "gmon" ~save:(Gmon.save hand_gmon) ~load:(loader Gmon.load_report)
      ~salvage:true ~bytes:(Gmon.to_bytes hand_gmon)
  in
  let epochs =
    family "epochs" ~save:(Gmon.Epoch.save hand_epochs)
      ~load:(loader Gmon.Epoch.load_report) ~salvage:true
      ~bytes:(Gmon.Epoch.to_bytes hand_epochs)
  in
  let sprof =
    family "sprof" ~save:(Gmon.Sprof.save hand_sprof)
      ~load:(loader Gmon.Sprof.load_report) ~salvage:true
      ~bytes:(Gmon.Sprof.to_bytes hand_sprof)
  in
  let icount =
    family "icount" ~save:(Gmon.Icount.save hand_icount)
      ~load:(fun _ p -> Result.map ignore (Gmon.Icount.load p))
      ~salvage:false ~bytes:(Gmon.Icount.to_bytes hand_icount)
  in
  check_table "metrics.txt" (gmon @ epochs @ sprof @ icount)

(* --- report renderers -------------------------------------------------- *)

let analysis what options o gmon =
  match Gprof_core.Report.analyze ~options o gmon with
  | Ok r -> r
  | Error e -> Alcotest.failf "%s: %s" what e

let renderers =
  let open Gprof_core in
  [
    ("full", fun ~verbose r -> Report.full_listing ~verbose r);
    ("graph", fun ~verbose r -> Report.graph_listing ~verbose r);
    ("flat", fun ~verbose r -> Report.flat_listing ~verbose r);
    ("index", fun ~verbose:_ r -> Report.index_listing r);
    ("json", fun ~verbose:_ r -> Export.json_report r);
    ("dot", fun ~verbose:_ r -> Report.dot_graph r);
    ("folded", fun ~verbose:_ (r : Report.t) -> Export.folded_stacks r.profile);
    ("callgrind", fun ~verbose:_ (r : Report.t) -> Export.callgrind r.profile);
  ]

(* The option sets, named after what they pick from the program's
   default report: focus on the middle routine of the display order,
   exclude the busiest one, remove the first arc out of the busiest
   routine that has a child. *)
let option_sets (r : Gprof_core.Report.t) =
  let open Gprof_core in
  let p = r.profile in
  let name = Symtab.name p.symtab in
  let funcs =
    List.filter_map
      (function Profile.Func id -> Some id | _ -> None)
      (Array.to_list p.order)
  in
  let busiest = List.hd funcs and middle = List.nth funcs (List.length funcs / 2) in
  let arc =
    List.find_map
      (fun id ->
        match p.entries.(id).e_children with
        | { av_other = Profile.Func c; _ } :: _ -> Some (name id, name c)
        | _ -> None)
      funcs
  in
  let d = Report.default_options in
  [
    ("default", d, false);
    ("verbose", d, true);
    ("focus:" ^ name middle, { d with focus = [ name middle ] }, false);
    ("exclude:" ^ name busiest, { d with exclude = [ name busiest ] }, false);
    ("min-percent:5", { d with min_percent = 5.0 }, false);
    ( (match arc with Some (a, b) -> "remove:" ^ a ^ "->" ^ b | None -> "remove:none"),
      { d with removed_arcs = Option.to_list arc },
      false );
    ("auto-break:2", { d with auto_break_cycles = Some 2 }, false);
  ]

let test_listings () =
  let smoke =
    { Workloads.Programs.w_name = "smoke"; w_source = read_file "fixtures/smoke.mini";
      w_about = "" }
  in
  check_table "listings.txt"
    (List.concat_map
       (fun (w : Workloads.Programs.t) ->
         let run =
           match Workloads.Driver.run w with
           | Ok run -> run
           | Error e -> Alcotest.fail e
         in
         let base =
           analysis w.w_name Gprof_core.Report.default_options run.objfile run.gmon
         in
         List.concat_map
           (fun (set, options, verbose) ->
             let r = analysis (w.w_name ^ " " ^ set) options run.objfile run.gmon in
             List.map
               (fun (renderer, render) ->
                 Printf.sprintf "%s %s %s %s" w.w_name set renderer
                   (digest (render ~verbose r)))
               renderers)
           (option_sets base))
       (smoke :: Workloads.Programs.all));
  check_text "figure4.txt"
    (Gprof_core.Report.full_listing
       (analysis "figure4" Gprof_core.Report.default_options Workloads.Figure4.objfile
          Workloads.Figure4.gmon))

let test_timeline () =
  let digest what o c =
    match Gprof_core.Export.timeline o c with
    | Ok s -> Printf.sprintf "== %s\n%s" what s
    | Error e -> Alcotest.failf "%s timeline: %s" what e
  in
  let smoke =
    let o =
      match
        Compile.Codegen.compile_source ~options:Compile.Codegen.profiling_options
          (read_file "fixtures/smoke.mini")
      with
      | Ok o -> o
      | Error e -> Alcotest.fail e
    in
    match Gmon.Epoch.load (golden "smoke.epochs") with
    | Ok c -> digest "smoke" o c
    | Error e -> Alcotest.fail e
  in
  let windowed (w : Workloads.Programs.t) =
    let config = { Vm.Machine.default_config with epoch_ticks = Some 25 } in
    match Workloads.Driver.run ~config w with
    | Error e -> Alcotest.fail e
    | Ok r -> (
      match Vm.Machine.epochs r.machine with
      | Some c -> digest w.w_name r.objfile c
      | None -> Alcotest.failf "%s: no epochs" w.w_name)
  in
  check_text "timeline.txt"
    (String.concat ""
       [ smoke; windowed Workloads.Programs.matrix;
         windowed Workloads.Programs.indirect ])

let () =
  Alcotest.run "golden"
    [
      ( "codecs",
        [
          Alcotest.test_case "decode . encode = identity" `Quick test_roundtrip;
          Alcotest.test_case "store manifest" `Quick test_store_manifest;
          Alcotest.test_case "truncation and flip outcomes" `Quick test_outcomes;
          Alcotest.test_case "metric deltas" `Quick test_metric_deltas;
        ] );
      ( "reports",
        [
          Alcotest.test_case "rendered listings" `Quick test_listings;
          Alcotest.test_case "timeline digest" `Quick test_timeline;
        ] );
    ]
