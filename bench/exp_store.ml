(* The fleet-aggregation store under load: ingest throughput through
   the batching queue, the cold path (open a fresh handle, which builds
   every shard's view from disk, then the first query) before and
   after compaction, and a warm query — at 10, 100, and 1000 ingested
   profiles. Also checks the load-bearing invariant end to end: the
   store's merged view equals an offline Gmon.merge_all of everything
   ingested, at every scale and on either side of compaction. *)

open Harness

let with_dir f =
  let dir = Filename.temp_file "bench_store" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o755;
  let rec rm p =
    if Sys.is_directory p then begin
      Array.iter (fun n -> rm (Filename.concat p n)) (Sys.readdir p);
      Unix.rmdir p
    end
    else Sys.remove p
  in
  Fun.protect ~finally:(fun () -> rm dir) (fun () -> f dir)

let time_us f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, (Unix.gettimeofday () -. t0) *. 1e6)

let gauge name help v =
  Obs.Metrics.set (Obs.Metrics.gauge Obs.Metrics.default name ~help) v

let t_store () =
  (* four distinct runs of the same build, cycled over the labels, so
     merging has real work to do *)
  let payloads =
    List.map
      (fun seed ->
        let r =
          run_workload
            ~config:{ Vm.Machine.default_config with seed }
            Workloads.Programs.quick
        in
        r.gmon)
      [ 1; 2; 3; 4 ]
  in
  let payload_bytes = List.map Gmon.to_bytes payloads in
  let nth_payload i = List.nth payloads (i mod 4) in
  let nth_bytes i = List.nth payload_bytes (i mod 4) in
  let scales = [ 10; 100; 1000 ] in
  let all_ok = ref true and faster_compacted = ref true in
  List.iter
    (fun n ->
      with_dir @@ fun dir ->
      section "%d profiles through the ingestion queue" n;
      let st, _ =
        match Store.open_ ~shards:8 dir with
        | Ok v -> v
        | Error e ->
          Printf.eprintf "store open failed: %s\n" e;
          exit 3
      in
      let q = Ingest.create ~max_batch:32 ~max_age:3600.0 st in
      let ok = function
        | Ok v -> v
        | Error e ->
          Printf.eprintf "store operation failed: %s\n" e;
          exit 3
      in
      let (), ingest_us =
        time_us (fun () ->
            for i = 1 to n do
              ignore
                (ok
                   (Ingest.submit q
                      ~label:(Printf.sprintf "svc-%d" (i mod 16))
                      (nth_bytes i)))
            done;
            ignore (ok (Ingest.flush q)))
      in
      let per_s = float_of_int n /. (ingest_us /. 1e6) in
      (* the cold path: opening a fresh handle reads every file and
         builds each shard's view — the tail before compaction, one
         compacted profile per shard after — then the first query sums
         the views *)
      let cold () =
        time_us (fun () ->
            let st2, _ = ok (Store.open_ dir) in
            ok (Store.merged st2))
      in
      let before, before_us = cold () in
      let folded = ok (Store.compact st) in
      let after, after_us = cold () in
      let _, warm_us = time_us (fun () -> ok (Store.merged st)) in
      Printf.printf
        "  ingest %7.0f profiles/s; cold open + query %8.0f us before / \
         %8.0f us after compaction (%d segments folded); warm query %5.0f us\n"
        per_s before_us after_us folded warm_us;
      let tag = string_of_int n in
      gauge ("bench.store.ingest_per_s_" ^ tag)
        "ingest throughput through the batching queue, profiles/s"
        (int_of_float per_s);
      gauge ("bench.store.query_us_tail_" ^ tag)
        "cold open + first merged-view query before compaction, us"
        (int_of_float before_us);
      gauge ("bench.store.query_us_compacted_" ^ tag)
        "cold open + first merged-view query after compaction, us"
        (int_of_float after_us);
      gauge ("bench.store.query_us_cached_" ^ tag)
        "merged-view query on an open handle, us" (int_of_float warm_us);
      let offline =
        match Gmon.merge_all (List.init n (fun i -> nth_payload (i + 1))) with
        | Ok g -> g
        | Error e ->
          Printf.eprintf "offline merge failed: %s\n" e;
          exit 3
      in
      let equal_view = function
        | Some g -> Gmon.equal g offline
        | None -> false
      in
      if not (equal_view before && equal_view after) then all_ok := false;
      if n = 1000 && after_us > before_us then faster_compacted := false)
    scales;
  expect "merged view = offline merge_all at every scale, pre and post compaction"
    !all_ok;
  expect "compaction speeds up the cold open at 1000 profiles"
    !faster_compacted

let register () =
  register "t-store"
    "fleet aggregation: ingest throughput and query latency across compaction"
    t_store
