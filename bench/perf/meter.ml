(* Measurement plumbing shared by the workloads: sample statistics,
   the layer spans of the traced run, the per-layer self-time table,
   process readings from /proc, and the result record every run
   prints. *)

let now = Unix.gettimeofday

(* ------------------------------------------------------------------ *)
(* Statistics *)

(* [q] in [0, 1]; 0 for no samples. *)
let quantile xs q = if xs = [] then 0.0 else Util.Stats.percentile (100.0 *. q) xs

let median xs = quantile xs 0.5

let geomean = function
  | [] -> 0.0
  | xs ->
    exp
      (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

type samples = float Util.Growvec.t

let samples () : samples = Util.Growvec.create ~dummy:0.0 ()
let add = Util.Growvec.push
let values = Util.Growvec.to_list
let count = Util.Growvec.length

(* ------------------------------------------------------------------ *)
(* Host speed *)

(* The benchmark shares its cores with other tenants, whose load slows
   every instruction, often by a third or more, for seconds or minutes
   at a time, with no steal time to show for it. So every timed
   interval is corrected by the host's speed at that moment: a fixed
   reference kernel, defined here and so the same on every commit,
   runs between ops at most every [recheck_s], and an interval is
   scaled by [kernel_nominal_s] over the median of the kernel's last
   [window] times. A change to the repository moves the ops and not the
   kernel, so it moves corrected times just as it moves wall times,
   while a busy neighbour slows both and cancels out. *)

(* Allocates like the code under test does, strings, a hash table, a
   buffer and a list sort; about 1.3 ms. A kernel that only does
   arithmetic tracked the slow periods much worse: they slow
   allocation-heavy code the most. It allocates about 190k words, less
   than the 256k-word minor heap. *)
let kernel () =
  let h = Hashtbl.create 1024 in
  let b = Buffer.create 16384 in
  for i = 0 to 3_999 do
    let k = string_of_int (i * 7919 mod 100_003) in
    Hashtbl.replace h k i;
    Buffer.add_string b k
  done;
  let l = List.sort compare (List.init 4_000 (fun i -> i * 7919 mod 100_003)) in
  ignore (Sys.opaque_identity (List.fold_left ( + ) 0 l + Hashtbl.length h + Buffer.length b))

(* The kernel's time on the machine in README.md when it is quiet, so
   corrected times read as that machine's wall times. *)
let kernel_nominal_s = 0.0013

let recheck_s = 0.05
let window = 5
let kernel_times = Array.make window 0.0
let kernel_runs = ref 0
let checked_at = ref neg_infinity

(* The kernel starts on an empty minor heap, so no collection falls
   inside its timing: a collection's cost depends on the workload's
   heap, not on the host, and timing one now and then made the
   correction itself noisy. *)
let run_kernel () =
  Gc.minor ();
  let t0 = now () in
  kernel ();
  checked_at := now ();
  kernel_times.(!kernel_runs mod window) <- !checked_at -. t0;
  incr kernel_runs

(* The factor that turns a wall-clock interval starting now into time
   at the nominal host speed. *)
let host_speed () =
  if !kernel_runs = 0 then
    for _ = 1 to window do
      run_kernel ()
    done
  else if now () -. !checked_at >= recheck_s then run_kernel ();
  kernel_nominal_s /. median (Array.to_list kernel_times)

(* ------------------------------------------------------------------ *)
(* Layer spans *)

(* The layers, named after the repository's modules. Spans recorded by
   the library itself carry their module's category ("core", "gmon",
   "analysis", "store", "ingest"), so they land in the same table. *)
let layers =
  [ "mini"; "compile"; "vm"; "gmon"; "core"; "analysis"; "pgo"; "ingest"; "store" ]

let tracing = ref false

(* [span layer name f] runs [f ()]; in a traced run it records it as a
   span of [layer] in the process-wide tracer, so spans the library
   opens inside [f] nest under it. *)
let span layer name f =
  if !tracing then Obs.Trace.with_span ~cat:layer name f else f ()

(* Turn tracing on for the calls inside [f] only. *)
let traced f =
  tracing := true;
  Obs.Trace.set_enabled Obs.Trace.default true;
  Fun.protect
    ~finally:(fun () ->
      tracing := false;
      Obs.Trace.set_enabled Obs.Trace.default false)
    f

(* Every recorded span with its self time: its duration minus the part
   its direct children cover. Spans come in open order with their
   nesting depth, so a span's parent is the latest span opened one
   level up. *)
type timed = { sp : Obs.Trace.span; self_us : float }

let self_times () =
  let spans = Array.of_list (Obs.Trace.spans Obs.Trace.default) in
  let child = Array.make (Array.length spans) 0.0 in
  let open_at = Hashtbl.create 16 in
  Array.iteri
    (fun i (s : Obs.Trace.span) ->
      (if s.s_depth > 0 then
         match Hashtbl.find_opt open_at (s.s_depth - 1) with
         | Some p -> child.(p) <- child.(p) +. s.s_dur_us
         | None -> ());
      Hashtbl.replace open_at s.s_depth i)
    spans;
  Array.to_list
    (Array.mapi (fun i sp -> { sp; self_us = max 0.0 (sp.s_dur_us -. child.(i)) }) spans)

(* Median duration (ms) of the spans called [name]. *)
let median_ms ts name =
  median
    (List.filter_map
       (fun t -> if t.sp.s_name = name then Some (t.sp.s_dur_us /. 1000.0) else None)
       ts)

(* Self time per layer, ms, in [layers] order. *)
let layer_self_ms ts =
  List.map
    (fun l ->
      ( l,
        List.fold_left
          (fun acc t -> if t.sp.s_cat = l then acc +. t.self_us else acc)
          0.0 ts
        /. 1000.0 ))
    layers

let self_table ~workload ~wall_ms rows =
  let b = Buffer.create 512 in
  Printf.bprintf b "%s: layer self time over %.1f ms of traced work\n" workload wall_ms;
  Printf.bprintf b "  %-9s %12s %7s\n" "layer" "self ms" "share";
  List.iter
    (fun (l, ms) ->
      Printf.bprintf b "  %-9s %12.1f %6.1f%%\n" l ms (100.0 *. ms /. wall_ms))
    (List.sort (fun (_, a) (_, b) -> compare b a) rows);
  let covered = List.fold_left (fun a (_, ms) -> a +. ms) 0.0 rows in
  Printf.bprintf b "  %-9s %12.1f %6.1f%%\n" "covered" covered (100.0 *. covered /. wall_ms);
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* Process readings *)

let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%d/status" pid in
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error _ -> 0
  | text ->
    List.fold_left
      (fun acc line ->
        match String.index_opt line ':' with
        | Some i when String.sub line 0 i = key ->
          let v = String.trim (String.sub line (i + 1) (String.length line - i - 1)) in
          (match String.split_on_char ' ' v with
          | n :: _ -> Option.value (int_of_string_opt n) ~default:acc
          | [] -> acc)
        | _ -> acc)
      0 (String.split_on_char '\n' text)

(* Peak resident set of a process, MB. *)
let peak_rss_mb pid = float_of_int (proc_status_kb pid "VmHWM") /. 1024.0

(* Keep this process, and every process it forks from now on, on the
   CPU it runs on now, so the host-speed kernel always times the CPU the
   ops run on, and the fleet daemon answers on its client's CPU instead
   of waking the other one (README.md has the effect). Without taskset
   the process stays where it is. *)
let pin_to_current_cpu () =
  match In_channel.with_open_text "/proc/self/stat" In_channel.input_all with
  | exception Sys_error _ -> ()
  | stat -> (
    (* the fields after the parenthesised command name start at field 3;
       field 39 is the CPU last run on *)
    let from = String.rindex stat ')' + 2 in
    let fields = String.split_on_char ' ' (String.sub stat from (String.length stat - from)) in
    match List.nth_opt fields 36 with
    | None -> ()
    | Some cpu ->
      (* taskset reports the old and new CPU lists; they are dropped *)
      let args = [| "taskset"; "-pc"; cpu; string_of_int (Unix.getpid ()) |] in
      let rd, wr = Unix.pipe ~cloexec:true () in
      (match Unix.create_process "taskset" args Unix.stdin wr wr with
      | pid ->
        Unix.close wr;
        ignore (In_channel.input_all (Unix.in_channel_of_descr rd));
        ignore (Unix.waitpid [] pid)
      | exception Unix.Unix_error _ -> Unix.close wr);
      Unix.close rd)

(* ------------------------------------------------------------------ *)
(* Results *)

type metric = { name : string; value : float; unit_ : string }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let m name unit_ value =
  { name; unit_; value = (if Float.is_finite value then value else 0.0) }

let json_number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let to_json r =
  let b = Buffer.create 1024 in
  Printf.bprintf b "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {"
    r.correct r.attempted r.failed;
  List.iteri
    (fun i x ->
      Printf.bprintf b "%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}"
        (if i = 0 then "" else ", ")
        x.name (json_number x.value) x.unit_)
    r.metrics;
  Buffer.add_string b "}}";
  Buffer.contents b

let of_json text =
  let open Obs.Jsonin in
  let ( let* ) = Option.bind in
  match parse text with
  | Error _ -> None
  | Ok v ->
    let* correct = member "correct" v in
    let* attempted = Option.bind (member "attempted" v) to_int in
    let* failed = Option.bind (member "failed" v) to_int in
    let* metrics = Option.bind (member "metrics" v) to_obj in
    let metrics =
      List.filter_map
        (fun (name, mv) ->
          let* value = Option.bind (member "value" mv) to_float in
          let* unit_ = Option.bind (member "unit" mv) to_string in
          Some { name; value; unit_ })
        metrics
    in
    Some { correct = correct = Bool true; attempted; failed; metrics }
