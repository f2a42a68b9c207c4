(* The interning trace buffer. Storing every sample as its own array
   made memory grow with run length even though long runs revisit the
   same few hundred stacks over and over. Interning inverts that: each
   distinct stack is stored once, keyed by content, with a count of
   how many samples hit it — the folded representation every consumer
   (sprof container, flame export, stackprof) wants anyway. *)

type slot = { sl_id : int; sl_stack : int array; mutable sl_count : int }

type t = {
  interval : int;
  capacity : int;
  tbl : (int array, slot) Hashtbl.t;
  mutable next_id : int;
  mutable tick : int;
  mutable taken : int;
  mutable skipped : int;
  mutable max_depth : int;
}

(* Walking one stack frame costs about as much as a monitor hash
   probe: a couple of loads chasing the frame link. *)
let frame_walk_cost = 2

let default_capacity = 4096

(* Depths land in the process-wide registry at sample time, like the
   codec byte counters: the distribution is an event stream, not a
   snapshot. *)
let m_depth =
  Obs.Metrics.histogram Obs.Metrics.default "vm.sample.depth"
    ~help:"call-stack depth at each retained sample"

let create ?(capacity = default_capacity) ~interval () =
  if interval < 1 then invalid_arg "Stacksamp.create: interval must be >= 1";
  if capacity < 1 then invalid_arg "Stacksamp.create: capacity must be >= 1";
  {
    interval;
    capacity;
    tbl = Hashtbl.create 256;
    next_id = 0;
    tick = 0;
    taken = 0;
    skipped = 0;
    max_depth = 0;
  }

let interval t = t.interval

let capacity t = t.capacity

let on_tick t ~stack =
  t.tick <- t.tick + 1;
  if t.tick mod t.interval <> 0 then 0
  else begin
    let depth = Array.length stack in
    (match Hashtbl.find_opt t.tbl stack with
    | Some slot ->
      slot.sl_count <- slot.sl_count + 1;
      t.taken <- t.taken + 1;
      if depth > t.max_depth then t.max_depth <- depth;
      Obs.Metrics.observe m_depth depth
    | None ->
      if Hashtbl.length t.tbl >= t.capacity then
        (* The table is full and this stack is new: drop the sample
           rather than grow without bound. The walk already happened,
           so the cost below is still charged. *)
        t.skipped <- t.skipped + 1
      else begin
        let slot = { sl_id = t.next_id; sl_stack = Array.copy stack;
                     sl_count = 1 } in
        t.next_id <- t.next_id + 1;
        Hashtbl.replace t.tbl slot.sl_stack slot;
        t.taken <- t.taken + 1;
        if depth > t.max_depth then t.max_depth <- depth;
        Obs.Metrics.observe m_depth depth
      end);
    frame_walk_cost * depth
  end

let folded t =
  Hashtbl.fold (fun _ s acc -> (s.sl_stack, s.sl_count) :: acc) t.tbl []
  |> List.sort (fun (a, _) (b, _) -> Gmon.Sprof.compare_stack a b)

let id_of_stack t stack =
  Option.map (fun s -> s.sl_id) (Hashtbl.find_opt t.tbl stack)

let n_samples t = t.taken

let n_skipped t = t.skipped

let n_distinct t = Hashtbl.length t.tbl

let max_depth t = t.max_depth

let observe t reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "vm.sample.taken" t.taken;
  g "vm.sample.skipped" t.skipped;
  g "vm.sample.distinct" (Hashtbl.length t.tbl);
  g "vm.sample.capacity" t.capacity;
  g "vm.sample.occupancy_pct" (100 * Hashtbl.length t.tbl / t.capacity);
  g "vm.sample.max_depth" t.max_depth

let reset t =
  Hashtbl.reset t.tbl;
  t.next_id <- 0;
  t.tick <- 0;
  t.taken <- 0;
  t.skipped <- 0;
  t.max_depth <- 0
