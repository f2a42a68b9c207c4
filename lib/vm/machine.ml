module Instr = Objcode.Instr
module Objfile = Objcode.Objfile

type config = {
  cycles_per_tick : int;
  ticks_per_second : int;
  hist_bucket_size : int;
  keying : Monitor.keying;
  oracle : bool;
  stack_interval : int option;
  stack_capacity : int option;
  count_instructions : bool;
  metrics : bool;
  tick_jitter : float;
  seed : int;
  max_cycles : int option;
  max_depth : int;
  fault_after_instr : int option;
  epoch_ticks : int option;
}

let default_config =
  {
    cycles_per_tick = 16_666;
    ticks_per_second = 60;
    hist_bucket_size = 1;
    keying = Monitor.Site_primary;
    oracle = false;
    stack_interval = None;
    stack_capacity = None;
    count_instructions = false;
    metrics = true;
    tick_jitter = 0.0;
    seed = 1;
    max_cycles = None;
    max_depth = 100_000;
    fault_after_instr = None;
    epoch_ticks = None;
  }

let injected_fault_reason = "fault injected: instruction budget exhausted"

type fault = { fault_pc : int; reason : string }

let pp_fault ppf f = Format.fprintf ppf "fault at pc %d: %s" f.fault_pc f.reason

type status = Running | Halted | Faulted of fault

(* Instruction costs, decoded once at creation: one byte per pc (the
   dearest instruction costs 40 cycles). *)
let cost_table text =
  Bytes.init (Array.length text) (fun pc -> Char.chr (Instr.cost text.(pc)))

(* Frames live in one int array, [frame_words] per frame: the return
   address, the entry address, the operand-stack height below the
   frame, where its locals start in [locals], and whether its local
   slots must be checked at run time (entered through [calli] with
   fewer arguments than verification assumed). *)
let frame_words = 5
let f_ret = 0
let f_entry = 1
let f_base = 2
let f_lbase = 3
let f_checked = 4

(* The epoch engine: cumulative counter values at the last boundary,
   against which each window's delta is computed. Baselines and
   entries live outside simulated time — taking a snapshot costs the
   running program nothing, like the metrics counters. *)
type epoch_state = {
  ep_every : int;
  mutable ep_base_counts : int array;
  mutable ep_base_arcs : Gmon.arc list;
  mutable ep_entries : Gmon.Epoch.entry list; (* newest first *)
}

type t = {
  config : config;
  o : Objfile.t;
  text : Instr.t array; (* the machine's own copy of the verified text *)
  costs : Bytes.t; (* Instr.cost per pc *)
  entry_fid : int array;
      (* symbol id per function entry address, -1 elsewhere: the O(1)
         calli target check; empty when the text has no calli *)
  min_args : int array; (* Verify.min_args *)
  room : int; (* the deepest operand stack any one frame builds *)
  mutable pc : int;
  mutable stack : int array;
  mutable sp : int;
  mutable frames : int array;
  mutable depth : int;
  mutable locals : int array;
  mutable lbase : int; (* the current frame's locals are [lbase, ltop) *)
  mutable ltop : int;
  mutable checked : bool; (* the current frame's f_checked *)
  globals : int array;
  arrays : int array array;
  mutable cycles : int;
  limit : int;
      (* max_cycles + 1, max_int when unlimited: an instruction that
         would end at or past it faults *)
  mutable next_tick : int;
  mutable n_ticks : int;
  profil : Profil.t;
  monitor : Monitor.t;
  mutable monitoring : bool;
  mutable mcount_cycles : int;
  pcounts : int array;
  oracle : Oracle.t option;
  sampler : Stacksamp.t option;
  icounts : int array;
      (* executions per pc, always kept: the instruction counts and the
         metrics' dispatch breakdown both derive from it, so the hot
         path bumps one counter and tests no setting *)
  prng : Util.Prng.t;
  out : Buffer.t;
  mutable status : status;
  mutable result : int option;
  mutable fault_countdown : int;
      (* instructions left before the injected fault, max_int when
         none is configured; counted independently of the metrics, so
         injection works with metrics off *)
  epochs : epoch_state option;
}

let create ?(config = default_config) o =
  let text_size = Array.length o.Objfile.text in
  if text_size = 0 then invalid_arg "Machine.create: empty text segment";
  let positive what n =
    if n <= 0 then invalid_arg ("Machine.create: " ^ what ^ " must be positive")
  in
  positive "cycles_per_tick" config.cycles_per_tick;
  positive "ticks_per_second" config.ticks_per_second;
  Option.iter (positive "epoch_ticks") config.epoch_ticks;
  let facts =
    match Objcode.Verify.check o with
    | Ok v -> v
    | Error es -> invalid_arg ("Machine.create: " ^ String.concat "; " es)
  in
  (* The loop trusts what Verify proved of this text, so it runs a copy
     the caller cannot change after the proof. *)
  let text = Array.copy o.text in
  let entry_fid =
    if Array.exists (function Instr.Calli _ -> true | _ -> false) text then begin
      let t = Array.make text_size (-1) in
      Array.iteri (fun f s -> t.(s.Objfile.addr) <- f) o.symbols;
      t
    end
    else [||]
  in
  let profil =
    Profil.create ~lowpc:0 ~highpc:text_size ~bucket_size:config.hist_bucket_size
  in
  let frames = Array.make (64 * frame_words) 0 in
  (* The startup stub "calls" main: a frame with a sentinel return
     address, which the monitor will classify as spontaneous. *)
  frames.(f_ret) <- -1;
  frames.(f_entry) <- o.entry;
  let m =
    {
      config;
      o;
      text;
      costs = cost_table text;
      entry_fid;
      min_args = facts.min_args;
      room = facts.max_stack;
      pc = o.entry;
      stack = Array.make (max 256 facts.max_stack) 0;
      sp = 0;
      frames;
      depth = 1;
      locals = Array.make 256 0;
      lbase = 0;
      ltop = 0;
      checked = false;
      globals = Array.copy o.global_init;
      arrays = Array.map (fun (_, len) -> Array.make len 0) o.arrays;
      cycles = 0;
      limit =
        (match config.max_cycles with
        | Some n when n < max_int -> n + 1
        | _ -> max_int);
      next_tick = config.cycles_per_tick;
      n_ticks = 0;
      profil;
      monitor = Monitor.create ~text_size ~keying:config.keying;
      monitoring = true;
      mcount_cycles = 0;
      pcounts = Array.make (Array.length o.symbols) 0;
      oracle = (if config.oracle then Some (Oracle.create ()) else None);
      sampler =
        Option.map
          (fun i ->
            Stacksamp.create ?capacity:config.stack_capacity ~interval:i ())
          config.stack_interval;
      icounts = Array.make text_size 0;
      prng = Util.Prng.create config.seed;
      out = Buffer.create 256;
      status = Running;
      result = None;
      fault_countdown = Option.value config.fault_after_instr ~default:max_int;
      epochs =
        (match config.epoch_ticks with
        | None -> None
        | Some n ->
          Some
            {
              ep_every = n;
              ep_base_counts =
                Array.make
                  (Gmon.n_buckets ~lowpc:0 ~highpc:text_size
                     ~bucket_size:config.hist_bucket_size)
                  0;
              ep_base_arcs = [];
              ep_entries = [];
            });
    }
  in
  (match m.oracle with
  | Some orc -> Oracle.on_call orc ~site:(-1) ~callee:o.entry ~now:0
  | None -> ());
  m

let obj m = m.o
let status m = m.status
let cycles m = m.cycles
let ticks m = m.n_ticks
let output m = Buffer.contents m.out
let result m = m.result
let pcounts m = Array.copy m.pcounts

let instruction_counts m =
  if m.config.count_instructions then Some (Array.copy m.icounts) else None
let monitor m = m.monitor
let mcount_cycles m = m.mcount_cycles
let the_oracle m = m.oracle

(* Executions per Instr.group, summed from the per-pc counts. *)
let dispatch m =
  let d = Array.make Instr.n_groups 0 in
  if m.config.metrics then
    Array.iteri
      (fun pc n ->
        let g = Instr.group m.text.(pc) in
        d.(g) <- d.(g) + n)
      m.icounts;
  d

let instructions_executed m =
  if m.config.metrics then Array.fold_left ( + ) 0 m.icounts else 0

let dispatch_counts m =
  Array.to_list (Array.mapi (fun g n -> (Instr.group_name g, n)) (dispatch m))

let observe m reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "vm.instructions" (instructions_executed m);
  g "vm.cycles" m.cycles;
  g "vm.ticks" m.n_ticks;
  g "vm.mcount_cycles" m.mcount_cycles;
  g "vm.stack_depth" m.sp;
  g "vm.frame_depth" m.depth;
  Array.iteri
    (fun grp n -> if n > 0 then g ("vm.dispatch." ^ Instr.group_name grp) n)
    (dispatch m);
  Option.iter (fun s -> Stacksamp.observe s reg) m.sampler;
  Monitor.observe m.monitor reg;
  Profil.observe m.profil reg

let call_stack m =
  Array.init m.depth (fun d -> m.frames.((d * frame_words) + f_entry))

let sampler m = m.sampler

let stack_folded m =
  match m.sampler with Some s -> Stacksamp.folded s | None -> []

let sprof m =
  Option.map
    (fun s ->
      Gmon.Sprof.of_folded ~sample_interval:(Stacksamp.interval s)
        ~ticks_per_second:m.config.ticks_per_second
        ~cycles_per_tick:m.config.cycles_per_tick (Stacksamp.folded s))
    m.sampler

let profiling_on m =
  m.monitoring <- true;
  Profil.enable m.profil

let profiling_off m =
  m.monitoring <- false;
  Profil.disable m.profil

let reset_profile m =
  Profil.reset m.profil;
  Monitor.reset m.monitor;
  Array.fill m.pcounts 0 (Array.length m.pcounts) 0;
  Option.iter Stacksamp.reset m.sampler;
  (* The cumulative counters just went to zero, so the deltas restart
     from zero too; epochs already recorded describe real history and
     are kept. *)
  Option.iter
    (fun es ->
      Array.fill es.ep_base_counts 0 (Array.length es.ep_base_counts) 0;
      es.ep_base_arcs <- [])
    m.epochs

let profile m =
  {
    Gmon.hist = Profil.hist m.profil;
    arcs = Monitor.arcs m.monitor;
    ticks_per_second = m.config.ticks_per_second;
    cycles_per_tick = m.config.cycles_per_tick;
    runs = 1;
  }

(* --- the epoch engine ----------------------------------------------- *)

(* Subtract two sorted cumulative arc lists: [cur] extends [prev]
   (counters only grow between boundaries), so every key of [prev]
   appears in [cur]. Arcs whose count did not move are omitted. *)
let arc_delta ~prev ~cur =
  let rec go prev cur acc =
    match (prev, cur) with
    | _, [] -> List.rev acc
    | [], c :: cs -> go [] cs (if c.Gmon.a_count <> 0 then c :: acc else acc)
    | p :: ps, c :: cs ->
      let k = Gmon.compare_arc c p in
      if k = 0 then begin
        let d = c.Gmon.a_count - p.Gmon.a_count in
        go ps cs (if d <> 0 then { c with Gmon.a_count = d } :: acc else acc)
      end
      else if k < 0 then go (p :: ps) cs (c :: acc)
      else (* a key vanished: counters were reset; start over *) go ps (c :: cs) acc
  in
  go prev cur []

(* The window's delta against the baselines, as an epoch entry ending
   now. Does not advance the baselines. *)
let epoch_delta_of m es ~cur_counts ~cur_arcs =
  {
    Gmon.Epoch.ep_end_cycle = m.cycles;
    ep_end_tick = m.n_ticks;
    ep_counts = Array.mapi (fun i c -> c - es.ep_base_counts.(i)) cur_counts;
    ep_arcs = arc_delta ~prev:es.ep_base_arcs ~cur:cur_arcs;
  }

let epoch_delta m es =
  epoch_delta_of m es
    ~cur_counts:(Profil.hist m.profil).Gmon.h_counts
    ~cur_arcs:(Monitor.arcs m.monitor)

(* The boundary runs on the tick path, so the monitor walk and the
   histogram copy happen exactly once: the same snapshot serves as
   this window's delta input and the next window's baseline. *)
let epoch_boundary m es =
  let cur_counts = (Profil.hist m.profil).Gmon.h_counts in
  let cur_arcs = Monitor.arcs m.monitor in
  let e = epoch_delta_of m es ~cur_counts ~cur_arcs in
  es.ep_entries <- e :: es.ep_entries;
  es.ep_base_counts <- cur_counts;
  es.ep_base_arcs <- cur_arcs

let epochs m =
  Option.map
    (fun es ->
      let trailing =
        let e = epoch_delta m es in
        if
          es.ep_entries = []
          || Array.exists (fun c -> c <> 0) e.Gmon.Epoch.ep_counts
          || e.Gmon.Epoch.ep_arcs <> []
        then [ e ]
        else []
      in
      let h = Profil.hist m.profil in
      {
        Gmon.Epoch.e_lowpc = h.Gmon.h_lowpc;
        e_highpc = h.Gmon.h_highpc;
        e_bucket_size = h.Gmon.h_bucket_size;
        e_ticks_per_second = m.config.ticks_per_second;
        e_cycles_per_tick = m.config.cycles_per_tick;
        e_epochs = List.rev_append es.ep_entries trailing;
      })
    m.epochs

(* --- execution ------------------------------------------------------ *)

exception Fault of string

let fault m reason = m.status <- Faulted { fault_pc = m.pc; reason }

let grown a need =
  let b = Array.make (max need (2 * Array.length a)) 0 in
  Array.blit a 0 b 0 (Array.length a);
  b

let next_interval m =
  let cpt = m.config.cycles_per_tick in
  if m.config.tick_jitter <= 0.0 then cpt
  else begin
    let q = m.config.tick_jitter in
    let delta = Util.Prng.float m.prng (q *. float_of_int cpt) in
    let d = int_of_float (delta -. (q *. float_of_int cpt /. 2.0)) in
    max 1 (cpt + d)
  end

(* Fire any clock ticks the last instruction completed. [at_pc] is the
   address of the instruction during which the tick landed. A stack
   walk's cost moves the clock on: a tick that falls due while a walk
   is being charged is counted and samples the histogram, but starts
   no walk of its own, so a walk that costs a tick or more cannot keep
   the clock from catching up. *)
let service_ticks m ~at_pc =
  let ended = m.cycles in
  while m.cycles >= m.next_tick do
    m.n_ticks <- m.n_ticks + 1;
    Profil.sample m.profil ~pc:at_pc;
    (match m.sampler with
    | Some s when m.next_tick <= ended ->
      m.cycles <- m.cycles + Stacksamp.on_tick s ~stack:(call_stack m)
    | _ -> ());
    (match m.epochs with
    | Some es when m.n_ticks mod es.ep_every = 0 -> epoch_boundary m es
    | _ -> ());
    m.next_tick <- m.next_tick + next_interval m
  done

(* The checks a call keeps at run time come first, in this order:
   depth, then (for [calli]) the target. *)
let check_depth m =
  if m.depth >= m.config.max_depth then raise (Fault "call depth limit exceeded")

let calli_target m target =
  if target < 0 || target >= Array.length m.text then
    raise (Fault (Printf.sprintf "call target %d outside text" target));
  let f = m.entry_fid.(target) in
  if f < 0 then
    raise (Fault (Printf.sprintf "call target %d is not a function entry" target));
  f

(* Move the top [nargs] operands into a fresh locals window and push a
   frame with [m.room] words of operand stack above its base. Reads
   [m.sp] and [m.cycles], so the loop writes them back first. *)
let do_call m ~target ~nargs ~checked ~ret_pc =
  let base = m.sp - nargs and lb = m.ltop in
  if lb + nargs > Array.length m.locals then m.locals <- grown m.locals (lb + nargs);
  let stack = m.stack and locals = m.locals in
  for i = 0 to nargs - 1 do
    Array.unsafe_set locals (lb + i) (Array.unsafe_get stack (base + i))
  done;
  m.sp <- base;
  if base + m.room > Array.length m.stack then m.stack <- grown m.stack (base + m.room);
  let fr = m.depth * frame_words in
  if fr + frame_words > Array.length m.frames then
    m.frames <- grown m.frames (fr + frame_words);
  let frames = m.frames in
  frames.(fr + f_ret) <- ret_pc;
  frames.(fr + f_entry) <- target;
  frames.(fr + f_base) <- base;
  frames.(fr + f_lbase) <- lb;
  frames.(fr + f_checked) <- Bool.to_int checked;
  m.depth <- m.depth + 1;
  m.lbase <- lb;
  m.ltop <- lb + nargs;
  m.checked <- checked;
  (match m.oracle with
  | Some orc -> Oracle.on_call orc ~site:(ret_pc - 1) ~callee:target ~now:m.cycles
  | None -> ());
  m.pc <- target

let do_ret m =
  let value = Array.unsafe_get m.stack (m.sp - 1) in
  let fr = (m.depth - 1) * frame_words in
  (match m.oracle with
  | Some orc -> Oracle.on_return orc ~now:m.cycles
  | None -> ());
  (* Reset the operand stack to the caller's height; balanced code
     leaves nothing extra, but hand-written code may. *)
  let base = m.frames.(fr + f_base) in
  m.ltop <- m.lbase;
  m.depth <- m.depth - 1;
  if m.depth = 0 then begin
    m.sp <- base;
    m.status <- Halted;
    m.result <- Some value
  end
  else begin
    let caller = fr - frame_words in
    m.lbase <- m.frames.(caller + f_lbase);
    m.checked <- m.frames.(caller + f_checked) = 1;
    Array.unsafe_set m.stack base value;
    m.sp <- base + 1;
    m.pc <- m.frames.(fr + f_ret)
  end

(* The monitoring routine's cost for the current frame's arc. *)
let mcount m =
  let fr = (m.depth - 1) * frame_words in
  let cost =
    Monitor.record m.monitor
      ~frompc:(m.frames.(fr + f_ret) - 1)
      ~selfpc:m.frames.(fr + f_entry)
  in
  m.mcount_cycles <- m.mcount_cycles + cost;
  cost

let sync m pc sp cycles =
  m.pc <- pc;
  m.sp <- sp;
  m.cycles <- cycles

(* A fault leaves the record as the instruction left it, with [m.pc]
   at the faulting instruction. *)
let fault_at m pc sp cycles reason =
  sync m pc sp cycles;
  raise (Fault reason)

let slot_fault m pc sp cycles slot =
  fault_at m pc sp cycles (Printf.sprintf "local slot %d out of range" slot)

let index_fault m pc sp cycles a arr i =
  fault_at m pc sp cycles
    (Printf.sprintf "index %d out of bounds for %s[%d]" i
       (fst m.o.Objfile.arrays.(a))
       (Array.length arr))

(* The dispatch loop: each instruction's semantics, written once.
   [pc], [sp] and [cycles] live in the arguments; the record sees them
   only where other code reads them: a call, a return, a tick serviced
   inside [Mcount], a fault, a halt, and the horizon [h]. An instruction
   runs only while it ends before [h], so one comparison stands for the
   next tick, the cycle limit and the stop point; the instruction that
   would reach [h] is left unexecuted for [step_one].

   The unchecked accesses are the ones [Objfile.validate] and [Verify]
   proved of [m.text] at [create]: control stays inside verified code,
   so [pc] indexes the text, the cost table and the counts; a frame's
   operand stack never underflows its base, and every call makes room
   above the base for the deepest stack a frame builds; a frame entered
   by [call], or by [calli] with at least [min_args] arguments, reads
   only slots in its window; global, array and pcount ids, and the
   symbol id behind a [calli] target, index arrays of the size they
   were checked against. *)
let rec loop m pc sp cycles h =
  let c = cycles + Char.code (Bytes.unsafe_get m.costs pc) in
  if c >= h then sync m pc sp cycles
  else begin
    let counts = m.icounts in
    Array.unsafe_set counts pc (Array.unsafe_get counts pc + 1);
    let stack = m.stack in
    match Array.unsafe_get m.text pc with
    | Instr.Nop -> loop m (pc + 1) sp c h
    | Const n ->
      Array.unsafe_set stack sp n;
      loop m (pc + 1) (sp + 1) c h
    | Load slot ->
      if m.checked && slot >= m.ltop - m.lbase then slot_fault m pc sp c slot;
      Array.unsafe_set stack sp (Array.unsafe_get m.locals (m.lbase + slot));
      loop m (pc + 1) (sp + 1) c h
    | Store slot ->
      if m.checked && slot >= m.ltop - m.lbase then slot_fault m pc sp c slot;
      Array.unsafe_set m.locals (m.lbase + slot) (Array.unsafe_get stack (sp - 1));
      loop m (pc + 1) (sp - 1) c h
    | Gload g ->
      Array.unsafe_set stack sp (Array.unsafe_get m.globals g);
      loop m (pc + 1) (sp + 1) c h
    | Gstore g ->
      Array.unsafe_set m.globals g (Array.unsafe_get stack (sp - 1));
      loop m (pc + 1) (sp - 1) c h
    | Aload a ->
      let arr = Array.unsafe_get m.arrays a and i = Array.unsafe_get stack (sp - 1) in
      if i < 0 || i >= Array.length arr then index_fault m pc (sp - 1) c a arr i;
      Array.unsafe_set stack (sp - 1) (Array.unsafe_get arr i);
      loop m (pc + 1) sp c h
    | Astore a ->
      let arr = Array.unsafe_get m.arrays a and i = Array.unsafe_get stack (sp - 2) in
      if i < 0 || i >= Array.length arr then index_fault m pc (sp - 2) c a arr i;
      Array.unsafe_set arr i (Array.unsafe_get stack (sp - 1));
      loop m (pc + 1) (sp - 2) c h
    | Alu op ->
      let b = Array.unsafe_get stack (sp - 1) and a = Array.unsafe_get stack (sp - 2) in
      let v =
        match op with
        | Add -> a + b
        | Sub -> a - b
        | Mul -> a * b
        | Div -> if b = 0 then fault_at m pc (sp - 2) c "division by zero" else a / b
        | Mod -> if b = 0 then fault_at m pc (sp - 2) c "division by zero" else a mod b
        | Lt -> Bool.to_int (a < b)
        | Le -> Bool.to_int (a <= b)
        | Gt -> Bool.to_int (a > b)
        | Ge -> Bool.to_int (a >= b)
        | Eq -> Bool.to_int (a = b)
        | Ne -> Bool.to_int (a <> b)
      in
      Array.unsafe_set stack (sp - 2) v;
      loop m (pc + 1) (sp - 1) c h
    | Unop Neg ->
      Array.unsafe_set stack (sp - 1) (-Array.unsafe_get stack (sp - 1));
      loop m (pc + 1) sp c h
    | Unop Not ->
      Array.unsafe_set stack (sp - 1) (Bool.to_int (Array.unsafe_get stack (sp - 1) = 0));
      loop m (pc + 1) sp c h
    | Jump target -> loop m target sp c h
    | Jumpz target ->
      let next = if Array.unsafe_get stack (sp - 1) = 0 then target else pc + 1 in
      loop m next (sp - 1) c h
    | Call (target, nargs) ->
      sync m pc sp c;
      check_depth m;
      do_call m ~target ~nargs ~checked:false ~ret_pc:(pc + 1);
      loop m target m.sp c h
    | Calli nargs ->
      let target = Array.unsafe_get stack (sp - 1) in
      sync m pc (sp - 1) c;
      check_depth m;
      let f = calli_target m target in
      let checked = nargs < Array.unsafe_get m.min_args f in
      do_call m ~target ~nargs ~checked ~ret_pc:(pc + 1);
      loop m target m.sp c h
    | Funref addr ->
      Array.unsafe_set stack sp addr;
      loop m (pc + 1) (sp + 1) c h
    | Enter extra ->
      let top = m.ltop + extra in
      if top > Array.length m.locals then m.locals <- grown m.locals top;
      Array.fill m.locals m.ltop extra 0;
      m.ltop <- top;
      loop m (pc + 1) sp c h
    | Mcount ->
      let c = if m.monitoring then c + mcount m else c in
      if c >= m.next_tick then begin
        sync m (pc + 1) sp c;
        service_ticks m ~at_pc:pc;
        loop m (pc + 1) sp m.cycles h
      end
      else loop m (pc + 1) sp c h
    | Pcount f ->
      if m.monitoring then
        Array.unsafe_set m.pcounts f (Array.unsafe_get m.pcounts f + 1);
      loop m (pc + 1) sp c h
    | Ret ->
      sync m pc sp c;
      do_ret m;
      if m.status == Running then loop m m.pc m.sp c h
    | Pop -> loop m (pc + 1) (sp - 1) c h
    | Syscall Sys_print ->
      Buffer.add_string m.out (string_of_int (Array.unsafe_get stack (sp - 1)));
      Buffer.add_char m.out '\n';
      loop m (pc + 1) sp c h
    | Syscall Sys_putc ->
      let v = Array.unsafe_get stack (sp - 1) in
      Buffer.add_char m.out (Char.chr (((v mod 256) + 256) mod 256));
      loop m (pc + 1) sp c h
    | Syscall Sys_rand ->
      let bound = Array.unsafe_get stack (sp - 1) in
      Array.unsafe_set stack (sp - 1)
        (if bound <= 0 then 0 else Util.Prng.int m.prng bound);
      loop m (pc + 1) sp c h
    | Syscall Sys_cycles ->
      Array.unsafe_set stack sp c;
      loop m (pc + 1) (sp + 1) c h
    | Halt ->
      sync m pc sp c;
      m.status <- Halted;
      m.result <- Some 0
  end

(* One instruction and the clock ticks it completes: the instruction
   that reaches the horizon, every instruction of [step], and every
   instruction while a fault is being injected. The checks keep their
   order: the injected fault, then the cycle limit, then the loop under
   a horizon one cycle past this instruction, which no following
   instruction can start before (every instruction costs a cycle). *)
let step_one m =
  let pc = m.pc in
  let n = m.fault_countdown in
  if n <= 0 then raise (Fault injected_fault_reason);
  m.fault_countdown <- n - 1;
  let c = m.cycles + Char.code (Bytes.get m.costs pc) in
  if c >= m.limit then begin
    m.icounts.(pc) <- m.icounts.(pc) + 1;
    m.cycles <- c;
    raise (Fault "cycle limit exceeded")
  end;
  loop m pc m.sp m.cycles (c + 1);
  if m.cycles >= m.next_tick then service_ticks m ~at_pc:pc

(* The oracle closes its books after the halting instruction's ticks. *)
let finish m =
  match (m.status, m.oracle) with
  | Halted, Some orc -> Oracle.finish orc ~now:m.cycles
  | _ -> ()

let step m =
  (match m.status with
  | Running ->
    (try step_one m with Fault reason -> fault m reason);
    finish m
  | Halted | Faulted _ -> ());
  m.status

(* [run] and [run_cycles]: one exception handler per call, not per
   instruction. Without an injected fault, the loop runs up to the
   horizon, the nearest of the next tick, the cycle limit and the stop
   point, and [step_one] takes the instruction that reaches it. *)
let run_until m stop_at =
  (match m.status with
  | Running ->
    let fast = Option.is_none m.config.fault_after_instr in
    (try
       while m.status == Running && m.cycles < stop_at do
         if fast then
           loop m m.pc m.sp m.cycles (Int.min stop_at (Int.min m.next_tick m.limit));
         if m.status == Running && m.cycles < stop_at then step_one m
       done
     with Fault reason -> fault m reason);
    finish m
  | Halted | Faulted _ -> ());
  m.status

let run m = run_until m max_int

(* The stop point saturates: a budget past max_int cycles means no stop. *)
let run_cycles m budget =
  run_until m (if budget > max_int - m.cycles then max_int else m.cycles + budget)
