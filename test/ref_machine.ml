(* The VM as it was before load-time verification: a verbatim copy
   that checks every operand on every instruction, kept only as the
   reference interpreter the parity property (test_fuzz.ml) runs
   beside Vm.Machine. Its config type is Vm.Machine's, and it records
   arcs through the reference monitor. *)

module Monitor = Ref_monitor
module Profil = Vm.Profil
module Oracle = Vm.Oracle
module Stacksamp = Vm.Stacksamp
module Instr = Objcode.Instr
module Objfile = Objcode.Objfile

type config = Vm.Machine.config = {
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

type fault = Vm.Machine.fault = { fault_pc : int; reason : string }

let pp_fault ppf f = Format.fprintf ppf "fault at pc %d: %s" f.fault_pc f.reason

type status = Vm.Machine.status = Running | Halted | Faulted of fault

type frame = {
  ret_pc : int;
  func_entry : int;
  base : int; (* operand stack height when the frame was pushed *)
  mutable locals : int array;
}

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
  mutable pc : int;
  stack : int Util.Growvec.t;
  frames : frame Util.Growvec.t;
  globals : int array;
  arrays : int array array;
  mutable cycles : int;
  mutable next_tick : int;
  mutable n_ticks : int;
  profil : Profil.t;
  monitor : Monitor.t;
  mutable monitoring : bool;
  mutable mcount_cycles : int;
  pcounts : int array;
  oracle : Oracle.t option;
  sampler : Stacksamp.t option;
  icounts : int array option;
  mutable n_instr : int;
  dispatch : int array; (* per Instr.group execution counts *)
  groups : int array;
      (* Instr.group of every text word, precomputed at creation so
         the metrics-on hot path is two array bumps, not a re-match of
         the constructor per step. Empty when metrics are off. *)
  prng : Util.Prng.t;
  out : Buffer.t;
  mutable status : status;
  mutable result : int option;
  mutable fault_countdown : int option;
      (* decremented per instruction independently of the metrics
         counters, so injection works with metrics off *)
  epochs : epoch_state option;
}

let dummy_frame = { ret_pc = -1; func_entry = 0; base = 0; locals = [||] }

let create ?(config = default_config) o =
  let text_size = Array.length o.Objfile.text in
  if text_size = 0 then invalid_arg "Machine.create: empty text segment";
  let profil =
    Profil.create ~lowpc:0 ~highpc:text_size ~bucket_size:config.hist_bucket_size
  in
  let m =
    {
      config;
      o;
      pc = o.entry;
      stack = Util.Growvec.create ~capacity:256 ~dummy:0 ();
      frames = Util.Growvec.create ~capacity:64 ~dummy:dummy_frame ();
      globals = Array.copy o.global_init;
      arrays = Array.map (fun (_, len) -> Array.make len 0) o.arrays;
      cycles = 0;
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
      icounts =
        (if config.count_instructions then Some (Array.make text_size 0) else None);
      n_instr = 0;
      dispatch = Array.make Instr.n_groups 0;
      groups =
        (if config.metrics then Array.map Instr.group o.Objfile.text else [||]);
      prng = Util.Prng.create config.seed;
      out = Buffer.create 256;
      status = Running;
      result = None;
      fault_countdown = config.fault_after_instr;
      epochs =
        (match config.epoch_ticks with
        | None -> None
        | Some n ->
          if n <= 0 then invalid_arg "Machine.create: epoch_ticks must be positive";
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
  (* The startup stub "calls" main: a frame with a sentinel return
     address, which the monitor will classify as spontaneous. *)
  Util.Growvec.push m.frames
    { ret_pc = -1; func_entry = o.entry; base = 0; locals = [||] };
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

let instruction_counts m = Option.map Array.copy m.icounts
let monitor m = m.monitor
let mcount_cycles m = m.mcount_cycles
let the_oracle m = m.oracle

let instructions_executed m = m.n_instr

let dispatch_counts m =
  Array.to_list (Array.mapi (fun g n -> (Instr.group_name g, n)) m.dispatch)

let observe m reg =
  let module M = Obs.Metrics in
  let g name v = M.set (M.gauge reg name) v in
  g "vm.instructions" m.n_instr;
  g "vm.cycles" m.cycles;
  g "vm.ticks" m.n_ticks;
  g "vm.mcount_cycles" m.mcount_cycles;
  g "vm.stack_depth" (Util.Growvec.length m.stack);
  g "vm.frame_depth" (Util.Growvec.length m.frames);
  Array.iteri
    (fun grp n -> if n > 0 then g ("vm.dispatch." ^ Instr.group_name grp) n)
    m.dispatch;
  Option.iter (fun s -> Stacksamp.observe s reg) m.sampler;
  Monitor.observe m.monitor reg;
  Profil.observe m.profil reg

let call_stack m =
  Array.init (Util.Growvec.length m.frames) (fun i ->
      (Util.Growvec.get m.frames i).func_entry)

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
      let k =
        compare (c.Gmon.a_from, c.Gmon.a_self) (p.Gmon.a_from, p.Gmon.a_self)
      in
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

let fault m reason =
  let f = { fault_pc = m.pc; reason } in
  m.status <- Faulted f;
  Faulted f

let push m v = Util.Growvec.push m.stack v

let pop m =
  match Util.Growvec.pop m.stack with
  | Some v -> v
  | None -> raise (Fault "operand stack underflow")

let cur_frame m =
  match Util.Growvec.top m.frames with
  | Some f -> f
  | None -> raise (Fault "no active frame")

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

let do_call m ~target ~nargs ~ret_pc =
  if Util.Growvec.length m.frames >= m.config.max_depth then
    raise (Fault "call depth limit exceeded");
  if target < 0 || target >= Array.length m.o.Objfile.text then
    raise (Fault (Printf.sprintf "call target %d outside text" target));
  (match Objfile.func_id_of_addr m.o target with
  | Some _ -> ()
  | None -> raise (Fault (Printf.sprintf "call target %d is not a function entry" target)));
  let locals = Array.make nargs 0 in
  for i = nargs - 1 downto 0 do
    locals.(i) <- pop m
  done;
  Util.Growvec.push m.frames
    { ret_pc; func_entry = target; base = Util.Growvec.length m.stack; locals };
  (match m.oracle with
  | Some orc -> Oracle.on_call orc ~site:(ret_pc - 1) ~callee:target ~now:m.cycles
  | None -> ());
  m.pc <- target

let do_ret m =
  let value = pop m in
  match Util.Growvec.pop m.frames with
  | None -> raise (Fault "return with no active frame")
  | Some fr ->
    (match m.oracle with
    | Some orc -> Oracle.on_return orc ~now:m.cycles
    | None -> ());
    (* Reset the operand stack to the caller's height; balanced code
       leaves nothing extra, but hand-written code may. *)
    while Util.Growvec.length m.stack > fr.base do
      ignore (pop m)
    done;
    if Util.Growvec.is_empty m.frames then begin
      m.status <- Halted;
      m.result <- Some value
    end
    else begin
      push m value;
      m.pc <- fr.ret_pc
    end

let alu_apply op a b =
  match (op : Instr.alu) with
  | Add -> a + b
  | Sub -> a - b
  | Mul -> a * b
  | Div -> if b = 0 then raise (Fault "division by zero") else a / b
  | Mod -> if b = 0 then raise (Fault "division by zero") else a mod b
  | Lt -> if a < b then 1 else 0
  | Le -> if a <= b then 1 else 0
  | Gt -> if a > b then 1 else 0
  | Ge -> if a >= b then 1 else 0
  | Eq -> if a = b then 1 else 0
  | Ne -> if a <> b then 1 else 0

let step m =
  match m.status with
  | (Halted | Faulted _) as s -> s
  | Running -> (
    let text = m.o.Objfile.text in
    if m.pc < 0 || m.pc >= Array.length text then fault m "pc outside text segment"
    else begin
      let at_pc = m.pc in
      let ins = text.(m.pc) in
      try
        (match m.fault_countdown with
        | Some n when n <= 0 -> raise (Fault injected_fault_reason)
        | Some n -> m.fault_countdown <- Some (n - 1)
        | None -> ());
        (match m.icounts with
        | Some counts -> counts.(at_pc) <- counts.(at_pc) + 1
        | None -> ());
        if m.config.metrics then begin
          m.n_instr <- m.n_instr + 1;
          let grp = m.groups.(at_pc) in
          m.dispatch.(grp) <- m.dispatch.(grp) + 1
        end;
        m.cycles <- m.cycles + Instr.cost ins;
        (match m.config.max_cycles with
        | Some limit when m.cycles > limit -> raise (Fault "cycle limit exceeded")
        | _ -> ());
        (match ins with
        | Instr.Nop -> m.pc <- m.pc + 1
        | Instr.Const n ->
          push m n;
          m.pc <- m.pc + 1
        | Instr.Load slot ->
          let fr = cur_frame m in
          if slot < 0 || slot >= Array.length fr.locals then
            raise (Fault (Printf.sprintf "local slot %d out of range" slot));
          push m fr.locals.(slot);
          m.pc <- m.pc + 1
        | Instr.Store slot ->
          let fr = cur_frame m in
          if slot < 0 || slot >= Array.length fr.locals then
            raise (Fault (Printf.sprintf "local slot %d out of range" slot));
          fr.locals.(slot) <- pop m;
          m.pc <- m.pc + 1
        | Instr.Gload g ->
          if g < 0 || g >= Array.length m.globals then
            raise (Fault (Printf.sprintf "global %d out of range" g));
          push m m.globals.(g);
          m.pc <- m.pc + 1
        | Instr.Gstore g ->
          if g < 0 || g >= Array.length m.globals then
            raise (Fault (Printf.sprintf "global %d out of range" g));
          m.globals.(g) <- pop m;
          m.pc <- m.pc + 1
        | Instr.Aload a ->
          if a < 0 || a >= Array.length m.arrays then
            raise (Fault (Printf.sprintf "array %d out of range" a));
          let arr = m.arrays.(a) in
          let i = pop m in
          if i < 0 || i >= Array.length arr then
            raise
              (Fault
                 (Printf.sprintf "index %d out of bounds for %s[%d]" i
                    (fst m.o.Objfile.arrays.(a))
                    (Array.length arr)));
          push m arr.(i);
          m.pc <- m.pc + 1
        | Instr.Astore a ->
          if a < 0 || a >= Array.length m.arrays then
            raise (Fault (Printf.sprintf "array %d out of range" a));
          let arr = m.arrays.(a) in
          let v = pop m in
          let i = pop m in
          if i < 0 || i >= Array.length arr then
            raise
              (Fault
                 (Printf.sprintf "index %d out of bounds for %s[%d]" i
                    (fst m.o.Objfile.arrays.(a))
                    (Array.length arr)));
          arr.(i) <- v;
          m.pc <- m.pc + 1
        | Instr.Alu op ->
          let b = pop m in
          let a = pop m in
          push m (alu_apply op a b);
          m.pc <- m.pc + 1
        | Instr.Unop Neg ->
          push m (-pop m);
          m.pc <- m.pc + 1
        | Instr.Unop Not ->
          push m (if pop m = 0 then 1 else 0);
          m.pc <- m.pc + 1
        | Instr.Jump target -> m.pc <- target
        | Instr.Jumpz target -> if pop m = 0 then m.pc <- target else m.pc <- m.pc + 1
        | Instr.Call (target, nargs) -> do_call m ~target ~nargs ~ret_pc:(m.pc + 1)
        | Instr.Calli nargs ->
          let target = pop m in
          do_call m ~target ~nargs ~ret_pc:(m.pc + 1)
        | Instr.Funref addr ->
          push m addr;
          m.pc <- m.pc + 1
        | Instr.Enter extra ->
          let fr = cur_frame m in
          if extra < 0 then raise (Fault "negative local count");
          if extra > 0 then begin
            let bigger = Array.make (Array.length fr.locals + extra) 0 in
            Array.blit fr.locals 0 bigger 0 (Array.length fr.locals);
            fr.locals <- bigger
          end;
          m.pc <- m.pc + 1
        | Instr.Mcount ->
          if m.monitoring then begin
            let fr = cur_frame m in
            let frompc = fr.ret_pc - 1 in
            let cost = Monitor.record m.monitor ~frompc ~selfpc:fr.func_entry in
            m.cycles <- m.cycles + cost;
            m.mcount_cycles <- m.mcount_cycles + cost
          end;
          m.pc <- m.pc + 1
        | Instr.Pcount f ->
          if m.monitoring then begin
            if f < 0 || f >= Array.length m.pcounts then
              raise (Fault (Printf.sprintf "pcount id %d out of range" f));
            m.pcounts.(f) <- m.pcounts.(f) + 1
          end;
          m.pc <- m.pc + 1
        | Instr.Ret -> do_ret m
        | Instr.Pop ->
          ignore (pop m);
          m.pc <- m.pc + 1
        | Instr.Syscall sc ->
          (match sc with
          | Instr.Sys_print ->
            let v = pop m in
            Buffer.add_string m.out (string_of_int v);
            Buffer.add_char m.out '\n';
            push m v
          | Instr.Sys_putc ->
            let v = pop m in
            Buffer.add_char m.out (Char.chr (((v mod 256) + 256) mod 256));
            push m v
          | Instr.Sys_rand ->
            let bound = pop m in
            push m (if bound <= 0 then 0 else Util.Prng.int m.prng bound)
          | Instr.Sys_cycles -> push m m.cycles);
          m.pc <- m.pc + 1
        | Instr.Halt ->
          m.status <- Halted;
          m.result <- Some 0);
        service_ticks m ~at_pc;
        (match (m.status, m.oracle) with
        | Halted, Some orc -> Oracle.finish orc ~now:m.cycles
        | _ -> ());
        m.status
      with Fault reason ->
        m.pc <- at_pc;
        fault m reason
    end)

let run m =
  let rec go () = match step m with Running -> go () | s -> s in
  go ()

let run_cycles m budget =
  let stop_at = m.cycles + budget in
  let rec go () =
    if m.cycles >= stop_at then m.status
    else match step m with Running -> go () | s -> s
  in
  go ()
