module Objfile = Objcode.Objfile
module Instr = Objcode.Instr

type resolution = Resolved of int list | Unresolved

type t = {
  i_sites : (int * resolution) list;
  i_by_pc : (int, resolution) Hashtbl.t;
  i_address_taken : int list;
  i_arcs : (int * int) list;
}

(* The abstract value: which address-taken entries can this word hold?
   A value is an id, so the operand stack and every cell are plain int
   arrays. [bottom] is the empty set ("certainly not a function
   value"); [top] means "unknown origin": it over-approximates to the
   whole address-taken set but stays distinct from it, so a site whose
   callee is [top] is [Unresolved]. Every other id names a bitset in
   [sets]: bit k stands for the k-th entry of the address-taken list,
   [width] bits to a word, every set the same number of words. Id
   [2 + k] is the set of bit k alone. A [Funref] to an address that is
   no entry adds no bit: no call can enter it. Ids are never merged,
   so two ids may name equal sets; joins compare words. *)
let bottom = 0

let top = 1

let width = Sys.int_size

let subset x y =
  let rec go i = i < 0 || (x.(i) land lnot y.(i) = 0 && go (i - 1)) in
  go (Array.length x - 1)

(* The whole analysis. Locals are dense per routine, one cell per slot
   up to the highest slot the routine loads; a slot it never loads
   cannot be observed, so writes to it are dropped. The readers of a
   cell are the routines to visit again when it grows. A routine's own
   slot that grows while the routine is being visited needs another
   visit only if this visit has already loaded it: a later [Load]
   reads the new value. *)
type state = {
  text : Instr.t array;
  symbols : Objfile.symbol array;
  entries : Objfile.entries;
  at_fid : int array;  (** bit k -> the symbol id of the k-th address-taken entry *)
  at_bit : int array;  (** symbol id -> its bit, -1 when its address is not taken *)
  sets : int array Util.Growvec.t;  (** value id -> its words *)
  locals : int array array;
  loaded : int array array;
      (** per routine and slot, the number of the last visit that loaded it *)
  mutable current : int;  (** the routine being visited *)
  mutable visit_no : int;
  globals : int array;
  arrays : int array;
  rets : int array;
  through : int array;
      (** per routine, the join of the callees of its [Calli] sites *)
  global_readers : int list array;  (** routines that [Gload] each global *)
  array_readers : int list array;  (** routines that [Aload] each array *)
  callers : int list array;  (** routines that [Call] each routine *)
  calli_routines : int list;  (** routines with a [Calli] site *)
  jump_start : int array;
      (** routine r's jump targets inside its own range are
          [jumps.(jump_start.(r)) .. jumps.(jump_start.(r+1) - 1)],
          ascending *)
  jumps : int array;
  site_start : int array;  (** the same slicing of [site_pc] and [site_callee] *)
  site_pc : int array;
  site_callee : int array;  (** each [Calli]'s callee at its routine's last visit *)
  stack : int array;
      (** the known top of the operand stack, [stack.(sp-1)] topmost *)
  mutable sp : int;
  queue : int array;  (** a ring of routine ids, each at most once *)
  queued : Bytes.t;
  mutable q_head : int;
  mutable q_len : int;
}

let mem st k v =
  v = top
  || v <> bottom
     && (Util.Growvec.get st.sets v).(k / width) land (1 lsl (k mod width)) <> 0

(* Returns [a] itself when [b] adds nothing to it, so a caller sees
   growth as a changed id, and makes a new set only when neither side
   already holds the union. *)
let join st a b =
  if a = b || b = bottom || a = top then a
  else if a = bottom || b = top then b
  else begin
    let x = Util.Growvec.get st.sets a and y = Util.Growvec.get st.sets b in
    if subset y x then a
    else if subset x y then b
    else begin
      Util.Growvec.push st.sets (Array.map2 ( lor ) x y);
      Util.Growvec.length st.sets - 1
    end
  end

let enqueue st r =
  if Bytes.get st.queued r = '\000' then begin
    Bytes.set st.queued r '\001';
    st.queue.((st.q_head + st.q_len) mod Array.length st.queue) <- r;
    st.q_len <- st.q_len + 1
  end

let dequeue st =
  let r = st.queue.(st.q_head) in
  st.q_head <- (st.q_head + 1) mod Array.length st.queue;
  st.q_len <- st.q_len - 1;
  Bytes.set st.queued r '\000';
  r

let join_local st fid slot v =
  let cells = st.locals.(fid) in
  if slot >= 0 && slot < Array.length cells then begin
    let old = cells.(slot) in
    let nv = join st old v in
    if nv <> old then begin
      cells.(slot) <- nv;
      if fid <> st.current || st.loaded.(fid).(slot) = st.visit_no then enqueue st fid
    end
  end

let join_cell st cells readers i v =
  if i >= 0 && i < Array.length cells then begin
    let old = cells.(i) in
    let nv = join st old v in
    if nv <> old then begin
      cells.(i) <- nv;
      List.iter (enqueue st) readers.(i)
    end
  end

let join_ret st fid v =
  let old = st.rets.(fid) in
  let nv = join st old v in
  if nv <> old then begin
    st.rets.(fid) <- nv;
    List.iter (enqueue st) st.callers.(fid);
    let k = st.at_bit.(fid) in
    if k >= 0 then
      List.iter (fun r -> if mem st k st.through.(r) then enqueue st r) st.calli_routines
  end

(* The operand stack model is a known top prefix: popping past it
   yields [top] (the value may have any origin). *)
let pop st =
  if st.sp = 0 then top
  else begin
    st.sp <- st.sp - 1;
    st.stack.(st.sp)
  end

let push st v =
  st.stack.(st.sp) <- v;
  st.sp <- st.sp + 1

(* A call's [nargs] arguments: the i-th popped is argument slot
   [nargs-1-i], [top] past the known prefix. Joins them into the
   callee's slots, drops them from the stack, and returns the callee's
   return value. *)
let pass_args st ~callee ~nargs =
  let known = Int.min nargs st.sp in
  let cells = st.locals.(callee) in
  for slot = 0 to Int.min nargs (Array.length cells) - 1 do
    let i = nargs - 1 - slot in
    join_local st callee slot (if i < known then st.stack.(st.sp - 1 - i) else top)
  done;
  st.rets.(callee)

(* One abstract pass over routine [r]'s body. At every jump target
   inside the routine the known prefix is abandoned: join points merge
   paths that are not tracked separately. *)
let visit st r =
  let s = st.symbols.(r) in
  let jump = ref st.jump_start.(r) and jump_end = st.jump_start.(r + 1) in
  let site = ref st.site_start.(r) in
  let locals = st.locals.(r) and loaded = st.loaded.(r) in
  st.current <- r;
  st.visit_no <- st.visit_no + 1;
  st.sp <- 0;
  for pc = s.addr to s.addr + s.size - 1 do
    if !jump < jump_end && st.jumps.(!jump) = pc then begin
      st.sp <- 0;
      incr jump
    end;
    match st.text.(pc) with
    | Instr.Load n ->
      if n >= 0 && n < Array.length locals then begin
        loaded.(n) <- st.visit_no;
        push st locals.(n)
      end
      else push st bottom
    | Instr.Store n -> join_local st r n (pop st)
    | Instr.Gload g ->
      push st (if g >= 0 && g < Array.length st.globals then st.globals.(g) else bottom)
    | Instr.Gstore g -> join_cell st st.globals st.global_readers g (pop st)
    | Instr.Aload a ->
      ignore (pop st);
      push st (if a >= 0 && a < Array.length st.arrays then st.arrays.(a) else bottom)
    | Instr.Astore a ->
      let v = pop st in
      ignore (pop st);
      join_cell st st.arrays st.array_readers a v
    | Instr.Jump _ | Instr.Halt -> st.sp <- 0
    | Instr.Call (target, nargs) ->
      let callee = Objfile.entry_id st.entries target in
      let ret = if callee >= 0 then pass_args st ~callee ~nargs else bottom in
      st.sp <- st.sp - Int.min nargs st.sp;
      push st ret
    | Instr.Calli nargs ->
      let callee = pop st in
      st.site_callee.(!site) <- callee;
      incr site;
      st.through.(r) <- join st st.through.(r) callee;
      let ret = ref bottom in
      for k = 0 to Array.length st.at_fid - 1 do
        if mem st k callee then
          ret := join st !ret (pass_args st ~callee:st.at_fid.(k) ~nargs)
      done;
      st.sp <- st.sp - Int.min nargs st.sp;
      push st !ret
    | Instr.Funref target ->
      let fid = Objfile.entry_id st.entries target in
      push st (if fid >= 0 then 2 + st.at_bit.(fid) else bottom)
    | Instr.Ret ->
      join_ret st r (pop st);
      st.sp <- 0
    | Instr.Syscall (Instr.Sys_print | Instr.Sys_putc) ->
      (* passes its operand through *)
      if st.sp = 0 then push st top
    | ins ->
      (* moves no function value: its results are never one *)
      let pops, pushes = Instr.pops_pushes ins in
      st.sp <- st.sp - Int.min pops st.sp;
      for _ = 1 to pushes do push st bottom done
  done

(* One scan of the text sizes every table: each routine's locals, jump
   targets and sites, the readers of each cell, and the address-taken
   list (whose Funrefs may also sit in a symbol-table gap). *)
let prepare (o : Objfile.t) =
  let text = o.Objfile.text and symbols = o.Objfile.symbols in
  let entries = Objfile.entries o in
  let n = Array.length symbols in
  let global_readers = Array.make (Array.length o.Objfile.globals) [] in
  let array_readers = Array.make (Array.length o.Objfile.arrays) [] in
  let callers = Array.make n [] in
  let add_reader readers i (r : int) =
    if i >= 0 && i < Array.length readers then
      match readers.(i) with
      | r' :: _ when r' = r -> ()
      | rs -> readers.(i) <- r :: rs
  in
  let taken = Bytes.make n '\000' in
  let take target =
    let fid = Objfile.entry_id entries target in
    if fid >= 0 then Bytes.set taken fid '\001'
  in
  let funref pc = match text.(pc) with Instr.Funref target -> take target | _ -> () in
  let max_slot = Array.make n (-1) in
  let jumps = Util.Growvec.create ~dummy:0 () and jump_start = Array.make (n + 1) 0 in
  let site_pc = Util.Growvec.create ~dummy:0 () and site_start = Array.make (n + 1) 0 in
  let calli_routines = ref [] and longest = ref 0 in
  let scanned = ref 0 in
  Array.iteri
    (fun r (s : Objfile.symbol) ->
      for pc = !scanned to s.addr - 1 do funref pc done;
      let targets = ref [] in
      for pc = s.addr to s.addr + s.size - 1 do
        match text.(pc) with
        | Instr.Load k -> if k > max_slot.(r) then max_slot.(r) <- k
        | Instr.Gload g -> add_reader global_readers g r
        | Instr.Aload a -> add_reader array_readers a r
        | Instr.Jump t | Instr.Jumpz t ->
          if t >= s.addr && t < s.addr + s.size then targets := t :: !targets
        | Instr.Call (target, _) -> add_reader callers (Objfile.entry_id entries target) r
        | Instr.Calli _ ->
          Util.Growvec.push site_pc pc;
          (match !calli_routines with
          | r' :: _ when r' = r -> ()
          | rs -> calli_routines := r :: rs)
        | Instr.Funref target -> take target
        | _ -> ()
      done;
      List.iter (Util.Growvec.push jumps) (List.sort_uniq Int.compare !targets);
      jump_start.(r + 1) <- Util.Growvec.length jumps;
      site_start.(r + 1) <- Util.Growvec.length site_pc;
      longest := Int.max !longest s.size;
      scanned := Int.max !scanned (s.addr + s.size))
    symbols;
  for pc = !scanned to Array.length text - 1 do funref pc done;
  let at_fid =
    Array.of_seq (Seq.filter (fun f -> Bytes.get taken f = '\001') (Seq.init n Fun.id))
  in
  let at_bit = Array.make n (-1) in
  Array.iteri (fun k f -> at_bit.(f) <- k) at_fid;
  let words = (Array.length at_fid + width - 1) / width in
  let sets = Util.Growvec.create ~dummy:[||] () in
  (* [bottom] and [top] are never looked up; the singletons follow *)
  Util.Growvec.push sets [||];
  Util.Growvec.push sets [||];
  Array.iteri
    (fun k _ ->
      let w = Array.make words 0 in
      w.(k / width) <- 1 lsl (k mod width);
      Util.Growvec.push sets w)
    at_fid;
  let site_pc = Util.Growvec.to_array site_pc in
  {
    text;
    symbols;
    entries;
    at_fid;
    at_bit;
    sets;
    locals = Array.map (fun m -> Array.make (m + 1) bottom) max_slot;
    loaded = Array.map (fun m -> Array.make (m + 1) 0) max_slot;
    current = -1;
    visit_no = 0;
    globals = Array.make (Array.length o.Objfile.globals) bottom;
    arrays = Array.make (Array.length o.Objfile.arrays) bottom;
    rets = Array.make n bottom;
    through = Array.make n bottom;
    global_readers;
    array_readers;
    callers;
    calli_routines = List.rev !calli_routines;
    jump_start;
    jumps = Util.Growvec.to_array jumps;
    site_start;
    site_pc;
    site_callee = Array.make (Array.length site_pc) bottom;
    stack = Array.make (!longest + 1) bottom;
    sp = 0;
    queue = Array.make (max n 1) 0;
    queued = Bytes.make n '\000';
    q_head = 0;
    q_len = 0;
  }

(* The first visit of each routine is a full pass in symbol order;
   after it, a routine is visited again only when a cell it reads
   grows: one of its own slots (a caller's argument or its own store),
   a global or array it loads, or the return value of a routine it
   calls directly or through a [Calli]. Sets only grow and each has
   finitely many sizes, so the queue empties, and each site's callee
   is read on its routine's last visit, against the fixpoint. *)
let analyze (o : Objfile.t) =
  Obs.Trace.with_span ~cat:"analysis" "indirect-resolve" @@ fun () ->
  let st = prepare o in
  let n = Array.length st.symbols in
  for r = 0 to n - 1 do enqueue st r done;
  while st.q_len > 0 do visit st (dequeue st) done;
  let at_addr = Array.map (fun f -> st.symbols.(f).Objfile.addr) st.at_fid in
  let n_at = Array.length at_addr in
  let bits v = List.filter (fun k -> mem st k v) (List.init n_at Fun.id) in
  let sites =
    List.init (Array.length st.site_pc) (fun i ->
        ( st.site_pc.(i),
          match st.site_callee.(i) with
          | v when v = top -> Unresolved
          | v -> Resolved (List.map (fun k -> at_addr.(k)) (bits v)) ))
  in
  let arcs =
    let last = Array.make n (-1) and acc = ref [] in
    for caller = 0 to n - 1 do
      for i = st.site_start.(caller) to st.site_start.(caller + 1) - 1 do
        List.iter
          (fun k ->
            let callee = st.at_fid.(k) in
            if last.(callee) <> caller then begin
              last.(callee) <- caller;
              acc := (caller, callee) :: !acc
            end)
          (bits st.site_callee.(i))
      done
    done;
    List.rev !acc
  in
  let reg = Obs.Metrics.default in
  let n_unresolved =
    List.length (List.filter (fun (_, r) -> r = Unresolved) sites)
  in
  Obs.Metrics.incr ~by:(List.length sites)
    (Obs.Metrics.counter reg "analysis.indirect.sites");
  Obs.Metrics.incr ~by:(List.length sites - n_unresolved)
    (Obs.Metrics.counter reg "analysis.indirect.resolved");
  Obs.Metrics.incr ~by:n_unresolved
    (Obs.Metrics.counter reg "analysis.indirect.unresolved");
  Obs.Metrics.incr ~by:(List.length arcs)
    (Obs.Metrics.counter reg "analysis.indirect.arcs");
  {
    i_sites = sites;
    i_by_pc = Hashtbl.of_seq (List.to_seq sites);
    i_address_taken = Array.to_list at_addr;
    i_arcs = arcs;
  }

let resolution t ~site = Hashtbl.find_opt t.i_by_pc site

let targets t ~site =
  match resolution t ~site with
  | Some (Resolved ts) -> ts
  | Some Unresolved -> t.i_address_taken
  | None -> []

let callees (o : Objfile.t) t ~pc =
  match o.text.(pc) with
  | Instr.Call (target, _) -> Option.to_list (Objfile.func_id_of_addr o target)
  | Instr.Calli _ ->
    List.filter_map (Objfile.func_id_of_addr o) (targets t ~site:pc)
  | _ -> []
