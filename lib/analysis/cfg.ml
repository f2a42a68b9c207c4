module Objfile = Objcode.Objfile
module Instr = Objcode.Instr

type block = {
  bb_start : int;
  bb_len : int;
  bb_succs : int list;
  bb_calls : int list;
}

type func = {
  fn_symbol : Objfile.symbol;
  fn_blocks : block array;
}

type t = {
  cfg_obj : Objfile.t;
  cfg_funcs : func array;
}

(* A block ends at a control transfer (jump, conditional, return,
   halt) or just before the next leader. Calls do not end blocks: they
   fall through, exactly as the paper's call sites sit mid-routine. *)

let build_func (o : Objfile.t) (s : Objfile.symbol) =
  if s.size <= 0 then { fn_symbol = s; fn_blocks = [||] }
  else
  let lo = s.addr and hi = s.addr + s.size in
  let in_func a = a >= lo && a < hi in
  let leader = Array.make (hi - lo) false in
  leader.(0) <- true;
  for pc = lo to hi - 1 do
    match o.text.(pc) with
    | Instr.Jump t | Instr.Jumpz t ->
      if in_func t then leader.(t - lo) <- true;
      if pc + 1 < hi then leader.(pc + 1 - lo) <- true
    | Instr.Ret | Instr.Halt -> if pc + 1 < hi then leader.(pc + 1 - lo) <- true
    | _ -> ()
  done;
  let starts =
    let acc = ref [] in
    for i = hi - lo - 1 downto 0 do
      if leader.(i) then acc := (lo + i) :: !acc
    done;
    !acc
  in
  let blocks =
    List.map
      (fun start ->
        let block_end =
          (* one past the last instruction of this block *)
          let rec go pc =
            if pc >= hi then hi
            else if pc > start && leader.(pc - lo) then pc
            else
              match o.text.(pc) with
              | Instr.Jump _ | Instr.Jumpz _ | Instr.Ret | Instr.Halt -> pc + 1
              | _ -> go (pc + 1)
          in
          go start
        in
        let last = block_end - 1 in
        let succs =
          match o.text.(last) with
          | Instr.Jump t -> if in_func t then [ t ] else []
          | Instr.Jumpz t ->
            let fall = if block_end < hi then [ block_end ] else [] in
            let taken = if in_func t then [ t ] else [] in
            List.sort_uniq compare (taken @ fall)
          | Instr.Ret | Instr.Halt -> []
          | _ -> if block_end < hi then [ block_end ] else []
        in
        let calls = ref [] in
        for pc = block_end - 1 downto start do
          match o.text.(pc) with
          | Instr.Call _ | Instr.Calli _ -> calls := pc :: !calls
          | _ -> ()
        done;
        { bb_start = start; bb_len = block_end - start; bb_succs = succs;
          bb_calls = !calls })
      starts
  in
  { fn_symbol = s; fn_blocks = Array.of_list blocks }

let n_blocks t =
  Array.fold_left (fun n f -> n + Array.length f.fn_blocks) 0 t.cfg_funcs

let n_edges t =
  Array.fold_left
    (fun n f ->
      Array.fold_left (fun n b -> n + List.length b.bb_succs) n f.fn_blocks)
    0 t.cfg_funcs

let build o =
  Obs.Trace.with_span ~cat:"analysis" "cfg-build" @@ fun () ->
  let t =
    {
      cfg_obj = o;
      cfg_funcs = Array.map (build_func o) o.Objfile.symbols;
    }
  in
  let reg = Obs.Metrics.default in
  Obs.Metrics.incr ~by:(Array.length t.cfg_funcs)
    (Obs.Metrics.counter reg "analysis.cfg.functions");
  Obs.Metrics.incr ~by:(n_blocks t) (Obs.Metrics.counter reg "analysis.cfg.blocks");
  Obs.Metrics.incr ~by:(n_edges t) (Obs.Metrics.counter reg "analysis.cfg.edges");
  t

let block_of_addr f addr =
  Array.find_opt
    (fun b -> addr >= b.bb_start && addr < b.bb_start + b.bb_len)
    f.fn_blocks

let block_index f addr =
  (* fn_blocks is address-sorted *)
  let n = Array.length f.fn_blocks in
  let rec go lo hi =
    if lo > hi then None
    else
      let mid = (lo + hi) / 2 in
      let b = f.fn_blocks.(mid) in
      if addr < b.bb_start then go lo (mid - 1)
      else if addr >= b.bb_start + b.bb_len then go (mid + 1) hi
      else Some mid
  in
  go 0 (n - 1)
