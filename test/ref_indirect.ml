(* Indirect-call resolution as it was before the worklist: three
   whole-program passes, locals in one (function id, slot) Hashtbl and
   value sets as sorted lists. A verbatim copy but for the type
   equations and the record's site index, kept only as the reference the indirect parity property
   (test_fuzz.ml) runs beside Analysis.Indirect. Its types are
   Analysis.Indirect's, so the two results compare with (=). *)

module Objfile = Objcode.Objfile
module Instr = Objcode.Instr

type resolution = Analysis.Indirect.resolution = Resolved of int list | Unresolved

type t = Analysis.Indirect.t = {
  i_sites : (int * resolution) list;
  i_by_pc : (int, resolution) Hashtbl.t;
  i_address_taken : int list;
  i_arcs : (int * int) list;
}

(* The abstract value: which function entries can this word hold?
   [Top] means "unknown origin" and over-approximates to the whole
   address-taken set; [Set []] means "certainly not a function value
   (under the Funref-origin assumption)". *)
type value = Top | Set of int list (* sorted, unique *)

let join a b =
  match (a, b) with
  | Top, _ | _, Top -> Top
  | Set xs, Set ys -> Set (List.sort_uniq compare (xs @ ys))

let value_equal a b =
  match (a, b) with
  | Top, Top -> true
  | Set xs, Set ys -> xs = ys
  | _ -> false

let bottom = Set []

type env = {
  o : Objfile.t;
  locals : (int * int, value) Hashtbl.t;  (** (function id, slot) *)
  globals : value array;
  arrays : value array;
  rets : value array;  (** per function id *)
  address_taken : int list;
  mutable changed : bool;
}

let get tbl key = Option.value ~default:bottom (Hashtbl.find_opt tbl key)

let join_tbl env key v =
  let old = get env.locals key in
  let nv = join old v in
  if not (value_equal old nv) then begin
    Hashtbl.replace env.locals key nv;
    env.changed <- true
  end

let join_slot env arr i v =
  if i >= 0 && i < Array.length arr then begin
    let nv = join arr.(i) v in
    if not (value_equal arr.(i) nv) then begin
      arr.(i) <- nv;
      env.changed <- true
    end
  end

(* Entry addresses a value can call, with the Top fallback expanded. *)
let callable env = function
  | Top -> env.address_taken
  | Set xs -> List.filter (fun a -> Objfile.func_id_of_addr env.o a <> None) xs

(* One abstract pass over a function body. The operand stack is a
   known top prefix: popping past it yields Top (the value may have
   any origin). At every intra-function jump target the prefix is
   abandoned — join points merge paths we do not track separately.
   [on_calli] observes each Calli site with the abstract callee. *)
let simulate ?on_calli env (s : Objfile.symbol) fid jump_target =
  let stack = ref [] in
  let pop () =
    match !stack with
    | v :: rest ->
      stack := rest;
      v
    | [] -> Top
  in
  let push v = stack := v :: !stack in
  let pass_args ~target ~nargs args =
    (* args come off the stack last-first: args[i] is slot nargs-1-i *)
    match Objfile.func_id_of_addr env.o target with
    | None -> bottom
    | Some cid ->
      List.iteri (fun i v -> join_tbl env (cid, nargs - 1 - i) v) args;
      env.rets.(cid)
  in
  for pc = s.addr to s.addr + s.size - 1 do
    if jump_target (pc - s.addr) then stack := [];
    match env.o.Objfile.text.(pc) with
    | Instr.Load n -> push (get env.locals (fid, n))
    | Instr.Store n -> join_tbl env (fid, n) (pop ())
    | Instr.Gload g ->
      push (if g >= 0 && g < Array.length env.globals then env.globals.(g) else bottom)
    | Instr.Gstore g -> join_slot env env.globals g (pop ())
    | Instr.Aload a ->
      ignore (pop ());
      push (if a >= 0 && a < Array.length env.arrays then env.arrays.(a) else bottom)
    | Instr.Astore a ->
      let v = pop () in
      ignore (pop ());
      join_slot env env.arrays a v
    | Instr.Jump _ | Instr.Halt -> stack := []
    | Instr.Call (target, nargs) ->
      let args = List.init nargs (fun _ -> pop ()) in
      push (pass_args ~target ~nargs args)
    | Instr.Calli nargs ->
      let callee = pop () in
      (match on_calli with Some f -> f pc callee | None -> ());
      let args = List.init nargs (fun _ -> pop ()) in
      let rets =
        List.fold_left
          (fun acc target -> join acc (pass_args ~target ~nargs args))
          bottom (callable env callee)
      in
      push rets
    | Instr.Funref target -> push (Set [ target ])
    | Instr.Ret ->
      join_slot env env.rets fid (pop ());
      stack := []
    | Instr.Syscall (Instr.Sys_print | Instr.Sys_putc) ->
      let v = pop () in
      push v
    | ins ->
      (* moves no function value: its results are never one *)
      let pops, pushes = Instr.pops_pushes ins in
      for _ = 1 to pops do ignore (pop ()) done;
      for _ = 1 to pushes do push bottom done
  done

let jump_targets (o : Objfile.t) (s : Objfile.symbol) =
  let marks = Array.make (max s.size 1) false in
  for pc = s.addr to s.addr + s.size - 1 do
    match o.text.(pc) with
    | Instr.Jump t | Instr.Jumpz t ->
      if t >= s.addr && t < s.addr + s.size then marks.(t - s.addr) <- true
    | _ -> ()
  done;
  fun off -> off >= 0 && off < Array.length marks && marks.(off)

let analyze (o : Objfile.t) =
  Obs.Trace.with_span ~cat:"analysis" "indirect-resolve" @@ fun () ->
  let address_taken =
    let acc = ref [] in
    Array.iter
      (fun ins ->
        match (ins : Instr.t) with
        | Instr.Funref target when Objfile.func_id_of_addr o target <> None ->
          acc := target :: !acc
        | _ -> ())
      o.Objfile.text;
    List.sort_uniq compare !acc
  in
  let env =
    {
      o;
      locals = Hashtbl.create 64;
      globals = Array.make (Array.length o.Objfile.globals) bottom;
      arrays = Array.make (Array.length o.Objfile.arrays) bottom;
      rets = Array.make (Array.length o.Objfile.symbols) bottom;
      address_taken;
      changed = true;
    }
  in
  let per_func =
    Array.mapi (fun fid s -> (fid, s, jump_targets o s)) o.Objfile.symbols
  in
  let rounds = ref 0 in
  while env.changed && !rounds < 1000 do
    env.changed <- false;
    incr rounds;
    Array.iter (fun (fid, s, jt) -> simulate env s fid jt) per_func
  done;
  (* One more pass over the converged environment to read each site. *)
  let acc = ref [] in
  let on_calli pc callee =
    let r =
      match callee with
      | Top -> Unresolved
      | Set xs ->
        Resolved (List.filter (fun a -> Objfile.func_id_of_addr o a <> None) xs)
    in
    acc := (pc, r) :: !acc
  in
  Array.iter (fun (fid, s, jt) -> simulate ~on_calli env s fid jt) per_func;
  let sites = List.sort (fun (a, _) (b, _) -> compare a b) !acc in
  let arcs =
    let n = Array.length o.Objfile.symbols in
    let seen = Hashtbl.create 32 in
    List.concat_map
      (fun (site, r) ->
        match Objfile.symbol_index o site with
        | None -> []
        | Some caller ->
          let targets =
            match r with Resolved ts -> ts | Unresolved -> address_taken
          in
          List.filter_map
            (fun tgt ->
              match Objfile.func_id_of_addr o tgt with
              | Some callee ->
                let key = (caller * n) + callee in
                if Hashtbl.mem seen key then None
                else begin
                  Hashtbl.replace seen key ();
                  Some (caller, callee)
                end
              | None -> None)
            targets)
      sites
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
    i_address_taken = address_taken;
    i_arcs = arcs;
  }
