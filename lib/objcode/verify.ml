type t = { max_stack : int; min_args : int array }

exception Reject of string

let reject o pc fmt =
  Printf.ksprintf (fun s -> raise (Reject (Objfile.location o pc ^ ": " ^ s))) fmt

(* One function, from its entry with an empty operand stack and no
   [enter]ed locals. Every reachable pc gets one (height, enter total)
   state; a second path must agree with it. [args] is the fewest
   arguments any direct entry passes, when there is one: then every
   local slot is checked against it. Returns the deepest operand stack
   and the fewest arguments that keep every slot access in range. *)
let verify_function o (s : Objfile.symbol) ~args =
  let height = Array.make s.size (-1) and entered = Array.make s.size 0 in
  (* the worklist: each pc enters it once, when first reached *)
  let work = Array.make s.size 0 and n_work = ref 1 in
  work.(0) <- s.addr;
  height.(0) <- 0;
  let deepest = ref 0 and need = ref 0 in
  let visit ~from pc h e =
    if pc < s.addr || pc >= s.addr + s.size then
      if pc = from + 1 then reject o from "control falls through the end of the function"
      else reject o from "jump to %d leaves the function" pc
    else
      let i = pc - s.addr in
      if height.(i) < 0 then begin
        height.(i) <- h;
        entered.(i) <- e;
        work.(!n_work) <- pc;
        incr n_work
      end
      else if height.(i) <> h || entered.(i) <> e then
        reject o pc
          "paths join with operand stack heights %d and %d, enter totals %d and %d"
          height.(i) h entered.(i) e
  in
  while !n_work > 0 do
    decr n_work;
    let pc = work.(!n_work) in
    let h = height.(pc - s.addr) and e = entered.(pc - s.addr) in
    let ins = o.Objfile.text.(pc) in
    let pops, pushes = Instr.pops_pushes ins in
    if h < pops then begin
      match ins with
      | Ret -> reject o pc "return with no value on the operand stack"
      | _ -> reject o pc "operand stack underflow"
    end;
    let h' = h - pops + pushes in
    deepest := Int.max !deepest h';
    (match ins with
    | Load slot | Store slot -> (
      need := Int.max !need (slot + 1 - e);
      match args with
      | Some a when slot >= a + e ->
        reject o pc "local slot %d out of range (%d locals)" slot (a + e)
      | _ -> ())
    | _ -> ());
    let e' = match ins with Enter k -> e + k | _ -> e in
    match ins with
    | Jump t -> visit ~from:pc t h' e'
    | Jumpz t ->
      visit ~from:pc t h' e';
      visit ~from:pc (pc + 1) h' e'
    | Ret | Halt -> ()
    | _ -> visit ~from:pc (pc + 1) h' e'
  done;
  (!deepest, !need)

let check o =
  match Objfile.validate o with
  | Error es -> Error es
  | Ok () -> (
    let n = Array.length o.Objfile.symbols in
    let fid addr = Option.get (Objfile.func_id_of_addr o addr) in
    (* max_int: no direct entry, so slots are left to run time *)
    let args = Array.make n max_int in
    args.(fid o.entry) <- 0;
    Array.iter
      (function
        | Instr.Call (t, k) -> args.(fid t) <- min args.(fid t) k | _ -> ())
      o.text;
    let max_stack = ref 0 and min_args = Array.make n 0 in
    try
      Array.iteri
        (fun f s ->
          let args = if args.(f) = max_int then None else Some args.(f) in
          let d, need = verify_function o s ~args in
          max_stack := Int.max !max_stack d;
          min_args.(f) <- need)
        o.symbols;
      Ok { max_stack = !max_stack; min_args }
    with Reject e -> Error [ e ])

let load path =
  match Objfile.load path with
  | Error e -> Error [ e ]
  | Ok o -> Result.map (fun _ -> o) (check o)
