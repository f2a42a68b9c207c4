type anomaly_kind = Mid_function of string | Outside_table

type anomaly = {
  an_addr : int;
  an_caller : string option;
  an_target : int;
  an_kind : anomaly_kind;
  an_instr : [ `Call | `Funref ];
}

let anomalies o =
  let acc = ref [] in
  let anomaly pc target instr =
    let kind =
      match Objfile.find_symbol o target with
      | Some s -> Mid_function s.name
      | None -> Outside_table
    in
    let caller = Option.map (fun (s : Objfile.symbol) -> s.name) (Objfile.find_symbol o pc) in
    acc :=
      { an_addr = pc; an_caller = caller; an_target = target; an_kind = kind;
        an_instr = instr }
      :: !acc
  in
  Array.iteri
    (fun pc ins ->
      match (ins : Instr.t) with
      | Call (target, _) -> (
        (* a call sitting in a symbol-table gap has a fine target but
           no caller to attach the arc to *)
        match (Objfile.symbol_index o pc, Objfile.func_id_of_addr o target) with
        | Some _, Some _ -> ()
        | _ -> anomaly pc target `Call)
      | Funref target ->
        if Objfile.func_id_of_addr o target = None then anomaly pc target `Funref
      | _ -> ())
    o.Objfile.text;
  List.rev !acc

let anomaly_to_string a =
  Printf.sprintf "%s at %d%s targets %d, %s"
    (match a.an_instr with `Call -> "call" | `Funref -> "funref")
    a.an_addr
    (match a.an_caller with Some c -> " (in " ^ c ^ ")" | None -> " (no containing routine)")
    a.an_target
    (match a.an_kind with
    | Mid_function f -> "mid-" ^ f
    | Outside_table -> "outside the symbol table")

(* Each routine's own range is walked with the caller known, and each
   callee is one probe of the entry table; a call in a symbol-table gap
   lies in no range, so it gives no arc. A routine's calls are walked
   together, so [last] (the caller that last produced an arc into each
   callee) is all the deduplication needs. *)
let static_arcs o =
  let text = o.Objfile.text and entries = Objfile.entries o in
  let last = Array.make (Array.length o.Objfile.symbols) (-1) in
  let acc = ref [] in
  Array.iteri
    (fun caller (s : Objfile.symbol) ->
      for pc = max 0 s.addr to min (Array.length text) (s.addr + s.size) - 1 do
        match text.(pc) with
        | Instr.Call (target, _) ->
          let callee = Objfile.entry_id entries target in
          if callee >= 0 && last.(callee) <> caller then begin
            last.(callee) <- caller;
            acc := (caller, callee) :: !acc
          end
        | _ -> ()
      done)
    o.Objfile.symbols;
  List.rev !acc

let referenced_functions o =
  let seen = Hashtbl.create 16 in
  let out = ref [] in
  Array.iter
    (fun ins ->
      match (ins : Instr.t) with
      | Funref target -> (
        match Objfile.find_symbol o target with
        | Some s when s.addr = target && not (Hashtbl.mem seen s.name) ->
          Hashtbl.replace seen s.name ();
          out := s.name :: !out
        | _ -> ())
      | _ -> ())
    o.Objfile.text;
  List.rev !out
