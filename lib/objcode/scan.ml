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

let static_arcs o =
  let n = Array.length o.Objfile.symbols in
  let seen = Hashtbl.create 64 in
  let acc = ref [] in
  Array.iteri
    (fun pc ins ->
      match (ins : Instr.t) with
      | Call (target, _) -> (
        match (Objfile.symbol_index o pc, Objfile.func_id_of_addr o target) with
        | Some caller, Some callee ->
          let key = (caller * n) + callee in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.replace seen key ();
            acc := (caller, callee) :: !acc
          end
        | _ -> ())
      | _ -> ())
    o.Objfile.text;
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
