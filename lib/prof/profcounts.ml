let magic = "PROFCOUNTS 1"

let to_string (o : Objcode.Objfile.t) counts =
  let n = Array.length o.symbols in
  if Array.length counts <> n then
    invalid_arg "Profcounts.to_string: one count per symbol required";
  let buf = Buffer.create 256 in
  Buffer.add_string buf (magic ^ "\n");
  Array.iteri
    (fun i (s : Objcode.Objfile.symbol) ->
      Buffer.add_string buf (Printf.sprintf "%s %d\n" s.name counts.(i)))
    o.symbols;
  Buffer.contents buf

let of_string (o : Objcode.Objfile.t) s =
  let lines = String.split_on_char '\n' s |> List.filter (( <> ) "") in
  match lines with
  | m :: rest when m = magic -> (
    let st = Gprof_core.Symtab.of_objfile o in
    let counts = Array.make (Array.length o.symbols) (-1) in
    let exception Bad of string in
    try
      List.iter
        (fun line ->
          match String.split_on_char ' ' line |> List.filter (( <> ) "") with
          | [ name; v ] -> (
            (* An object may hold several routines of one name, written
               in symbol order: the k-th line naming one fills the k-th
               routine of that name. *)
            match (Gprof_core.Symtab.ids_of_name st name, int_of_string_opt v) with
            | [], _ -> raise (Bad (Printf.sprintf "unknown function %s" name))
            | _, None -> raise (Bad (Printf.sprintf "bad count %S for %s" v name))
            | ids, Some c -> (
              match List.find_opt (fun i -> counts.(i) < 0) ids with
              | None -> raise (Bad (Printf.sprintf "duplicate entry for %s" name))
              | Some i ->
                if c < 0 then raise (Bad (Printf.sprintf "negative count for %s" name));
                counts.(i) <- c))
          | _ -> raise (Bad (Printf.sprintf "malformed line %S" line)))
        rest;
      Array.iteri
        (fun i c ->
          if c < 0 then
            raise (Bad (Printf.sprintf "missing count for %s" o.symbols.(i).name)))
        counts;
      Ok counts
    with Bad msg -> Error msg)
  | _ -> Error "bad magic line"

let save o counts path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string o counts))

let load o path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string o s
  | exception Sys_error e -> Error e
