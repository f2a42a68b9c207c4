type t = {
  o : Objcode.Objfile.t;
  by_name : (string, int list) Hashtbl.t;
      (* every id of a name, ascending: an object may hold routines of
         equal names *)
  extra : Objcode.Objfile.symbol array;
      (* synthetic symbols appended after the executable's own; they
         have no address range, so pc/entry lookup never returns them *)
}

let of_objfile o =
  Obs.Trace.with_span ~cat:"core" "symtab" @@ fun () ->
  let by_name = Hashtbl.create 64 in
  let syms = o.Objcode.Objfile.symbols in
  for i = Array.length syms - 1 downto 0 do
    let name = syms.(i).name in
    Hashtbl.replace by_name name
      (i :: Option.value (Hashtbl.find_opt by_name name) ~default:[])
  done;
  { o; by_name; extra = [||] }

let unknown_name = "<unknown>"

let with_unknown t =
  match Hashtbl.find_opt t.by_name unknown_name with
  | Some (id :: _) -> (t, id)
  | _ ->
    let n_real = Array.length t.o.Objcode.Objfile.symbols in
    let id = n_real + Array.length t.extra in
    let by_name = Hashtbl.copy t.by_name in
    Hashtbl.replace by_name unknown_name [ id ];
    let unknown =
      { Objcode.Objfile.name = unknown_name; addr = max_int; size = 0;
        profiled = false }
    in
    ({ t with by_name; extra = Array.append t.extra [| unknown |] }, id)

let objfile t = t.o

let n_real t = Array.length t.o.Objcode.Objfile.symbols

let n_funcs t = n_real t + Array.length t.extra

let sym t id =
  let real = n_real t in
  if id < real then t.o.Objcode.Objfile.symbols.(id) else t.extra.(id - real)

let name t id = (sym t id).name
let entry t id = (sym t id).addr
let size t id = (sym t id).size
let profiled t id = (sym t id).profiled

let id_of_pc t pc = Objcode.Objfile.symbol_index t.o pc

let id_of_entry t pc = Objcode.Objfile.func_id_of_addr t.o pc

let ids_of_name t n = Option.value (Hashtbl.find_opt t.by_name n) ~default:[]

let id_of_name t n = match ids_of_name t n with id :: _ -> Some id | [] -> None

let ids_of_names t names =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | n :: rest -> (
      match ids_of_name t n with
      | [] -> Error n
      | ids -> go (ids :: acc) rest)
  in
  go [] names
