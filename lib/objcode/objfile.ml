type symbol = { name : string; addr : int; size : int; profiled : bool }

type t = {
  text : Instr.t array;
  symbols : symbol array;
  entry : int;
  globals : string array;
  global_init : int array;
  arrays : (string * int) array;
  lines : (int * int) array;
  source_name : string;
}

let line_of_addr o addr =
  let n = Array.length o.lines in
  if n = 0 || addr < fst o.lines.(0) || addr >= Array.length o.text then None
  else begin
    (* greatest entry whose address is <= addr *)
    let lo = ref 0 and hi = ref (n - 1) in
    while !lo < !hi do
      let mid = (!lo + !hi + 1) / 2 in
      if fst o.lines.(mid) <= addr then lo := mid else hi := mid - 1
    done;
    Some (snd o.lines.(!lo))
  end

let addrs_of_line o line =
  let n = Array.length o.lines in
  let ranges = ref [] in
  for i = n - 1 downto 0 do
    let addr, l = o.lines.(i) in
    if l = line then begin
      let stop =
        if i + 1 < n then fst o.lines.(i + 1) - 1 else Array.length o.text - 1
      in
      ranges := (addr, stop) :: !ranges
    end
  done;
  !ranges

let find_index_containing symbols pc =
  let lo = ref 0 and hi = ref (Array.length symbols - 1) and found = ref None in
  while !lo <= !hi do
    let mid = (!lo + !hi) / 2 in
    let s = symbols.(mid) in
    if pc < s.addr then hi := mid - 1
    else if pc >= s.addr + s.size then lo := mid + 1
    else begin
      found := Some mid;
      lo := !hi + 1
    end
  done;
  !found

let symbol_index o pc = find_index_containing o.symbols pc

let find_symbol o pc =
  Option.map (fun i -> o.symbols.(i)) (symbol_index o pc)

let symbol_by_name o name =
  Array.find_opt (fun s -> String.equal s.name name) o.symbols

let func_id_of_addr o addr =
  match symbol_index o addr with
  | Some i when o.symbols.(i).addr = addr -> Some i
  | _ -> None

(* Open addressing with linear probing, at most half full; [min_int]
   marks an empty cell. *)
type entries = { e_keys : int array; e_ids : int array; e_mask : int }

let entry_hash mask addr = ((addr * 0x9E3779B1) lsr 17) land mask

let entries o =
  let cap = ref 2 in
  while !cap < 2 * Array.length o.symbols do cap := 2 * !cap done;
  let mask = !cap - 1 in
  let keys = Array.make !cap min_int and ids = Array.make !cap (-1) in
  Array.iteri
    (fun i s ->
      if s.size > 0 then begin
        let j = ref (entry_hash mask s.addr) in
        while keys.(!j) <> min_int && keys.(!j) <> s.addr do
          j := (!j + 1) land mask
        done;
        if keys.(!j) = min_int then begin
          keys.(!j) <- s.addr;
          ids.(!j) <- i
        end
      end)
    o.symbols;
  { e_keys = keys; e_ids = ids; e_mask = mask }

let rec probe e addr j =
  let k = e.e_keys.(j) in
  if k = addr then e.e_ids.(j)
  else if k = min_int then -1
  else probe e addr ((j + 1) land e.e_mask)

let entry_id e addr = probe e addr (entry_hash e.e_mask addr)

let max_locals = 65_535

let location o pc =
  match find_symbol o pc with
  | Some s -> Printf.sprintf "%s+%d (pc %d)" s.name (pc - s.addr) pc
  | None -> Printf.sprintf "pc %d" pc

let validate o =
  let errs = ref [] in
  let err fmt = Format.kasprintf (fun s -> errs := s :: !errs) fmt in
  let n = Array.length o.text in
  if Array.length o.globals <> Array.length o.global_init then
    err "globals/global_init length mismatch";
  Array.iter
    (fun (name, len) -> if len < 0 then err "array %s has negative length %d" name len)
    o.arrays;
  (* symbol table shape *)
  Array.iteri
    (fun i s ->
      if s.size <= 0 then err "symbol %s has nonpositive size" s.name;
      if s.addr < 0 || s.addr + s.size > n then
        err "symbol %s range [%d,%d) outside text [0,%d)" s.name s.addr
          (s.addr + s.size) n;
      if i > 0 then begin
        let p = o.symbols.(i - 1) in
        if s.addr < p.addr + p.size then
          err "symbols %s and %s overlap or are unsorted" p.name s.name
      end)
    o.symbols;
  let is_entry a = func_id_of_addr o a <> None in
  if not (is_entry o.entry) then err "entry %d is not a function start" o.entry;
  (* line table shape *)
  Array.iteri
    (fun i (addr, line) ->
      if addr < 0 || addr >= n then err "line entry at %d outside text" addr;
      if line < 0 then err "negative source line %d" line;
      if i > 0 && fst o.lines.(i - 1) >= addr then
        err "line table not strictly ascending at address %d" addr)
    o.lines;
  (* per-instruction operand checks *)
  let at pc fmt = err ("%s: " ^^ fmt) (location o pc) in
  let inside_same_function pc target =
    match (symbol_index o pc, symbol_index o target) with
    | Some a, Some b -> a = b
    | _ -> false
  in
  let count pc what k =
    if k < 0 || k > max_locals then at pc "%s %d outside [0, %d]" what k max_locals
  in
  Array.iteri
    (fun pc (ins : Instr.t) ->
      match ins with
      | Jump t | Jumpz t ->
        if not (inside_same_function pc t) then
          at pc "jump targets %d outside its function" t
      | Call (t, k) ->
        if not (is_entry t) then at pc "call targets %d which is not a function start" t;
        count pc "call arity" k
      | Funref t ->
        if not (is_entry t) then at pc "funref targets %d which is not a function start" t
      | Calli k -> count pc "calli arity" k
      | Enter k -> count pc "enter count" k
      | Load s | Store s ->
        if s < 0 || s >= max_locals then
          at pc "local slot %d outside [0, %d)" s max_locals
      | Gload g | Gstore g ->
        if g < 0 || g >= Array.length o.globals then at pc "global id %d out of range" g
      | Aload a | Astore a ->
        if a < 0 || a >= Array.length o.arrays then at pc "array id %d out of range" a
      | Pcount f ->
        if f < 0 || f >= Array.length o.symbols then at pc "pcount id %d out of range" f
      | Nop | Const _ | Alu _ | Unop _ | Mcount | Ret | Pop | Syscall _ | Halt -> ())
    o.text;
  match List.rev !errs with [] -> Ok () | es -> Error es

(* --- serialization ---------------------------------------------------
   Line-based text format:

     MINIOBJ 1
     source <name-with-no-newlines>
     entry <addr>
     global <id> <name> <init>
     array <id> <name> <len>
     symbol <name> <addr> <size> <profiled:0|1>
     text <count>
     <instr>            (count lines)
*)

let to_string o =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "MINIOBJ 1\n";
  Buffer.add_string buf (Printf.sprintf "source %s\n" o.source_name);
  Buffer.add_string buf (Printf.sprintf "entry %d\n" o.entry);
  Array.iteri
    (fun i name ->
      Buffer.add_string buf (Printf.sprintf "global %d %s %d\n" i name o.global_init.(i)))
    o.globals;
  Array.iteri
    (fun i (name, len) ->
      Buffer.add_string buf (Printf.sprintf "array %d %s %d\n" i name len))
    o.arrays;
  Array.iter
    (fun s ->
      Buffer.add_string buf
        (Printf.sprintf "symbol %s %d %d %d\n" s.name s.addr s.size
           (if s.profiled then 1 else 0)))
    o.symbols;
  Array.iter
    (fun (addr, line) ->
      Buffer.add_string buf (Printf.sprintf "line %d %d\n" addr line))
    o.lines;
  Buffer.add_string buf (Printf.sprintf "text %d\n" (Array.length o.text));
  Array.iter
    (fun ins -> Buffer.add_string buf (Instr.to_string ins ^ "\n"))
    o.text;
  Buffer.contents buf

let of_string s =
  let lines = String.split_on_char '\n' s in
  let exception Bad of string in
  try
    let lines = ref lines in
    let next () =
      match !lines with
      | [] -> raise (Bad "unexpected end of file")
      | l :: rest ->
        lines := rest;
        l
    in
    (match next () with
    | "MINIOBJ 1" -> ()
    | l -> raise (Bad (Printf.sprintf "bad magic line %S" l)));
    let source_name = ref "?" in
    let entry = ref (-1) in
    let globals = ref [] and arrays = ref [] and symbols = ref [] in
    let line_entries = ref [] in
    let text = ref [||] in
    let parse_int what v =
      match int_of_string_opt v with
      | Some n -> n
      | None -> raise (Bad (Printf.sprintf "bad %s %S" what v))
    in
    let rec header () =
      let l = next () in
      let words = String.split_on_char ' ' l |> List.filter (( <> ) "") in
      match words with
      | [ "source"; name ] ->
        source_name := name;
        header ()
      | "source" :: rest ->
        source_name := String.concat " " rest;
        header ()
      | [ "entry"; a ] ->
        entry := parse_int "entry" a;
        header ()
      | [ "global"; id; name; init ] ->
        globals := (parse_int "global id" id, name, parse_int "global init" init) :: !globals;
        header ()
      | [ "array"; id; name; len ] ->
        arrays := (parse_int "array id" id, name, parse_int "array len" len) :: !arrays;
        header ()
      | [ "line"; addr; line ] ->
        line_entries :=
          (parse_int "line addr" addr, parse_int "line number" line)
          :: !line_entries;
        header ()
      | [ "symbol"; name; addr; size; prof ] ->
        symbols :=
          {
            name;
            addr = parse_int "symbol addr" addr;
            size = parse_int "symbol size" size;
            profiled = parse_int "symbol profiled" prof <> 0;
          }
          :: !symbols;
        header ()
      | [ "text"; count ] ->
        let count = parse_int "text count" count in
        text :=
          Array.init count (fun i ->
              match Instr.of_string (next ()) with
              | Ok ins -> ins
              | Error e -> raise (Bad (Printf.sprintf "instruction %d: %s" i e)))
      | [] | [ "" ] -> header ()
      | _ -> raise (Bad (Printf.sprintf "bad header line %S" l))
    in
    header ();
    let by_id what xs =
      let xs = List.sort compare xs in
      List.iteri
        (fun i (id, _, _) ->
          if id <> i then raise (Bad (Printf.sprintf "non-contiguous %s ids" what)))
        xs;
      xs
    in
    let globals = by_id "global" !globals in
    let arrays = by_id "array" !arrays in
    Ok
      {
        text = !text;
        symbols =
          Array.of_list
            (List.sort (fun a b -> compare a.addr b.addr) (List.rev !symbols));
        entry = !entry;
        globals = Array.of_list (List.map (fun (_, n, _) -> n) globals);
        global_init = Array.of_list (List.map (fun (_, _, i) -> i) globals);
        arrays = Array.of_list (List.map (fun (_, n, l) -> (n, l)) arrays);
        lines = Array.of_list (List.sort compare (List.rev !line_entries));
        source_name = !source_name;
      }
  with Bad msg -> Error msg

let save o path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string o))

let load path =
  match In_channel.with_open_text path In_channel.input_all with
  | s -> of_string s
  | exception Sys_error e -> Error e

let load_valid path =
  match load path with
  | Error e -> Error [ e ]
  | Ok o -> Result.map (fun () -> o) (validate o)

let equal a b =
  a.text = b.text && a.symbols = b.symbols && a.entry = b.entry
  && a.globals = b.globals && a.global_init = b.global_init
  && a.arrays = b.arrays && a.lines = b.lines
  && a.source_name = b.source_name
