type align = Left | Right

type t = {
  headers : (string * align) list;
  mutable rows : string list list; (* reversed *)
}

let create headers = { headers; rows = [] }

let add_row t cells =
  if List.length cells <> List.length t.headers then
    invalid_arg
      (Printf.sprintf "Table.add_row: %d cells, %d columns"
         (List.length cells) (List.length t.headers));
  t.rows <- cells :: t.rows

let pad align width s =
  let n = String.length s in
  if n >= width then s
  else
    let fill = String.make (width - n) ' ' in
    match align with Left -> s ^ fill | Right -> fill ^ s

let render t =
  let headers = List.map fst t.headers in
  let aligns = List.map snd t.headers in
  let rows = List.rev t.rows in
  let widths =
    List.mapi
      (fun i h ->
        List.fold_left
          (fun acc cells -> max acc (String.length (List.nth cells i)))
          (String.length h) rows)
      headers
  in
  let buf = Buffer.create 256 in
  let emit_cells cells =
    List.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad (List.nth aligns i) (List.nth widths i) cell))
      cells;
    Buffer.add_char buf '\n'
  in
  let rule () =
    List.iteri
      (fun i w ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (String.make w '-'))
      widths;
    Buffer.add_char buf '\n'
  in
  emit_cells headers;
  rule ();
  List.iter emit_cells rows;
  Buffer.contents buf

let print t = print_string (render t)

let cell_f x = Printf.sprintf "%.3f" x
let cell_pct x = Printf.sprintf "%.1f%%" x
