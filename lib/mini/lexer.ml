type token =
  | INT of int
  | IDENT of string
  | KW_FUN | KW_VAR | KW_ARRAY | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI
  | ASSIGN
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE
  | AMPAMP | BARBAR | BANG
  | EOF

let token_name = function
  | INT n -> Printf.sprintf "integer %d" n
  | IDENT s -> Printf.sprintf "identifier %S" s
  | KW_FUN -> "'fun'"
  | KW_VAR -> "'var'"
  | KW_ARRAY -> "'array'"
  | KW_IF -> "'if'"
  | KW_ELSE -> "'else'"
  | KW_WHILE -> "'while'"
  | KW_FOR -> "'for'"
  | KW_RETURN -> "'return'"
  | KW_BREAK -> "'break'"
  | KW_CONTINUE -> "'continue'"
  | LPAREN -> "'('"
  | RPAREN -> "')'"
  | LBRACE -> "'{'"
  | RBRACE -> "'}'"
  | LBRACKET -> "'['"
  | RBRACKET -> "']'"
  | COMMA -> "','"
  | SEMI -> "';'"
  | ASSIGN -> "'='"
  | PLUS -> "'+'"
  | MINUS -> "'-'"
  | STAR -> "'*'"
  | SLASH -> "'/'"
  | PERCENT -> "'%'"
  | LT -> "'<'"
  | LE -> "'<='"
  | GT -> "'>'"
  | GE -> "'>='"
  | EQ -> "'=='"
  | NE -> "'!='"
  | AMPAMP -> "'&&'"
  | BARBAR -> "'||'"
  | BANG -> "'!'"
  | EOF -> "end of input"

exception Error of string * Ast.loc

let keyword = function
  | "fun" -> KW_FUN
  | "var" -> KW_VAR
  | "array" -> KW_ARRAY
  | "if" -> KW_IF
  | "else" -> KW_ELSE
  | "while" -> KW_WHILE
  | "for" -> KW_FOR
  | "return" -> KW_RETURN
  | "break" -> KW_BREAK
  | "continue" -> KW_CONTINUE
  | s -> IDENT s

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* [bol] is the offset where the current line begins, so the column
   of [pos] is [pos - bol + 1]. *)
type t = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;
}

let create src = { src; pos = 0; line = 1; bol = 0 }
let loc lx = { Ast.line = lx.line; col = lx.pos - lx.bol + 1 }

(* the byte at [i], or NUL past the end: no two-character token ends
   in NUL, and a NUL in the text is illegal either way *)
let byte_at lx i =
  if i < String.length lx.src then String.unsafe_get lx.src i else '\000'

(* the end of the run of bytes satisfying [p] from [i] *)
let scan p lx i =
  let src = lx.src in
  let i = ref i in
  while !i < String.length src && p (String.unsafe_get src !i) do
    incr i
  done;
  !i

(* Skip the block comment whose "/*" starts at [lx.pos]. *)
let skip_block_comment lx =
  let start = loc lx in
  let src = lx.src in
  let last = String.length src - 1 in
  let rec close i =
    if i >= last then raise (Error ("unterminated block comment", start))
    else
      match String.unsafe_get src i with
      | '*' when String.unsafe_get src (i + 1) = '/' -> lx.pos <- i + 2
      | '\n' ->
        lx.line <- lx.line + 1;
        lx.bol <- i + 1;
        close (i + 1)
      | _ -> close (i + 1)
  in
  close (lx.pos + 2)

let rec skip_ws lx =
  let pos = lx.pos in
  match byte_at lx pos with
  | ' ' | '\t' | '\r' ->
    lx.pos <- pos + 1;
    skip_ws lx
  | '\n' ->
    lx.pos <- pos + 1;
    lx.line <- lx.line + 1;
    lx.bol <- pos + 1;
    skip_ws lx
  | '/' when byte_at lx (pos + 1) = '/' ->
    lx.pos <- scan (fun c -> c <> '\n') lx pos;
    skip_ws lx
  | '/' when byte_at lx (pos + 1) = '*' ->
    skip_block_comment lx;
    skip_ws lx
  | _ -> ()

let next lx =
  skip_ws lx;
  let l = loc lx in
  let pos = lx.pos in
  if pos >= String.length lx.src then (EOF, l)
  else
    match String.unsafe_get lx.src pos with
    | '0' .. '9' ->
      let stop = scan is_digit lx pos in
      if is_alpha (byte_at lx stop) then
        raise (Error ("identifier may not start with a digit", l));
      (match int_of_string (String.sub lx.src pos (stop - pos)) with
      | n ->
        lx.pos <- stop;
        (INT n, l)
      | exception Failure _ -> raise (Error ("integer literal out of range", l)))
    | 'a' .. 'z' | 'A' .. 'Z' | '_' ->
      let stop = scan is_alnum lx pos in
      lx.pos <- stop;
      (keyword (String.sub lx.src pos (stop - pos)), l)
    | c ->
      let two tok =
        lx.pos <- lx.pos + 2;
        (tok, l)
      in
      let one tok =
        lx.pos <- lx.pos + 1;
        (tok, l)
      in
      (match (c, byte_at lx (pos + 1)) with
      | '&', '&' -> two AMPAMP
      | '|', '|' -> two BARBAR
      | '<', '=' -> two LE
      | '>', '=' -> two GE
      | '=', '=' -> two EQ
      | '!', '=' -> two NE
      | '&', _ -> raise (Error ("expected '&&'", l))
      | '|', _ -> raise (Error ("expected '||'", l))
      | '<', _ -> one LT
      | '>', _ -> one GT
      | '=', _ -> one ASSIGN
      | '!', _ -> one BANG
      | '+', _ -> one PLUS
      | '-', _ -> one MINUS
      | '*', _ -> one STAR
      | '/', _ -> one SLASH
      | '%', _ -> one PERCENT
      | '(', _ -> one LPAREN
      | ')', _ -> one RPAREN
      | '{', _ -> one LBRACE
      | '}', _ -> one RBRACE
      | '[', _ -> one LBRACKET
      | ']', _ -> one RBRACKET
      | ',', _ -> one COMMA
      | ';', _ -> one SEMI
      | _ -> raise (Error (Printf.sprintf "illegal character %C" c, l)))

let tokenize src =
  let lx = create src in
  let rec go acc =
    let ((tok, _) as t) = next lx in
    if tok = EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []
