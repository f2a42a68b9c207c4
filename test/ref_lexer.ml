(* The lexer as it was before lexing on demand: a verbatim copy that
   tokenizes the whole source up front, kept only as the reference the
   front-end parity property (test_fuzz.ml) runs beside Mini.Lexer.
   Its token type is Mini.Lexer's, so token lists compare with [=]. *)

module Ast = Mini.Ast

type token = Mini.Lexer.token =
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
  | "fun" -> Some KW_FUN
  | "var" -> Some KW_VAR
  | "array" -> Some KW_ARRAY
  | "if" -> Some KW_IF
  | "else" -> Some KW_ELSE
  | "while" -> Some KW_WHILE
  | "for" -> Some KW_FOR
  | "return" -> Some KW_RETURN
  | "break" -> Some KW_BREAK
  | "continue" -> Some KW_CONTINUE
  | _ -> None

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

type state = {
  src : string;
  mutable pos : int;
  mutable line : int;
  mutable col : int;
}

let loc st = { Ast.line = st.line; col = st.col }

let peek st = if st.pos < String.length st.src then Some st.src.[st.pos] else None

let peek2 st =
  if st.pos + 1 < String.length st.src then Some st.src.[st.pos + 1] else None

let advance st =
  (match peek st with
  | Some '\n' ->
    st.line <- st.line + 1;
    st.col <- 1
  | Some _ -> st.col <- st.col + 1
  | None -> ());
  st.pos <- st.pos + 1

let rec skip_ws st =
  match peek st with
  | Some (' ' | '\t' | '\r' | '\n') ->
    advance st;
    skip_ws st
  | Some '/' when peek2 st = Some '/' ->
    while peek st <> None && peek st <> Some '\n' do
      advance st
    done;
    skip_ws st
  | Some '/' when peek2 st = Some '*' ->
    let start = loc st in
    advance st;
    advance st;
    let rec close () =
      match (peek st, peek2 st) with
      | Some '*', Some '/' ->
        advance st;
        advance st
      | Some _, _ ->
        advance st;
        close ()
      | None, _ -> raise (Error ("unterminated block comment", start))
    in
    close ();
    skip_ws st
  | _ -> ()

let lex_number st =
  let l = loc st in
  let buf = Buffer.create 8 in
  while (match peek st with Some c -> is_digit c | None -> false) do
    Buffer.add_char buf (Option.get (peek st));
    advance st
  done;
  (match peek st with
  | Some c when is_alpha c ->
    raise (Error (Printf.sprintf "identifier may not start with a digit", l))
  | _ -> ());
  match int_of_string_opt (Buffer.contents buf) with
  | Some n -> (INT n, l)
  | None -> raise (Error ("integer literal out of range", l))

let lex_ident st =
  let l = loc st in
  let buf = Buffer.create 8 in
  while (match peek st with Some c -> is_alnum c | None -> false) do
    Buffer.add_char buf (Option.get (peek st));
    advance st
  done;
  let s = Buffer.contents buf in
  match keyword s with Some kw -> (kw, l) | None -> (IDENT s, l)

let next_token st =
  skip_ws st;
  let l = loc st in
  match peek st with
  | None -> (EOF, l)
  | Some c when is_digit c -> lex_number st
  | Some c when is_alpha c -> lex_ident st
  | Some c ->
    let two tok =
      advance st;
      advance st;
      (tok, l)
    in
    let one tok =
      advance st;
      (tok, l)
    in
    (match (c, peek2 st) with
    | '&', Some '&' -> two AMPAMP
    | '|', Some '|' -> two BARBAR
    | '<', Some '=' -> two LE
    | '>', Some '=' -> two GE
    | '=', Some '=' -> two EQ
    | '!', Some '=' -> two NE
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
  let st = { src; pos = 0; line = 1; col = 1 } in
  let rec go acc =
    let ((tok, _) as t) = next_token st in
    if tok = EOF then List.rev (t :: acc) else go (t :: acc)
  in
  go []
