(** Hand-written lexer for Mini source text. *)

type token =
  | INT of int
  | IDENT of string
  | KW_FUN | KW_VAR | KW_ARRAY | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN
  | KW_BREAK | KW_CONTINUE
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI
  | ASSIGN                             (* =  *)
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQ | NE
  | AMPAMP | BARBAR | BANG
  | EOF

val token_name : token -> string
(** Human-readable token description for error messages. *)

exception Error of string * Ast.loc

type t
(** A lexer over one source string. It scans the string by index and
    hands out one token per {!next}, so no token list is built. *)

val create : string -> t
(** A lexer positioned at the start of the source (line 1, column 1). *)

val next : t -> token * Ast.loc
(** The next token and where it starts. Supports decimal literals
    (negative ones are unary minus, left to the parser), [//] line
    comments and [/* ... */] block comments (non-nesting). At the end
    of the source it returns [EOF], and again on every later call.
    @raise Error on an illegal character (NUL included), a lone [&]
    or [|], a digit run followed by a letter, an integer literal that
    does not fit in an OCaml [int], or a block comment that is never
    closed (located at the comment's start). *)

val tokenize : string -> (token * Ast.loc) list
(** Lex a whole source string: {!next} in a loop up to and including
    [EOF].
    @raise Error at the first lexical error, as {!next} does. *)
