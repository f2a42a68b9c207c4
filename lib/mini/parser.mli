(** Recursive-descent parser for Mini.

    Grammar (EBNF; [*] is repetition, [?] option):
    {v
    program  ::= topdecl*
    topdecl  ::= 'var' IDENT ('=' INT | '=' '-' INT)? ';'
               | 'array' IDENT '[' INT ']' ';'
               | 'fun' IDENT '(' params? ')' block
    params   ::= IDENT (',' IDENT)*
    block    ::= '{' stmt* '}'
    stmt     ::= 'var' IDENT ('=' expr)? ';'
               | IDENT '=' expr ';'
               | IDENT '[' expr ']' '=' expr ';'
               | 'if' '(' expr ')' block ('else' (block | ifstmt))?
               | 'while' '(' expr ')' block
               | 'for' '(' simple ';' expr ';' simple ')' block
               | 'return' expr? ';'
               | expr ';'
    simple   ::= 'var' IDENT '=' expr | IDENT '=' expr
    expr     ::= or ;  or ::= and ('||' and)* ;  and ::= cmp ('&&' cmp)*
    cmp      ::= add (relop add)? ;  add ::= mul (('+'|'-') mul)*
    mul      ::= unary (('*'|'/'|'%') unary)*
    unary    ::= ('-'|'!') unary | postfix
    postfix  ::= primary ( '(' args? ')' )*
    primary  ::= INT | IDENT | IDENT '[' expr ']' | '(' expr ')'
    v}

    Comparison operators do not associate ([a < b < c] is a syntax
    error), matching the intent that comparisons produce 0/1 truth
    values. *)

exception Error of string * Ast.loc

val parse_program : string -> Ast.program
(** Parse a whole program, pulling each token from a {!Lexer.t} as it
    goes; no token list is built.
    @raise Error at the first error in file order, lexical or
    syntactic. A lexical error keeps the lexer's message and
    location. *)

val parse_expr : string -> Ast.expr
(** Parse a single expression (used by tests).
    @raise Error as {!parse_program} does, also on trailing input. *)
