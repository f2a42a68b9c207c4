(** Pretty-printing Mini ASTs back to concrete syntax.

    For any parser-produced AST [p], [Parser.parse_program (program p)]
    is structurally equal to [p] (locations aside); this round-trip is
    property-tested. Parenthesization is minimal with respect to the
    grammar's precedence and associativity. *)

val expr : Ast.expr -> string

val stmt : ?indent:int -> Ast.stmt -> string

val program : Ast.program -> string
