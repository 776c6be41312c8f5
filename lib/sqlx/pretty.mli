(** SQL rendering (inverse of {!Parser} up to whitespace and keyword
    case). Used by the workload generator to emit application programs
    and by error messages. *)

val query_to_string : Ast.query -> string
val statement_to_string : Ast.statement -> string
