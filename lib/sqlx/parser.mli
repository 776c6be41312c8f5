(** Recursive-descent parser for the SQL subset.

    Grammar sketch (case-insensitive keywords):
    {v
    statement  ::= query | create | create-view | insert | update
                 | delete | alter | select-into | cursor-stmt
    query      ::= select ((UNION|INTERSECT|EXCEPT|MINUS) select)*
    select     ::= SELECT [DISTINCT] projs [INTO :h (',' :h)*]
                   FROM refs [WHERE cond]
                   [GROUP BY cols] [ORDER BY cols [ASC|DESC]]
    cursor-stmt::= DECLARE c CURSOR FOR query | OPEN c
                 | FETCH c INTO :h (',' :h)* | CLOSE c
    create-view::= CREATE VIEW v ['(' cols ')'] AS query
    refs       ::= rel [[AS] alias] (',' rel [[AS] alias]
                 | [INNER] JOIN rel [[AS] alias] ON cond)*
    cond       ::= or-spine of AND/NOT/comparison/IN/EXISTS/BETWEEN/
                   LIKE/IS [NOT] NULL, parenthesized groups
    v}
    [JOIN ... ON] is normalized away: the joined relation is appended to
    the [from] list and the [ON] condition is AND-ed into [where].
    [INTO :h] is only recognized on a top-level [SELECT] (never inside a
    subquery) and yields {!Ast.statement.Select_into}. *)

exception Error of string
(** Parse error with a human-readable message including the offending
    token. *)

val parse_statement :
  ?base:Span.base -> ?locate:(int -> Span.base) -> string -> Ast.statement
(** Parse exactly one statement (an optional trailing [';'] accepted).
    AST nodes carry source spans; [base] (default {!Span.base0}) re-bases
    them onto an enclosing text, and [locate] maps offsets through a
    non-affine fragment-to-host correspondence instead (see
    {!Lexer.tokenize_spanned}). Lexical errors arrive as {!Error}
    (["lexical error at offset …"]); {!Lexer.Error} never escapes. *)

val parse_script :
  ?base:Span.base -> ?locate:(int -> Span.base) -> string -> Ast.statement list
(** Parse a [';']-separated script. Empty statements are skipped;
    lexical errors arrive as {!Error}, as for {!parse_statement}. *)

val parse_query : string -> Ast.query
(** Parse a single query (convenience wrapper). *)
