(** SQL lexer.

    Skips whitespace, [-- line] comments and [/* block */] comments.
    Identifiers may be double-quoted (case preserved, never a keyword).
    An illegal character, an unterminated string/comment or an integer
    literal out of range is [Error "lexical error at offset N: …"],
    [N] the byte offset in the input. *)

val tokenize : string -> (Token.t list, string) result
(** Whole-input lexing; a token list always ends with [Token.Eof]. *)

val tokenize_spanned :
  ?base:Span.base ->
  ?locate:(int -> Span.base) ->
  string ->
  (Token.spanned list, string) result
(** Like {!tokenize} but every token carries its source span. [base]
    (default {!Span.base0}) re-bases spans onto an enclosing text — used
    by {!Embedded} so spans of SQL extracted from a host program point
    into the host source. When the fragment-to-host mapping is not a
    single offset shift (a dynamic-SQL string merged from several
    literals), pass [locate] instead: it maps each fragment-relative
    byte offset to its exact host position and takes precedence over
    [base]. *)
