(** SQL tokens. Keywords are recognized case-insensitively by the lexer
    and carried upper-cased. *)

type t =
  | Kw of string  (** upper-cased keyword: SELECT, FROM, WHERE, ... *)
  | Ident of string  (** identifier, case preserved *)
  | Int of int
  | Float of float
  | Str of string  (** single-quoted SQL string, unescaped *)
  | Punct of string  (** one of ( ) , ; . * = <> != < <= > >= + - / || *)
  | Eof

val keywords : string list
(** The recognized keyword set. *)

val is_keyword : string -> bool
(** Case-insensitive membership in {!keywords}. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
val to_string : t -> string

type spanned = { tok : t; span : Span.t }
(** A token with its source location — what {!Lexer.tokenize_spanned}
    produces and the parser threads into the AST. *)
