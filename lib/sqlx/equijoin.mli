(** Extraction of the paper's set [Q] of equi-joins from SQL (§4).

    An equi-join [R_k[A_k] ⋈ R_l[A_l]] is elicited from:
    - conjunctive [WHERE] equalities between columns of two FROM entries
      (several equalities between the same two entries merge into one
      multi-attribute equi-join, as in the §4 rule);
    - [x IN (SELECT y FROM S …)] subqueries;
    - correlated equalities inside [EXISTS]/[IN] subqueries (the outer
      column resolves through the enclosing scopes);
    - [SELECT x FROM R … INTERSECT SELECT y FROM S …].

    Column references are resolved through FROM aliases and, for
    unqualified names, through the schema; unresolvable or ambiguous
    references are skipped silently (legacy programs reference dead
    tables). Self-joins produce equi-joins between two instances of the
    same relation. Equalities under [OR]/[NOT] are not elicited (they do
    not constrain navigation), but subqueries nested under them are still
    visited. *)

open Relational

type t = private {
  rel1 : string;
  attrs1 : string list;
  rel2 : string;
  attrs2 : string list;
}
(** [attrs1]/[attrs2] are aligned positionally. Values are canonical:
    sides ordered, attribute pairs sorted — so structural equality is
    semantic equality. *)

val make : string * string list -> string * string list -> t
(** Canonicalizing constructor; raises [Invalid_argument] on width
    mismatch or empty sides. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Paper notation: [R[a] |X| S[b]]. *)

val to_string : t -> string

val of_query : Schema.t -> Ast.query -> t list
(** All equi-joins elicited from one query (duplicates removed). *)

val of_statement : Schema.t -> Ast.statement -> t list
(** Queries contribute via {!of_query}; [UPDATE]/[DELETE] conditions are
    scanned too; [SELECT ... INTO], [DECLARE ... CURSOR] and
    [CREATE VIEW] contribute their embedded query;
    [INSERT INTO t (cols) SELECT ...] additionally pairs each target
    column with its projected source column positionally (the copied
    values must agree — navigation evidence); DDL and plain [INSERT]
    contribute nothing. Inter-statement (host-variable) evidence is the
    job of {!Dataflow}. *)

val dedupe : t list -> t list
(** Order-preserving duplicate removal. *)

type resolved_col = { rc_rel : string; rc_attr : string; rc_span : Span.t }
(** A schema-resolved column reference with the source span of the
    reference it was elicited from ({!Span.dummy} when synthesized). *)

val column_pairs_of_statement :
  Schema.t -> Ast.statement -> (resolved_col * resolved_col) list
(** The raw equated column pairs behind {!of_statement}, before grouping
    into multi-attribute equi-joins — one pair per elicited equality,
    with spans. Used by diagnostics (domain-compatibility checks need to
    point at the offending predicate). *)
