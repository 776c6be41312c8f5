(** Extraction of the paper's set [Q] of equi-joins from SQL (§4).

    An equi-join [R_k[A_k] ⋈ R_l[A_l]] is elicited from:
    - conjunctive [WHERE] equalities between columns of two FROM entries
      (several equalities between the same two entries merge into one
      multi-attribute equi-join, as in the §4 rule);
    - [x IN (SELECT y FROM S …)] subqueries;
    - correlated equalities inside [EXISTS]/[IN] subqueries (the outer
      column resolves through the enclosing scopes);
    - [SELECT x FROM R … INTERSECT SELECT y FROM S …].

    Column references resolve through {!Scope.resolve} against the
    schema alone (no views: those are {!Dataflow}'s); a reference that
    does not come back [Found] — ambiguous, unknown, or possibly owned
    by a relation the schema does not know — is skipped silently
    (legacy programs reference dead tables), and the workload lint
    reports it instead. Self-joins produce equi-joins between two
    instances of the same relation. Equalities under [OR]/[NOT] are not elicited (they do
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

val dedupe : t list -> t list
(** Order-preserving duplicate removal. *)

val group : ('k * Scope.column * Scope.column) list -> t list
(** Merge equated column pairs into equi-joins: the pairs that share a
    key form one multi-attribute equi-join between the relations of
    their first pair (keys in order of first appearance), duplicates
    removed. The §4 rule keys by FROM-instance pair; {!Dataflow} keys
    by statement and relation pair. *)

val pairs :
  Schema.t ->
  Ast.statement ->
  ((Scope.entry * Scope.entry) * Scope.column * Scope.column) list
(** The one walk of a statement: every equated column pair, keyed by
    the FROM-instance pair it links, in statement order, with the spans
    of its references. Queries contribute as described above;
    [UPDATE]/[DELETE] conditions are scanned too; [SELECT ... INTO],
    [DECLARE ... CURSOR] and [CREATE VIEW] contribute their embedded
    query; [INSERT INTO t (cols) SELECT ...] additionally pairs each
    target column (no span) with its projected source column
    positionally (the copied values must agree — navigation evidence);
    DDL and plain [INSERT] contribute nothing. Inter-statement
    (host-variable) evidence is the job of {!Dataflow}. *)

val of_statement : Schema.t -> Ast.statement -> t list
(** [group (pairs schema stmt)]. *)
