(** Execution of the SELECT subset against a {!Relational.Database}.

    A reference interpreter, not an optimizer: FROM builds a product of
    alias-qualified tables, WHERE filters with collapsed three-valued
    logic (comparisons involving NULL are false), subqueries are
    re-evaluated per candidate row (correlation is resolved through the
    enclosing row's bindings) after the WHERE conjuncts that hold none
    have kept it. Supports DISTINCT, GROUP BY with COUNT /
    SUM / AVG / MIN / MAX, ORDER BY, and INTERSECT / UNION / EXCEPT.

    Used by tests as an independent oracle for the counting primitives
    and to replay migration scripts. *)

open Relational
open Sqlx

exception Error of string

val run :
  ?host:(string -> Value.t) ->
  Database.t ->
  Ast.query ->
  Algebra.derived
(** Evaluate a query. [host] supplies values for [:var] host variables
    (default: raise {!Error}). Raises {!Error} on unknown relations or
    columns, ambiguous references, or unsupported shapes (e.g. a
    non-grouped column projected next to an aggregate). *)

val run_string : ?host:(string -> Value.t) -> Database.t -> string -> Algebra.derived
(** Parse then {!run}; raises {!Error} ["parse error: …"] on a text
    that does not parse. *)

val exec_statement : ?host:(string -> Value.t) -> Database.t -> Ast.statement -> unit
(** Apply a statement to the database:
    - [CREATE TABLE] adds an empty relation;
    - [INSERT … VALUES] appends literal tuples (missing columns NULL);
    - [INSERT … SELECT] evaluates the query and appends its rows
      (column list maps positionally; widths must agree);
    - [UPDATE] / [DELETE] rewrite or drop the rows matching the
      condition;
    - [ALTER TABLE … DROP COLUMN] physically removes the column
      (constraints mentioning it are discarded);
    - [ALTER TABLE … ADD FOREIGN KEY] {e validates} the constraint
      against the extension — [r[X] ⊆ s[Y]] iff
      [||r[X] ⋈ s[Y]|| = ||r[X]||], counted by the column stores — and
      raises {!Error} when violated (the engine has no persistent
      constraint store — this models a DBMS rejecting an unsatisfiable
      [ALTER]).
    [Query] statements evaluate and discard their result. Raises
    {!Error} on an unknown relation or column, a [CREATE TABLE] of an
    existing relation or one {!Ddl.relation_of_create} refuses, or
    foreign-key column lists of different widths. *)

val exec_script : ?host:(string -> Value.t) -> Database.t -> string -> unit
(** Parse and {!exec_statement} each statement in order; a script that
    does not parse raises {!Error} ["parse error: …"] before any
    statement runs. *)

val count_distinct_sql : Database.t -> string -> string list -> int
(** [count_distinct_sql db r xs] runs
    [SELECT COUNT(DISTINCT x) FROM r] through the interpreter — the §2
    [||·||] primitive expressed in SQL (multi-attribute counts are
    computed by projecting then deduplicating). *)
