(** A small relational-algebra evaluator.

    The evaluation layer of the reference SQL interpreter ({!Exec}), and
    an independent specification of the counting primitives for tests.
    Results are {e derived tables}: bags of rows with named columns
    (duplicates preserved unless {!expr-Distinct} is applied). *)

open Relational

type derived = { cols : string list; rows : Value.t list list }
(** A computed result. Column names are unique within [cols]. *)

type pred =
  | True
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Cmp of cmp * operand * operand
  | Is_null of operand
(** Row predicates. Comparisons involving NULL are false (SQL-ish
    three-valued logic collapsed to two values: unknown ⇒ false),
    except [Is_null]. *)

and cmp = Eq | Neq | Lt | Leq | Gt | Geq

and operand = Col of string | Const of Value.t

type expr =
  | Rel of string  (** base relation, looked up in the database *)
  | Project of string list * expr
  | Select of pred * expr
  | Product of expr * expr
      (** column clash resolved by prefixing with side-unique names is the
          caller's duty; evaluation fails on a clash *)
  | Equijoin of (string * string) list * expr * expr
      (** join on [left_col = right_col] pairs; right join columns are
          dropped from the result *)
  | Rename of (string * string) list * expr  (** [(old, new)] pairs *)
  | Distinct of expr
  | Union of expr * expr
  | Inter of expr * expr
  | Diff of expr * expr
(** Set operations use distinct (set) semantics, like SQL's
    [UNION]/[INTERSECT]/[EXCEPT] without [ALL]. *)

val eval : Database.t -> expr -> derived
(** Evaluate an expression. Raises [Failure] on unknown relations or
    columns, column clashes in products, or arity mismatches in set
    operations. *)

val col : derived -> string -> int
(** Column position in a derived table; raises [Failure]. *)

val pp_derived : Format.formatter -> derived -> unit
