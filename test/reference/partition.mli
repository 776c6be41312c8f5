(** Stripped partitions (TANE machinery) for fast FD validation.

    The partition [π_X] of a table groups row indices by equal values on
    [X] (with NULL = NULL). The {e stripped} partition drops singleton
    groups. An FD [X -> Y] holds iff refining [π_X] by [Y] creates no new
    group split — checked in linear time via the error measure
    [e(X) = Σ(|c| - 1)] over groups [c]. *)

open Relational

type t = private {
  groups : int array array;  (** equivalence classes of size ≥ 2 *)
  n_rows : int;
}

val of_rows : ?keep:(Relational.Tuple.t -> bool) -> Tuple.t array -> int array -> t
(** Stripped partition of rows on the given positions: what
    {!of_table} computes, for callers that read a table's rows once
    ([Table.rows] decodes on every call). *)

val of_table : ?keep:(Relational.Tuple.t -> bool) -> Table.t -> string list -> t
(** Stripped partition of the table on the given attributes. Rows
    rejected by [keep] (default: all kept) are excluded — used to drop
    NULL-identifier rows in FD checks. *)

val num_groups : t -> int
(** Number of (non-singleton) groups. *)

val error : t -> int
(** [Σ (|c| - 1)] — number of rows that would need removing to make the
    attribute set a key. [error p = 0] iff the attribute set is unique. *)

val rank : t -> int
(** Number of distinct values (including singletons):
    [n_rows - error]. *)

val product : t -> t -> t
(** [π_{X∪Y} = π_X · π_Y], computed with the standard probe-table
    algorithm in [O(n)]. *)

val fd_holds : lhs:t -> lhs_rhs:t -> bool
(** [fd_holds ~lhs:π_X ~lhs_rhs:π_{X∪Y}] — the TANE criterion
    [e(X) = e(X∪Y)]. *)
