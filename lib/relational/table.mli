(** Tables: a relation schema together with its extension.

    A table is a schema over its {!Column_store}: the store's dictionary
    codes are the only copy of the rows, mutations apply to them at
    once, and {!rows} decodes them on demand. A table answers no
    counting question itself. The paper's primitives over an extension
    (§2) — [||r[X]||], join counts, FD and key checks, projections —
    are answered by its store ({!store}), the library's one
    implementation of each; the row-at-a-time versions they are tested
    against live with the tests. *)

type t

val create : Relation.t -> t
(** An empty table over the given schema. *)

val of_store : Relation.t -> Column_store.t -> t
(** The table over a built store (a load, a projection). The relation
    must declare exactly the store's attribute list; raises
    [Invalid_argument] otherwise. *)

val with_schema : t -> Relation.t -> t
(** [with_schema t rel] is a view of [t] under [rel] — the same store,
    so a mutation through either is seen by both. [rel] must declare
    exactly [t]'s attribute list (constraint-only updates, e.g.
    {!Relation.add_unique}); raises [Invalid_argument] otherwise. *)

val schema : t -> Relation.t
val store : t -> Column_store.t
val cardinality : t -> int

val version : t -> int
(** Monotonic revision counter, bumped once per mutation ({!insert},
    one whole {!insert_many} batch, {!delete_rows}). *)

val insert : t -> Value.t list -> unit
(** Append one tuple. Raises [Invalid_argument] on an arity mismatch. No
    constraint checking happens on insert — legacy extensions are allowed
    to violate their dictionary constraints. Amortized O(arity). *)

val insert_many : t -> Value.t list list -> unit
(** Append a whole batch transactionally: every row's arity is
    validated before anything is touched (an arity error leaves the
    table unchanged), and the batch costs one version bump. *)

val insert_tuple : t -> Tuple.t -> unit

val delete_rows : t -> int list -> unit
(** Remove the rows at the given indices (in the current {!rows}
    numbering; duplicates are collapsed). Raises [Invalid_argument] on
    an out-of-range index, leaving the table unchanged. One version
    bump per call; the empty list is a no-op. *)

val rows : t -> Tuple.t array
(** All tuples in insertion order, decoded from the store on every
    call: read it once, not once per loop iteration. *)

val to_lists : t -> Value.t list list

val positions : t -> string list -> int array
(** Column positions for the given attribute names; raises
    [Invalid_argument] on an unknown attribute. *)

val value : t -> Tuple.t -> string -> Value.t
(** [value t tup a] is the component of [tup] for attribute [a]. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Debug rendering: header plus at most [max_rows] rows (default 20). *)
