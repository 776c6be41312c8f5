(** A relational database [(R, E)]: a schema plus one table per relation.

    This module exposes exactly the counting interface the paper's
    IND-Discovery algorithm issues against a live DBMS (§2, §6.1). *)

type t

val create : Schema.t -> t
(** Fresh database with empty extensions. *)

val schema : t -> Schema.t
val table : t -> string -> Table.t
(** Raises [Not_found] for an unknown relation. *)

val table_opt : t -> string -> Table.t option

val insert : t -> string -> Value.t list -> unit
(** Append a tuple into the named relation's extension. *)

val insert_many : t -> string -> Value.t list list -> unit

val replace_table : t -> Table.t -> unit
(** Replace a relation's schema and extension with the given table's
    (added when absent) — used when restructuring drops columns. *)

val add_relation : t -> Relation.t -> unit
(** Extend the schema with a new (empty) relation at runtime — used when
    the expert conceptualizes a new relation during IND-Discovery.
    Raises [Invalid_argument] on a duplicate name. *)

val cardinality : t -> string -> int

val count_distinct : ?engine:Engine.t -> t -> string -> string list -> int
(** [count_distinct db r x] is the paper's [||r[X]||], answered from
    the table's memoized column store ([engine] supplies its
    delta-refresh threshold). *)

val join_count :
  ?engine:Engine.t -> t -> string * string list -> string * string list -> int
(** [join_count db (r1, x1) (r2, x2)] is [||r1[X1] ⋈ r2[X2]||]: the
    intersection of the two memoized distinct sets. *)

val total_tuples : t -> int

val check_constraints : t -> (unit, string list) result
(** Check every relation's dictionary constraints against its extension. *)

val copy_structure : t -> t
(** A new database with the same schema and fresh empty tables. *)

val pp_stats : Format.formatter -> t -> unit
(** One line per relation: name, arity, cardinality. *)
