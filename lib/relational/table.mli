(** Tables: a relation schema together with its extension.

    A table stores and mutates rows; it answers no counting question.
    The paper's primitives over an extension (§2) — [||r[X]||], join
    counts, FD and key checks, projections — are answered by the
    table's memoized {!Column_store} ({!Column_store.of_table}), the
    library's one implementation of each; the row-at-a-time versions
    they are tested against live with the tests. *)

type t

type ext = ..
(** Open slot for derived structures memoized against the extension
    (e.g. {!Column_store.t}). Mutations no longer clear the slot: a
    stashed structure compares its build version against {!version} and
    replays the mutation log ({!deltas_since}) to refresh itself
    incrementally — or rebuilds when the log has been trimmed. *)

type delta =
  | Rows_appended of Tuple.t array
      (** tuples appended, in insertion order (one {!insert} or one
          whole {!insert_many} batch) *)
  | Rows_deleted of int array
      (** ascending row indices {e in the numbering just before this
          deletion} *)
(** One logged mutation. Each bumps {!version} by exactly one. *)

val create : Relation.t -> t
(** An empty table over the given schema. *)

val create_deferred : Relation.t -> size:int -> (unit -> Tuple.t array) -> t
(** A table of [size] rows whose tuple array is produced lazily by the
    thunk on the first {!rows} demand (columnar loaders keep tuples
    virtual; pipeline paths that only touch the column store never pay
    for them). The thunk must return exactly [size] tuples and must not
    re-enter this table. Forcing does not bump {!version}; the first
    {!insert} materializes the backing and behaves as usual from then
    on. *)

val materialized : t -> bool
(** Has the tuple array been built (or was this table list-backed from
    the start)? [false] exactly while a deferred backing is still
    unforced — observability for laziness tests. *)

val with_schema : t -> Relation.t -> t
(** [with_schema t rel] is a view of [t] under [rel] — same backing
    storage, row cache and {!ext_cache} (no O(n) copy). [rel] must
    declare exactly [t]'s attribute list (constraint-only updates, e.g.
    {!Relation.add_unique}); raises [Invalid_argument] otherwise. The
    two views share state only up to the next insert into either. *)

val schema : t -> Relation.t
val cardinality : t -> int

val version : t -> int
(** Monotonic revision counter, bumped once per mutation ({!insert},
    one whole {!insert_many} batch, {!delete_rows}) — the cache key
    derived structures compare against, and the coordinate
    {!deltas_since} replays from. *)

val deltas_since : t -> int -> delta list option
(** The mutations applied since [version], oldest first — [Some []]
    when the table is already at that version, [None] when the log can
    no longer replay from there (the version predates the trimmed log,
    or never existed): the consumer must rebuild from the extension.
    The log is trimmed once its logged tuples exceed
    [max (cardinality t) 1024], bounding its memory at roughly one
    extra copy of the extension. *)

val ext_cache : t -> ext option
(** The memoized derived structure, if one has been stashed. The holder
    is responsible for freshness (compare {!version}, replay
    {!deltas_since}). *)

val set_ext_cache : t -> ext -> unit
(** Stash a derived structure; overwritten by later calls. *)

val clear_ext_cache : t -> unit
(** Drop the stashed structure — forces the next {!ext_cache} consumer
    to rebuild from scratch (the pre-delta-maintenance behavior;
    cold-cache baselines and tests). *)

val insert : t -> Value.t list -> unit
(** Append one tuple. Raises [Invalid_argument] on an arity mismatch. No
    constraint checking happens on insert — legacy extensions are allowed
    to violate their dictionary constraints. *)

val insert_many : t -> Value.t list list -> unit
(** Append a whole batch transactionally: every row's arity is
    validated before anything is touched (an arity error leaves the
    table unchanged), and the batch costs one version bump and one
    delta-log entry, not one per row. *)

val insert_tuple : t -> Tuple.t -> unit

val delete_rows : t -> int list -> unit
(** Remove the rows at the given indices (in the current {!rows}
    numbering; duplicates are collapsed). Raises [Invalid_argument] on
    an out-of-range index, leaving the table unchanged. One version
    bump and one delta-log entry per call; the empty list is a no-op.
    A deferred backing is materialized first. *)

val rows : t -> Tuple.t array
(** All tuples in insertion order. The array is cached and shared: do not
    mutate it. *)

val to_lists : t -> Value.t list list

val positions : t -> string list -> int array
(** Column positions for the given attribute names; raises
    [Invalid_argument] on an unknown attribute. *)

val value : t -> Tuple.t -> string -> Value.t
(** [value t tup a] is the component of [tup] for attribute [a]. *)

val pp : ?max_rows:int -> Format.formatter -> t -> unit
(** Debug rendering: header plus at most [max_rows] rows (default 20). *)
