(** Dictionary-encoded, segmented, out-of-core columnar extension
    store with shared caches.

    Every counting primitive of the paper — [||r[X]||] (§2), the
    equi-join intersections of IND-Discovery (§6.1), the FD tests of
    RHS-Discovery (§6.2.2), key inference — reduces to projections,
    distinct sets and groupings over the same extension. This module
    computes them over {e dense integer codes}: each attribute's values
    are interned once into a dictionary (NULL holding the reserved code
    0), and every derived structure — single/multi-column distinct sets,
    FD verdicts, cross-table equi-join counts — is memoized inside the
    store, keyed by attribute list. This is the only implementation of
    those primitives in the library; the row-at-a-time reference
    implementations they are tested against live with the tests.

    {b Segments.} A column is not one flat code array but a sequence of
    sealed, immutable, fixed-row-count segments (default
    {!Ooc.default_segment_rows} rows; [Engine.make ?segment_rows]
    overrides) followed by an open mutable tail. Sealed segments are
    bit-packed to the dictionary width (1/2/4/8/16/32 bits per code)
    and carry a zone map — min/max code, NULL count, exact distinct
    count — consulted by the verification sweeps: an FD sweep skips a
    segment whose zone map proves it cannot flip any verdict, and an
    IND probe over all-integer dictionaries with disjoint value ranges
    short-circuits to zero without touching a distinct set. Under a
    configured residency budget ({!Ooc.configure}, or
    [Engine.make ?spill_dir ?resident_budget_words]) cold segments
    spill their packed image to disk and are mapped back on demand
    ([Unix.map_file]); the packed byte image {e is} the spill file, so
    the spill round-trip cannot alter a code.

    The memoized store instance lives in the table's {!Table.ext}
    cache slot. Mutations no longer clear the slot: a retrieved store
    compares its build version against {!Table.version} and refreshes
    itself in place by replaying the table's mutation log
    ({!Table.deltas_since}) — appending into the open tail (sealing
    full chunks as they accumulate), patching distinct sets and witness
    counts, re-checking retained FD sweep states in O(delta) — with a
    fallback to full rebuild when the delta exceeds a configurable
    fraction of the extension. Either way a store handed out by
    {!of_table} is never stale. A fresh throwaway store (cold cache)
    can be built with {!build}.

    Equality semantics are those of the row-based definitions
    (structural equality on [Value.t], NULL skipped by distinct
    counting, NULL = NULL for grouping), so the store agrees
    verdict-for-verdict with a row-at-a-time reference — property-tested
    by the equivalence suite, and by the out-of-core suite on both sides
    of the spill threshold. *)

type t

type column
(** One attribute's encoded form: sealed bit-packed segments plus an
    open tail, sharing one dictionary. Abstract — the flat views below
    decode on demand (oracle/test accessors, not hot paths). *)

val column_codes : column -> int array
(** Decoded flat per-row code array (0 is NULL), concatenating every
    sealed segment and the tail. Allocates; test/oracle use only. *)

val column_dict : column -> Value.t array
(** code -> value; [dict.(0) = Null]. Do not mutate. *)

type Table.ext += Store of t
(** How the memoized instance is stashed in {!Table.ext_cache}. *)

val default_delta_fraction : float
(** Incremental-refresh budget when none is given: deltas up to this
    fraction of the extension are absorbed in place, larger ones
    trigger a full rebuild. Currently [0.25]. *)

val of_table : ?delta_fraction:float -> Table.t -> t
(** The memoized store for this table. Building is O(1); columns are
    encoded on first use. If the table has mutated since the store was
    built, the store refreshes itself in place first (incrementally
    when the delta is within [delta_fraction] of the extension, by full
    rebuild otherwise) — the returned store is never stale. *)

val build : Table.t -> t
(** A fresh private store ignoring (and not touching) the memo slot —
    cold-cache measurements and short-lived tables. Not
    delta-maintained (it is rebuilt every call anyway). Segment size
    comes from the current {!Ooc.config}. *)

type refresh_outcome =
  | Store_fresh  (** store already matched the table version *)
  | Store_absorbed of int  (** delta of this many rows applied in place *)
  | Store_rebuilt  (** delta too large or log trimmed: full rebuild *)

val refresh : ?delta_fraction:float -> Table.t -> refresh_outcome option
(** Bring the table's stashed store (if any) up to date now, reporting
    what that took. [None] when no store is stashed. Equivalent to the
    implicit refresh {!of_table} performs, as an explicit entry point. *)

val refresh_all :
  ?delta_fraction:float -> Table.t list -> refresh_outcome option list
(** Coordinated refresh across a set of tables (a database): every
    stashed store is refreshed, then cross-store equi-join memos are
    patched {e exactly} from the refreshed stores' added-key summaries
    instead of being dropped — the coordination single-store refresh
    cannot do (it only knows the peer's uid, not the peer). Join memos
    whose peer is outside the set, or either of whose sides saw a
    deletion or rebuild, are dropped and recomputed on demand. *)

type delta_stats = {
  rows_absorbed : int;  (** total delta rows applied in place *)
  incremental_refreshes : int;
  full_rebuilds : int;  (** fallback rebuilds (fraction exceeded or log
                            trimmed); store creations don't count *)
}

val delta_stats : unit -> delta_stats
(** Process-wide delta-maintenance counters (all stores), for
    {!Engine.describe} and serve status. *)

val reset_delta_stats : unit -> unit

val table : t -> Table.t
val table_version : t -> int
(** {!Table.version} at store construction. *)

val uid : t -> int
(** Globally unique instance id — the cross-store component of
    equi-join cache keys. *)

val column : t -> string -> column
(** Encode (or fetch) one attribute's column. Raises
    [Invalid_argument] on an unknown attribute. *)

val ensure_columns : ?pool:Domain_pool.t -> t -> string list -> unit
(** Encode every still-missing column among the given attributes,
    fanning the independent per-column passes over [pool] when one is
    given (each task writes only its own slot; dictionaries are
    identical to sequential encoding because interning stays in row
    order per column). Call only from the domain that owns the store. *)

val distinct_set : t -> string list -> (Value.t list, unit) Hashtbl.t
(** Distinct NULL-free projections keyed exactly as
    [Table.distinct_table] keys them — memoized; do not mutate. *)

val count_distinct : t -> string list -> int
(** [||r[X]||]. Single-attribute counts are read off the dictionary
    with no row pass (after deletes have been compacted away, the
    dictionary holds only live codes; a tail-only liveness pass covers
    the window between a tail delete and the next reclaim). *)

val witness_count : t -> string list -> int
(** Number of rows NULL-free on the given attributes. *)

val unique : t -> string list -> bool
(** SQL UNIQUE over the extension: all NULL-free rows distinct, and at
    least one witness. *)

val equijoin_distinct_count : t -> string list -> t -> string list -> int
(** [||r1[x1] ⋈ r2[x2]||] by intersecting the two memoized distinct
    sets (iterating the smaller). When both sides are single integer
    attributes with disjoint dictionary value ranges, the count
    short-circuits to 0 without materializing either distinct set (the
    dictionary range is a superset of the live values, so disjointness
    is a proof). The count itself is memoized in the left store, keyed
    by [(x1, uid r2, x2)] — a store refreshed or rebuilt after a
    mutation renews its uid, so entries can never be served stale;
    {!refresh_all} patches and rekeys them exactly. *)

val fd_batch :
  ?pool:Domain_pool.t -> t -> lhs:string list -> rhs:string list ->
  (string * bool) list
(** [(a, lhs -> a holds)] for every [a] of [rhs], in order: the FD
    check (NULL-LHS rows exempt, NULL = NULL on the RHS). Columns not
    yet encoded are encoded first ({!ensure_columns}, fanned over
    [pool] when one is given); then one fused sweep groups on the LHS
    codes and answers every candidate, segment-by-segment over the
    packed codes — never materializing the row array. A cold
    ({!build}) store skips segments whose zone maps prove they cannot
    flip any verdict (a segment all of whose LHS codes are distinct
    within the segment and disjoint from every other segment's range
    holds only singleton groups); a memoized store instead retains the
    sweep state so appends re-check verdicts in O(delta).
    Already-memoized verdicts are reused; fresh ones are memoized. Call
    only from the domain that owns the store. *)

type residency = {
  sealed_segments : int;
  resident_segments : int;  (** sealed segments with an in-memory payload *)
  spilled_segments : int;  (** sealed segments currently on disk only *)
  tail_rows : int;  (** rows in the open tail *)
  width_histogram : (int * int) list;
      (** pack width in bits (0 = raw) -> sealed segment count *)
}

val residency : t -> residency
(** Segment residency of this store's encoded columns, for
    [Engine.describe] and serve status. Does not touch payloads (a
    spilled segment stays spilled). *)

(** Streaming store construction: the ingest path appends dictionary
    codes column-by-column as rows arrive, sealing every full segment
    on the fly — the resident footprint of a bulk load is the open
    tail plus whatever sealed segments the budget keeps warm, never
    the whole extension — so the store exists the moment loading
    finishes: no second encode pass, and no eager tuple array (see
    {!Table.create_deferred}).

    Interning is the same polymorphic-hashtable structural equality as
    the post-hoc encoder, and codes are assigned in row order, so a
    finished builder is indistinguishable from [of_table] + encode over
    the same rows. *)
module Builder : sig
  type b
  type t = b

  val create : Relation.t -> t
  (** Captures the segment size from the current {!Ooc.config}. *)

  val intern : t -> int -> Value.t -> int
  (** [intern b pos v] is the dictionary code for [v] in the column at
      attribute position [pos] (NULL is always 0), allocating the next
      code on first sight. Interning a value does not append a row:
      callers stage a whole row's codes, then {!append} once — rows
      rejected mid-parse must never touch the dictionary. *)

  val append : t -> int array -> unit
  (** Append one row of codes (one per attribute position, in
      declaration order). The array is copied; callers may reuse it.
      Seals a segment whenever the open tail fills. *)

  val rows : t -> int

  val merge : t -> t -> unit
  (** [merge dst src] appends [src]'s rows after [dst]'s, re-interning
      [src]'s chunk-local dictionaries with a code-remap sweep. Merging
      parallel chunks in input order reproduces the sequential
      first-occurrence dictionaries exactly; [dst]'s seal boundaries
      stay aligned no matter where [src]'s fell, and [src]'s segments
      are released as they drain. [src] must not be used afterwards. *)

  val finish : t -> Table.t
  (** Freeze the builder into a lazily-materialized table (see
      {!Table.create_deferred}) whose memoized column store is already
      fully encoded — [of_table] on the result is a cache hit with
      every column present. *)
end
