(** Dictionary-encoded, segmented, out-of-core columnar extension
    store with shared caches.

    Every counting primitive of the paper — [||r[X]||] (§2), the
    equi-join intersections of IND-Discovery (§6.1), the FD tests of
    RHS-Discovery (§6.2.2), key inference — reduces to projections,
    distinct sets and groupings over the same extension. This module
    computes them over {e dense integer codes}: each attribute's values
    are interned once into a dictionary (NULL holding the reserved code
    0), and every derived structure — multi-column distinct code-tuple
    sets, FD verdicts, cross-table equi-join counts — is memoized inside
    the store, keyed by attribute list (a single column's distinct set
    is its dictionary). This is the only implementation of
    those primitives in the library; the row-at-a-time reference
    implementations they are tested against live with the tests.

    {b Segments.} A column is not one flat code array but a sequence of
    sealed, immutable, fixed-row-count segments (default
    {!Ooc.default_segment_rows} rows; [Engine.make ?segment_rows]
    overrides) followed by an open mutable tail. Sealed segments are
    bit-packed to the width of their largest code (1/2/4/8/16/32 bits
    per code). Under a configured residency budget ({!Ooc.configure},
    or [Engine.make ?spill_dir ?resident_budget_words]) cold segments
    spill their packed image to disk and are mapped back on demand
    ([Unix.map_file]); the packed byte image {e is} the spill file, so
    the spill round-trip cannot alter a code.

    The memoized store instance lives in the table's {!Table.ext}
    cache slot. Mutations no longer clear the slot: a retrieved store
    compares its build version against {!Table.version} and refreshes
    itself in place by replaying the table's mutation log
    ({!Table.deltas_since}) — appending into the open tail (sealing
    full chunks as they accumulate), patching distinct code-tuple sets
    and witness counts, re-checking retained FD sweep states in
    O(delta) — with a fallback to full rebuild when the delta exceeds a
    configurable fraction of the extension. Either way a store handed out by
    {!of_table} is never stale. A store is only ever reached through
    its table: a cold store is the [of_table] of a fresh table.

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

val delta_fraction : float
(** Incremental-refresh budget: deltas up to this fraction of the
    extension are absorbed in place, larger ones trigger a full
    rebuild. [0.25]. *)

val of_table : Table.t -> t
(** The memoized store for this table. Building is O(1); columns are
    encoded on first use. If the table has mutated since the store was
    built, the store refreshes itself in place first (incrementally
    when the delta is within {!delta_fraction} of the extension, by full
    rebuild otherwise) — the returned store is never stale. *)

type refresh_outcome =
  | Store_fresh  (** store already matched the table version *)
  | Store_absorbed of int  (** delta of this many rows applied in place *)
  | Store_rebuilt  (** delta too large or log trimmed: full rebuild *)

val refresh_all : Table.t list -> refresh_outcome option list
(** Bring the stashed stores of a set of tables (a database) up to
    date now, reporting per table what that took ([None] when no store
    is stashed). This is the refresh {!of_table} performs implicitly,
    made explicit and coordinated: every stashed store is refreshed,
    then cross-store equi-join memos are patched {e exactly} from the
    refreshed stores' added-key summaries, kept as codes that cross to
    the peer store through its intern tables, instead of being dropped —
    which the implicit single-store refresh cannot do (it only knows
    the peer's uid, not the peer). Join memos whose peer is outside
    the set, or either of whose sides saw a deletion or rebuild, are
    dropped and recomputed on demand. *)

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

val count_distinct : t -> string list -> int
(** [||r[X]||], skipping rows with a NULL in [X]. One attribute's count
    is its dictionary size, with no row pass (deletes drop dead codes as
    they compact); several attributes' distinct code tuples are
    memoized. *)

val witness_count : t -> string list -> int
(** Number of rows NULL-free on the given attributes. *)

val unique : t -> string list -> bool
(** SQL UNIQUE over the extension: all NULL-free rows distinct, and at
    least one witness. *)

val project : ?distinct:string list -> t -> Relation.t -> Table.t
(** [project s rel] is the extension of [s] projected onto [rel]'s
    attributes — a subset of the store's, in [rel]'s order — as a new
    table over [rel], rows in source order. With [~distinct:xs] rows
    holding NULL in any of [xs] (which must be projected attributes)
    are skipped and only the first occurrence of each projected row is
    kept, by the same code-tuple pass {!count_distinct} runs. The pass
    walks the encoded blocks (mapping spilled segments back as needed)
    and remaps each column's codes to the output's first-occurrence
    codes through a {!Builder}: the result is a deferred table whose
    store is fully encoded, with the dictionaries and codes a fresh
    encode of the projected rows would have, and no tuple array is
    built on either side. *)

val equijoin_distinct_count : t -> string list -> t -> string list -> int
(** [||r1[x1] ⋈ r2[x2]||] on dictionary codes: walk the distinct code
    tuples of the side {!walks_left} picks and count those whose values
    the other side's intern tables know (for several attributes, whose
    translation is also in its distinct set). Equality is structural
    [Value.t] equality ([Int 1] ≠ [Float 1.0]). Memoized in the left
    store, keyed by [(x1, uid r2, x2)] — a refreshed or rebuilt store
    renews its uid, so entries are never stale; {!refresh_all} patches
    and rekeys them exactly. Raises [Invalid_argument] on a width
    mismatch. *)

val walks_left : t -> string list -> t -> string list -> bool
(** Whether a join count of [r1] on [x1] with [r2] on [x2] walks [r1]'s
    tuples and probes [r2]'s intern tables: the side with fewer distinct
    tuples is walked, the left one on a tie. *)

val unary_included : t -> string -> t -> string -> bool
(** Every non-NULL value of [r1.a1] occurs in [r2.a2]: walks [r1.a1]'s
    dictionary through [r2.a2]'s intern table, stopping at the first
    miss. *)

val common_values : t -> string list -> t -> string list -> Value.t list list
(** The distinct NULL-free projections of [r1] on [x1] that also occur
    in [r2] on [x2], as [r1]'s value lists, in no particular order:
    the tuples {!equijoin_distinct_count} counts, decoded. *)

val prepare : ?probe:bool -> t -> string list -> unit
(** Build one side of a join count: its columns and, for several
    attributes, its distinct code tuples; with [~probe:true] (the side
    {!walks_left} probes) also its intern tables. Touches only this
    store, so distinct stores may be prepared on different domains. *)

val fd_batch :
  ?pool:Domain_pool.t -> t -> lhs:string list -> rhs:string list ->
  (string * bool) list
(** [(a, lhs -> a holds)] for every [a] of [rhs], in order: the FD
    check (NULL-LHS rows exempt, NULL = NULL on the RHS). Columns not
    yet encoded are encoded first ({!ensure_columns}, fanned over
    [pool] when one is given); then one fused sweep groups on the LHS
    codes and answers every candidate, segment-by-segment over the
    packed codes — never materializing the row array. A sweep that
    ends with a holding candidate keeps its code-level state (LHS
    group table, per-candidate representative codes), and appended
    rows' codes run through the same kernel, so appends re-check true
    verdicts in O(delta). Already-memoized verdicts are reused; fresh
    ones are memoized. Call only from the domain that owns the
    store. *)

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

    Interning shares the post-hoc encoder's flat intern table
    (structural equality on [Value.t]), and codes are assigned in row
    order, so a finished builder is indistinguishable from [of_table]
    + encode over the same rows. *)
module Builder : sig
  type b
  type t = b

  val create : Relation.t -> t
  (** Captures the segment size from the current {!Ooc.config}. *)

  val begin_row : t -> unit
  (** Open a row of cells, closed by {!end_row} or {!drop_row}: grow
      now every intern table that one more insert would take past half
      full, so the slot each [cell_*] call probes stays valid until the
      row ends. *)

  val cell_int : t -> int -> int -> int
  val cell_bytes : t -> int -> bytes -> int -> int -> int
  val cell_value : t -> int -> Value.t -> int
  (** [cell_int b pos n], [cell_bytes b pos buf off len] (the
      [Value.String] spelled by those bytes, hashed and compared in
      place) and [cell_value b pos v] set the open row's cell at
      attribute position [pos] with one probe of its column's table:
      the code when the value is interned (NULL is always 0), else -1
      with the miss staged (bytes are copied, so [buf] may be reused at
      once). At most one call per position per row. *)

  val end_row : t -> unit
  (** Intern the row's staged misses, in attribute order, as the next
      codes of their columns, then {!append} the row. Positions no
      [cell_*] call set are NULL. *)

  val drop_row : t -> unit
  (** Discard the open row: its staged misses never reach a dictionary. *)

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
