(** Dictionary-encoded, segmented, out-of-core columnar extension
    store with shared caches.

    Every counting primitive of the paper — [||r[X]||] (§2), the
    equi-join intersections of IND-Discovery (§6.1), the FD tests of
    RHS-Discovery (§6.2.2), key inference — reduces to projections,
    distinct sets and groupings over the same extension. This module
    computes them over {e dense integer codes}: each attribute's values
    are interned once into a dictionary (NULL holding the reserved code
    0; a {!Dict}, which keeps an [Int] or [String] column's values
    unboxed), and every derived structure — multi-column distinct code-tuple
    sets, FD verdicts, cross-table equi-join counts — is memoized inside
    the store, keyed by attribute list (a single column's distinct set
    is its dictionary). This is the only implementation of
    those primitives in the library; the row-at-a-time reference
    implementations they are tested against live with the tests.

    {b Owners.} This module keeps the store: columns, dictionaries,
    memos and mutations. A column is a sequence of sealed, immutable,
    fixed-row-count segments (default {!Ooc.default_segment_rows} rows;
    [Engine.make ?segment_rows] overrides) followed by an open mutable
    tail; a sealed segment belongs to {!Ooc}, which packs it, spills it
    under the residency budget, maps it back and releases it. Every
    tuple of codes the store keys — a distinct set, an FD sweep's LHS
    groups, the tuples a mutation window added — is a {!Code_tuples}
    id.

    A table is a schema over its store: there is no other copy of its
    rows, and rows decode from the codes on demand ({!decode}). Mutations apply to the codes at once ({!append},
    {!delete}): an append interns each value once into its column's
    table and extends the tail (sealing full segments as it goes),
    patches the memoized distinct code-tuple sets and witness counts,
    and re-checks retained FD sweeps in O(delta); a delete compacts the
    columns and keeps only the memos it provably cannot change. Either
    way every memo stays exact, so no read ever sees a stale one.

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
(** code -> value; [dict.(0) = Null]. A boundary accessor: a fresh
    copy, every entry built as a [Value.t] (the dictionary itself keeps
    [Int] and [String] columns unboxed, see {!Dict}); no store path
    reads a dictionary through it. *)

val column_strings : column -> string array
(** code -> the value's [Value.to_string], [""] for NULL, read off the
    dictionary without building a value: what a CSV dump writes. *)

val column_domain : column -> Domain.t
(** The lub of the domains of the column's live values ([Unknown] when
    it has none). *)

(** {2 The extension} *)

val create : Relation.t -> t
(** An empty store over the relation's attributes, with the segment
    size of the current {!Ooc.config}. The store reads only the
    attribute names (and the relation name, for messages). *)

val same_attributes : t -> Relation.t -> bool
(** Does the relation declare exactly the store's attribute list? *)

val cardinality : t -> int

val version : t -> int
(** Bumped once per mutation ({!append} or {!delete} of at least one
    row); a load ({!Builder}) leaves a store at version 0. *)

val append : t -> Value.t array array -> unit
(** Append rows, in order, as one mutation. Each row must have one
    value per attribute (unchecked). Each non-NULL value is interned
    once into its column's intern table and its code pushed onto the
    tail; a column with no table (fresh from a load) reads its
    dictionary instead, and builds the table once its lookups have
    read as many entries as the dictionary holds. Tails double while
    they fill (never past a segment), a tail trimmed by a load grows by
    half on its first append, and dictionaries double, so one row
    costs amortized
    O(arity) plus the memo patch below. Memoized distinct code-tuple
    sets take the new tuples, retained FD sweeps re-check their TRUE
    verdicts on the new rows alone (FALSE ones cannot flip back), and
    TRUE verdicts without a sweep are dropped. *)

val delete : t -> int array -> unit
(** Remove the rows at the given positions — ascending, distinct and
    in range (unchecked) — as one mutation. Columns are compacted and
    dead dictionary codes reclaimed, so every column is exactly a fresh
    encode of the surviving rows; a tail delete keeps the intern
    tables exact. Distinct code-tuple sets and FD
    sweeps are dropped, and so are FALSE verdicts; TRUE verdicts
    survive (an FD holding on a superset holds on the subset). *)

val decode : t -> Value.t array array
(** Every row, in insertion order, decoded from the codes: a fresh
    array on each call. *)

val drop_memos : t -> unit
(** Forget every memo (distinct sets, FD verdicts and sweeps, join
    counts), so the next question starts cold: the state a fresh load
    leaves, for cold-cache baselines and tests. *)

(** {2 Refresh} *)

val delta_fraction : float
(** The patch budget: once the rows appended or deleted since a
    store's last {!refresh_all} pass this fraction of its extension,
    its memos are dropped instead of patched. [0.25]. *)

type refresh_outcome =
  | Store_fresh  (** no mutation since the last refresh *)
  | Store_absorbed of int  (** this many rows mutated, memos patched *)
  | Store_rebuilt  (** past {!delta_fraction}: memos were dropped *)

val refresh_all : t list -> refresh_outcome option list
(** Close the mutation window of a set of stores (a database) and
    report per store what its memos went through since the previous
    call ([None] for a store no memo was ever built on, or named as a
    join peer). Mutations keep each store's own memos exact as they
    apply; what they cannot keep is a join count, which spans two
    stores, so every mutation sets its store's join memos aside. This
    pass patches them {e exactly} from both sides' added code tuples
    (the ids a distinct set handed out since the window opened,
    crossing to the peer store through its intern tables) instead of
    dropping them. Join memos whose peer
    is outside the set, or either of whose sides saw a deletion or
    passed the fraction, are dropped and recomputed on demand. *)

type delta_stats = {
  rows_absorbed : int;  (** rows of the windows reported absorbed *)
  incremental_refreshes : int;  (** windows reported absorbed *)
  full_rebuilds : int;  (** windows reported rebuilt *)
}

val delta_stats : unit -> delta_stats
(** Process-wide counters over every {!refresh_all}, for bench logs
    and serve status. *)

val reset_delta_stats : unit -> unit

(** {2 Questions} *)

val column : t -> string -> column
(** One attribute's column. Raises [Invalid_argument] on an unknown
    attribute. *)

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

val project : ?distinct:string list -> t -> Relation.t -> t
(** [project s rel] is the extension of [s] projected onto [rel]'s
    attributes — a subset of the store's, in [rel]'s order — as a new
    store over [rel], rows in source order. With [~distinct:xs] rows
    holding NULL in any of [xs] (which must be projected attributes)
    are skipped and only the first occurrence of each projected row is
    kept, by the same code-tuple pass {!count_distinct} runs. The pass
    walks the encoded blocks (mapping spilled segments back as needed)
    and remaps each column's codes to the output's first-occurrence
    codes through a {!Builder}: the result has the dictionaries and
    codes a fresh encode of the projected rows would have, and no row
    is decoded on either side. *)

val equijoin_distinct_count : t -> string list -> t -> string list -> int
(** [||r1[x1] ⋈ r2[x2]||] on dictionary codes: walk the distinct code
    tuples of the side {!walks_left} picks and count those whose values
    the other side's intern tables know (for several attributes, whose
    translation is also in its distinct set). Equality is structural
    [Value.t] equality ([Int 1] ≠ [Float 1.0]). Memoized in the left
    store, keyed by [(x1, uid r2, x2)] — every mutation renews a
    store's uid, so entries are never stale; {!refresh_all} patches
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
(** Build one side of a join count: for several attributes, its
    distinct code tuples; with [~probe:true] (the side {!walks_left}
    probes) also its intern tables. Touches only this store. *)

val fd_batch : t -> lhs:string list -> rhs:string list -> (string * bool) list
(** [(a, lhs -> a holds)] for every [a] of [rhs], in order: the FD
    check (NULL-LHS rows exempt, NULL = NULL on the RHS). One fused
    sweep groups on the LHS codes and answers every candidate,
    segment-by-segment over the packed codes — never decoding a row. A
    sweep that ends with a holding candidate keeps its code-level state
    (LHS group table, per-candidate representative codes), and
    appended rows' codes run through the same kernel, so appends
    re-check true verdicts in O(delta). Already-memoized verdicts are
    reused; fresh ones are memoized. Call only from the domain that
    owns the store. *)

type residency = {
  sealed_segments : int;
  resident_segments : int;  (** sealed segments with an in-memory payload *)
  spilled_segments : int;  (** sealed segments currently on disk only *)
  tail_rows : int;  (** rows in the open tail *)
  width_histogram : (int * int) list;
      (** pack width in bits (0 = raw) -> sealed segment count *)
  dict_words : int;
      (** heap words of the columns' dictionaries and of any live
          intern tables ({!Dict.heap_words}): always resident, and
          reported beside the budget, not counted in it *)
}

val residency : t -> residency
(** Segment residency of this store's columns, for bench logs and
    serve status. Does not touch payloads (a spilled segment stays
    spilled). *)

val digest : t -> Digest.t
(** A digest of the extension's content: every column's dictionary and
    its codes in row order. Stores holding the same rows agree whatever
    their segment size or load chunking. One pass over every segment
    (mapping spilled ones back); what checkpoints bind to. *)

type store = t

(** Streaming store construction: the ingest path appends dictionary
    codes column-by-column as rows arrive, sealing every full segment
    on the fly — the resident footprint of a bulk load is the open
    tail plus whatever sealed segments the budget keeps warm, never
    the whole extension — so the store exists the moment loading
    finishes, with no second encode pass and no row built.

    It is {!append}'s path with the values' interning split in two (a
    probe per cell, then a commit per row), so a finished builder is
    indistinguishable from an empty store the same rows were appended
    to — apart from its version (0), its exact-length arrays and its
    dropped intern tables. *)
module Builder : sig
  type b
  type t = b

  val create : Relation.t -> t
  (** Captures the segment size from the current {!Ooc.config}. *)

  val begin_row : t -> unit
  (** Open a row of cells, closed by {!end_row} or {!drop_row}: grow
      now every intern table that one more insert would take past
      three-quarters full, so the slot each [cell_*] call probes stays
      valid until the row ends. *)

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

  val finish : t -> store
  (** The built store, every array trimmed to its exact length and the
      intern tables dropped. *)
end
