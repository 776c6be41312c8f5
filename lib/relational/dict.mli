(** One column's dictionary: code -> value in first-occurrence order
    (code 0 is NULL), and the value -> code intern table over it.

    Values are kept in one of three planes, set by the constructor of
    the first non-NULL value: a flat [int array] for [Value.Int], one
    byte arena plus an offset array for [Value.String], and a boxed
    [Value.t] array for anything else. The first value of another
    constructor widens the dictionary to the boxed plane once, in
    O(dictionary). So a column loaded from CSV under an [Int] or
    [String] domain holds no [Value.t]. Its intern table is one word a
    slot, 30 bits of the key's hash and the code, at most
    three-quarters full: a key is confirmed against the plane at the
    slot's code. Growing a table past 2^30 slots raises
    [Invalid_argument], so the codes a slot holds fit in 32 bits. An
    [Int] plane whose entries each exceed the one before (an ascending
    surrogate id) needs no table while it stays so: a key above the
    last entry is new, and one below the first or above the last is
    absent. Its table is built by the first key at or below the last
    entry, or by a lookup of a key inside its range. An [Int] plane of
    consecutive keys (a dense surrogate id) keeps no array either:
    entry [c] is [base + c - 1], a key one above the last entry extends
    it, and a lookup is arithmetic. The first write that breaks the run
    (a gap above, a key at or below the last entry, {!reclaim}, a
    widening) builds the array once; no read ever does.

    Identity is that of a polymorphic hashtable ([Stdlib.compare _ _ =
    0]): [Int 1] and [Float 1.0] are two entries, every NaN is one.
    This is the only module that reads a plane: callers see codes, and
    build a [Value.t] only at a boundary ({!get}, {!to_array}). *)

type t

val create : unit -> t
(** A dictionary holding only NULL, with no plane yet. *)

val length : t -> int
(** Codes in use, NULL's 0 included: the next code. *)

(** {2 Boundary reads} *)

val get : t -> int -> Value.t
(** The value of a code; [get d 0 = Null]. Builds the value. *)

val to_array : t -> Value.t array
(** code -> value, a fresh array. *)

val to_strings : t -> string array
(** code -> the value's [Value.to_string], [""] for NULL. *)

val digest : t -> Digest.t
(** A digest of the entries in code order, read off the plane without
    building a value: the same entries in the same plane digest
    alike. *)

val domain : t -> Domain.t
(** The lub of the entries' domains ([Unknown] with none), read off
    the plane when it has one constructor. *)

val heap_words : t -> int
(** Heap words of the plane's arrays (the boxed plane with the values
    it reaches) and of the intern table, if one is live: a report, not
    a budget. 0 for a dense plane, which keeps neither. *)

(** {2 Lookups} *)

val index : t -> unit
(** Build the intern table now if there is none, ascending plane or
    not; a dense plane builds nothing, its lookups being arithmetic.
    After it, lookups only read, so several domains may probe one
    dictionary. *)

val find_in : t -> t -> int -> int
(** [find_in d src c] is the code in [d] of [src]'s entry [c], or -1;
    builds [d]'s table if it has none, except for an [Int] key outside
    an ascending plane's range, which is -1 with no table built and no
    slot read past the key's home, and for any [Int] key of a dense
    plane, answered by arithmetic. Reads both planes directly when they
    are of one kind; a dense [src] is read, never built. *)

val included : t -> t -> bool
(** [included d1 d2]: every entry of [d1] is one of [d2]'s. *)

(** {2 Interning}

    Each probe below takes one lookup: a hit returns the code, a miss
    returns -1 and is {e staged} — its entry written past the plane's
    end, its table slot left empty — until {!commit} takes it as the
    next code. A staged miss never committed leaves nothing to undo.
    Call {!reserve} before each probe, and commit or abandon the miss
    before the next one. *)

val reserve : t -> unit
(** Build the table if there is none, and grow it if one more insert
    would take it past three-quarters full. An ascending plane with no
    table builds nothing: a probe above its last entry stages the miss
    with no slot, a dense plane answers an in-range probe by arithmetic,
    and any other probe builds the table with room for the one
    insert. *)

val probe_int : t -> int -> int
val probe_bytes : t -> bytes -> int -> int -> int
(** [probe_bytes d buf off len] looks up the [Value.String] spelled by
    those bytes, in place; a miss copies them, so [buf] may be reused. *)

val probe_value : t -> Value.t -> int
(** NULL is always 0. *)

val commit : t -> int
(** Take the staged miss as the next code, and return it. With no
    table (a miss staged above an ascending plane) it only takes the
    code. *)

val intern : t -> Value.t -> int
(** The code of a value, interning it on a miss; NULL is 0. A
    dictionary with no table reads its plane until its lookups have
    read as many entries as it holds, and only then builds the table;
    an [Int] above an ascending plane's last entry is appended without
    a read. *)

val push_from : t -> t -> int -> int
(** [push_from d src c] appends [src]'s entry [c], which the caller
    knows is new to [d], as [d]'s next code, with no probe. Drops [d]'s
    table, which would not hold the entry. *)

(** {2 Deletes} *)

val reclaim : t -> lo:int -> int array -> next:int -> unit
(** [reclaim d ~lo remap ~next] renumbers the entries from [lo] on:
    entry [lo + j] becomes entry [remap.(j)] (in [\[lo, next)]), or is
    dropped when that is negative, and [next] is the new length. A live
    table stays exact. *)

val select : t -> int array -> int -> t
(** [select d order n] is a fresh dictionary of [n] codes whose entry
    [i >= 1] is [d]'s entry [order.(i)], with no table. *)

val trim : t -> unit
(** Cut every plane array to its exact length and drop the table. *)
