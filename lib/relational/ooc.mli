(** Process-wide out-of-core policy and the sealed segments it governs:
    spill configuration, the resident-segment LRU budget shared by every
    {!Column_store}, and each sealed segment's packed payload, spill
    file, map-back and release. This is the only reader of
    {!Packed_codes}; a column store sees a segment only through
    {!seal}, {!decode_into} and {!release}.

    Configuration is global rather than per-store because the thing
    being budgeted — the process heap — is global. {!Engine.make}'s
    [?spill_dir]/[?resident_budget_words]/[?segment_rows] arguments are
    the front door; this module is the mechanism. *)

type config = {
  spill_dir : string option;
      (** directory for segment spill files; [None] pins all segments
          in RAM (the budget then cannot evict anything) *)
  resident_budget_words : int option;
      (** soft cap on summed resident segment payload words *)
  segment_rows : int;  (** rows per sealed segment (default 65536) *)
}

val default_segment_rows : int
val config : unit -> config

val configure :
  ?spill_dir:string ->
  ?resident_budget_words:int ->
  ?segment_rows:int ->
  unit ->
  unit
(** Merge the given fields into the current configuration. Creates the
    spill directory if needed. Only affects stores built afterwards
    (existing stores keep their segment size; the budget applies to all
    segments immediately). *)

val with_config :
  ?spill_dir:string ->
  ?resident_budget_words:int ->
  ?segment_rows:int ->
  (unit -> 'a) ->
  'a
(** Run under a temporary configuration, restoring the previous one
    afterwards (test/bench helper). *)

(** {2 Sealed segments} *)

type segment
(** An immutable block of codes, bit-packed to the width of its largest
    code. While resident it counts against the budget; evicted, it
    lives in its spill file and maps back on the next read. A segment
    the program no longer reaches leaves the budget and deletes its
    spill file once the GC has collected it, at the next segment or
    stats call. *)

val seal : int array -> int -> int -> segment
(** [seal src off n] packs [src.(off .. off+n-1)] into a resident
    segment, which may evict colder segments, or as a last resort
    itself, to honor the budget. *)

val decode_into : segment -> int array -> unit
(** Write the segment's codes to [dst.(0 .. length-1)], mapping its
    spill file back first when it is evicted (an LRU bump when
    resident). Raises [Error.Error] with [Io_error] on a damaged spill
    file: one of the wrong size or kind, or whose bytes do not match the
    checksum taken when it was written. *)

val release : segment -> unit
(** The segment is dead (its column was compacted, its load chunk
    merged): drop its budget entry and its spill file. It must not be
    read afterwards. *)

val length : segment -> int
val max_code : segment -> int  (** 0 when every code is NULL *)

val width : segment -> int
(** Pack width in bits; 0 = raw 64-bit. *)

val resident : segment -> bool
(** Whether the payload is in memory (packed or mapped); reading this
    never maps a segment back. *)

(** {2 Counters} *)

val note_zone_sweep : unit -> unit

type stats = {
  resident_segments : int;
  resident_words : int;
  spill_writes : int;
  map_loads : int;
  evictions : int;
  zone_segments_skipped : int;
      (** always 0: no sweep skips segments; kept so the record's
          readers keep their shape *)
  zone_segments_swept : int;  (** sealed segments decoded by FD sweeps *)
  ind_zone_short_circuits : int;
      (** always 0: IND counts run on dictionary codes with no range
          short-circuit; kept so the record's readers keep their
          shape *)
}

val stats : unit -> stats
val reset_stats : unit -> unit
