(** Process-wide out-of-core policy: spill configuration and the
    resident-segment LRU budget shared by every {!Column_store}.

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

val spill_target : id:int -> string option
(** Spill-file path for segment [id], or [None] when no spill dir is
    configured. *)

(** {2 Residency} *)

val register : id:int -> words:int -> evict:(unit -> bool) -> unit
(** Declare segment [id] resident at [words] heap words. [evict] is
    called (with the manager lock held — it must not call back into
    this module's locking entry points) when the segment is chosen for
    eviction; returning [false] marks it unevictable. May immediately
    evict cold segments — including, as a last resort, [id] itself —
    to honor the budget. *)

val touch : id:int -> unit
(** LRU bump on access. *)

val unregister : id:int -> unit
(** Segment dropped (store rebuilt, compacted or collected). *)

val bury : int list -> unit
(** Lock-free deferred unregister for GC finalizers (which must not
    take the manager lock): the ids are drained at the next locked
    entry point. *)

(** {2 Counters} *)

val note_spill : unit -> unit
val note_map : unit -> unit
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
