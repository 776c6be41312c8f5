(* Process-level measurements taken from outside the program: a
   monotonic clock shared by every process on the host (so a child's
   timestamps line up with its parent's), the GC's own counters,
   times(2), /proc/self/status, and the library's public statistics
   ([Ooc.stats], [Column_store.delta_stats]). *)

open Relational

let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let mib_of_words w = float_of_int (w * (Sys.word_size / 8)) /. 1048576.

let peak_heap_mb () = mib_of_words (Gc.quick_stat ()).Gc.top_heap_words

(* VmHWM, the resident-set high-water mark *)
let peak_rss_mb () =
  let status =
    In_channel.with_open_text "/proc/self/status" In_channel.input_all
  in
  match
    List.find_map
      (fun line ->
        if String.starts_with ~prefix:"VmHWM:" line then
          Scanf.sscanf line "VmHWM: %d kB" (fun kb -> Some kb)
        else None)
      (String.split_on_char '\n' status)
  with
  | Some kb -> float_of_int kb /. 1024.
  | None -> failwith "no VmHWM line in /proc/self/status"

let alloc_words () =
  let s = Gc.quick_stat () in
  s.Gc.minor_words +. s.Gc.major_words -. s.Gc.promoted_words

(* cumulative counters; [usage a b] is what happened between two
   snapshots, named and unit-scaled as the per-layer metrics are *)
type snapshot = {
  cpu_s : float;
  alloc : float;
  major : int;
  ooc : Ooc.stats;
  delta : Column_store.delta_stats;
}

let snapshot () =
  let t = Unix.times () in
  {
    cpu_s = t.Unix.tms_utime +. t.Unix.tms_stime;
    alloc = alloc_words ();
    major = (Gc.quick_stat ()).Gc.major_collections;
    ooc = Ooc.stats ();
    delta = Column_store.delta_stats ();
  }

let usage a b =
  let d f = float_of_int (f b.ooc - f a.ooc) in
  let skipped = d (fun s -> s.Ooc.zone_segments_skipped) in
  let swept = d (fun s -> s.Ooc.zone_segments_swept) in
  [
    ("proc.cpu_ms", (b.cpu_s -. a.cpu_s) *. 1e3);
    ("gc.alloc_mw", (b.alloc -. a.alloc) /. 1e6);
    ("gc.major_collections", float_of_int (b.major - a.major));
    ("ooc.spill_writes", d (fun s -> s.Ooc.spill_writes));
    ("ooc.map_loads", d (fun s -> s.Ooc.map_loads));
    ("ooc.evictions", d (fun s -> s.Ooc.evictions));
    ( "ooc.zone_skip_ratio",
      if skipped +. swept > 0. then skipped /. (skipped +. swept) else 0. );
    ("ooc.ind_short_circuits", d (fun s -> s.Ooc.ind_zone_short_circuits));
    ( "column_store.rows_absorbed",
      float_of_int
        (b.delta.Column_store.rows_absorbed - a.delta.Column_store.rows_absorbed)
    );
  ]
