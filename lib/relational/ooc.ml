(* Process-wide out-of-core policy: spill configuration and the
   resident-segment budget.

   The column store asks two questions of this module: "how big are
   segments and where may they spill?" ([config]) and "a sealed segment
   of [words] heap words just became resident — may it stay?"
   ([register]). Residency is tracked globally (segments from every
   store compete for the same budget, which is what a shared process
   heap actually looks like) with an LRU clock: when the budget is
   exceeded the coldest evictable segment is asked to spill itself via
   the callback it registered with.

   Locking: [register]/[touch]/[unregister] take the manager mutex.
   Eviction callbacks run *while the mutex is held*, so they must never
   call back into the locking entry points — they only flip the owning
   segment to its on-disk state and bump atomic counters. Readers never
   lock: a sweep grabs the payload reference once, and the GC keeps it
   alive even if the segment is evicted mid-sweep. *)

type config = {
  spill_dir : string option;
  resident_budget_words : int option;
  segment_rows : int;
}

let default_segment_rows = 65536

let default_config =
  {
    spill_dir = None;
    resident_budget_words = None;
    segment_rows = default_segment_rows;
  }

let current = ref default_config
let config_lock = Mutex.create ()

(* single unlocked read of an immutable record: benign *)
let config () = !current

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Unix.mkdir dir 0o700 with Unix.Unix_error (Unix.EEXIST, _, _) -> ())
  end

let configure ?spill_dir ?resident_budget_words ?segment_rows () =
  (* validate (and perform the one effect that can raise) before taking
     the lock: a raise below would leak it *)
  (match segment_rows with
  | Some r when r < 4 -> invalid_arg "Ooc.configure: segment_rows < 4"
  | _ -> ());
  (match spill_dir with Some d -> mkdir_p d | None -> ());
  Mutex.lock config_lock;
  let c = !current in
  let c =
    match spill_dir with None -> c | Some d -> { c with spill_dir = Some d }
  in
  let c =
    match resident_budget_words with
    | None -> c
    | Some w -> { c with resident_budget_words = Some w }
  in
  let c =
    match segment_rows with None -> c | Some r -> { c with segment_rows = r }
  in
  current := c;
  Mutex.unlock config_lock

(* fresh spill path for a segment, or [None] when no spill dir is set
   (segments are then pinned in RAM regardless of budget) *)
let spill_target ~id =
  match (config ()).spill_dir with
  | None -> None
  | Some dir ->
      Some
        (Filename.concat dir
           (Printf.sprintf "dbre-seg-%d-%d.bin" (Unix.getpid ()) id))

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

let spill_writes = Atomic.make 0
let map_loads = Atomic.make 0
let evictions = Atomic.make 0
let zone_segments_swept = Atomic.make 0

let note_spill () = Atomic.incr spill_writes
let note_map () = Atomic.incr map_loads
let note_zone_sweep () = Atomic.incr zone_segments_swept

(* ------------------------------------------------------------------ *)
(* residency manager                                                   *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_words : int;
  (* spill the segment; [false] means it cannot be evicted (no spill
     dir) and should stop being considered *)
  e_evict : unit -> bool;
  mutable e_tick : int;
  mutable e_pinned : bool;
}

let lock = Mutex.create ()
let entries : (int, entry) Hashtbl.t = Hashtbl.create 256
let resident_words = ref 0
let clock = ref 0

(* Segment ids whose owning store was garbage-collected. GC finalizers
   must not take [lock] (a finalizer can run mid-allocation inside a
   locked section of the same thread), so they push ids here lock-free
   and the next locked entry point drains them. *)
let graveyard : int list Atomic.t = Atomic.make []

let rec bury ids =
  match ids with
  | [] -> ()
  | _ ->
      let cur = Atomic.get graveyard in
      if not (Atomic.compare_and_set graveyard cur (List.rev_append ids cur))
      then bury ids

let drain_graveyard_locked () =
  match Atomic.exchange graveyard [] with
  | [] -> ()
  | ids ->
      List.iter
        (fun id ->
          match Hashtbl.find_opt entries id with
          | None -> ()
          | Some e ->
              Hashtbl.remove entries id;
              resident_words := !resident_words - e.e_words)
        ids

let locked f =
  Mutex.lock lock;
  drain_graveyard_locked ();
  Fun.protect ~finally:(fun () -> Mutex.unlock lock) f

(* Evict coldest entries until we fit the budget. Called with the lock
   held. The entry being registered right now ([fresh]) is evicted only
   as a last resort (it alone may exceed the budget). *)
let enforce_budget ~fresh =
  match (config ()).resident_budget_words with
  | None -> ()
  | Some budget ->
      let progress = ref true in
      while !resident_words > budget && !progress do
        let victim = ref None in
        Hashtbl.iter
          (fun id e ->
            if (not e.e_pinned) && id <> fresh then
              match !victim with
              | Some (_, v) when v.e_tick <= e.e_tick -> ()
              | _ -> victim := Some (id, e))
          entries;
        (* last resort: the freshly registered segment itself *)
        (match !victim with
        | None -> (
            match Hashtbl.find_opt entries fresh with
            | Some e when not e.e_pinned -> victim := Some (fresh, e)
            | _ -> ())
        | Some _ -> ());
        match !victim with
        | None -> progress := false
        | Some (id, e) ->
            if e.e_evict () then begin
              Hashtbl.remove entries id;
              resident_words := !resident_words - e.e_words;
              Atomic.incr evictions
            end
            else
              (* unevictable (no spill dir): pin so we stop retrying *)
              e.e_pinned <- true
      done

let register ~id ~words ~evict =
  locked (fun () ->
      (match Hashtbl.find_opt entries id with
      | Some old -> resident_words := !resident_words - old.e_words
      | None -> ());
      incr clock;
      Hashtbl.replace entries id
        { e_words = words; e_evict = evict; e_tick = !clock; e_pinned = false };
      resident_words := !resident_words + words;
      enforce_budget ~fresh:id)

let touch ~id =
  locked (fun () ->
      match Hashtbl.find_opt entries id with
      | None -> ()
      | Some e ->
          incr clock;
          e.e_tick <- !clock)

let unregister ~id =
  locked (fun () ->
      match Hashtbl.find_opt entries id with
      | None -> ()
      | Some e ->
          Hashtbl.remove entries id;
          resident_words := !resident_words - e.e_words)

(* ------------------------------------------------------------------ *)
(* stats                                                               *)
(* ------------------------------------------------------------------ *)

type stats = {
  resident_segments : int;
  resident_words : int;
  spill_writes : int;
  map_loads : int;
  evictions : int;
  zone_segments_skipped : int;
  zone_segments_swept : int;
  ind_zone_short_circuits : int;
}

let stats () =
  let resident_segments, words =
    locked (fun () -> (Hashtbl.length entries, !resident_words))
  in
  {
    resident_segments;
    resident_words = words;
    spill_writes = Atomic.get spill_writes;
    map_loads = Atomic.get map_loads;
    evictions = Atomic.get evictions;
    zone_segments_skipped = 0;
    zone_segments_swept = Atomic.get zone_segments_swept;
    ind_zone_short_circuits = 0;
  }

let reset_stats () =
  Atomic.set spill_writes 0;
  Atomic.set map_loads 0;
  Atomic.set evictions 0;
  Atomic.set zone_segments_swept 0

(* run [f] under a temporary configuration, restoring the previous one
   afterwards; test/bench helper *)
let with_config ?spill_dir ?resident_budget_words ?segment_rows f =
  let saved = config () in
  configure ?spill_dir ?resident_budget_words ?segment_rows ();
  Fun.protect
    ~finally:(fun () ->
      Mutex.lock config_lock;
      current := saved;
      Mutex.unlock config_lock)
    f
