(* Process-wide out-of-core policy and the sealed segments it governs:
   spill configuration, the packed payload of every sealed segment, its
   spill file, map-back and release, and the resident-segment budget.

   The column store seals a block of codes ([seal]) and reads it back
   ([decode_into]); everything between is this module's. Residency is
   tracked globally (segments from every store compete for the same
   budget, which is what a shared process heap actually looks like)
   with an LRU clock: when the budget is exceeded the coldest evictable
   segment's payload is written to its spill file and dropped.

   Locking: sealing, map-back, reads of a resident segment and release
   take the manager mutex. Eviction runs *while it is held*, so it only
   writes files, flips payload fields and bumps atomic counters. A
   reader grabs the payload reference once, and the GC keeps it alive
   even if the segment is evicted mid-sweep. *)

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

(* ------------------------------------------------------------------ *)
(* counters                                                            *)
(* ------------------------------------------------------------------ *)

let spill_writes = Atomic.make 0
let map_loads = Atomic.make 0
let evictions = Atomic.make 0
let zone_segments_swept = Atomic.make 0
let note_zone_sweep () = Atomic.incr zone_segments_swept

(* ------------------------------------------------------------------ *)
(* sealed segments                                                     *)
(* ------------------------------------------------------------------ *)

(* Where a sealed segment's codes are: [codes] is the resident payload
   (packed in the heap, or mapped from the spill file), [None] once
   evicted; [path] is the spill file, once written, and [sum] the
   checksum of its bytes, which map-back checks. The LRU entry holds
   this cell, not the segment, so a segment nothing else reaches is
   collected and its finaliser ([seal]) runs. Its fields change only
   under the manager lock, or by the segment's owner. *)
type payload = {
  mutable codes : Packed_codes.t option;
  mutable path : string option;
  mutable sum : int;
}

type segment = {
  id : int;  (* process-unique: the residency key *)
  len : int;
  max_code : int;  (* largest code, 0 if all NULL *)
  width : int;  (* pack width in bits; 0 = raw 64-bit *)
  payload : payload;
}

let length s = s.len
let max_code s = s.max_code
let width s = s.width
let resident s = Option.is_some s.payload.codes

(* Spill the payload to its file (written once; a mapped payload already
   lives there) and drop the resident reference. Runs with the manager
   lock held: file I/O, field flips and counter bumps only. [false]
   (unevictable) when no spill directory is configured. *)
let evict id p =
  match p.codes with
  | None -> true
  | Some codes ->
      let on_disk =
        Option.is_some p.path
        ||
        match (config ()).spill_dir with
        | None -> false
        | Some dir ->
            let path =
              Filename.concat dir (Printf.sprintf "dbre-seg-%d-%d.bin" (Unix.getpid ()) id)
            in
            p.sum <- Packed_codes.write_file path codes;
            p.path <- Some path;
            Atomic.incr spill_writes;
            true
      in
      if on_disk then p.codes <- None;
      on_disk

(* forget the payload and delete its spill file *)
let drop p =
  Option.iter (fun path -> try Sys.remove path with Sys_error _ -> ()) p.path;
  p.path <- None;
  p.codes <- None

(* ------------------------------------------------------------------ *)
(* residency manager                                                   *)
(* ------------------------------------------------------------------ *)

type entry = {
  e_words : int;
  e_payload : payload;
  mutable e_tick : int;
  mutable e_pinned : bool;  (* unevictable (no spill dir): stop trying *)
}

let lock = Mutex.create ()
let entries : (int, entry) Hashtbl.t = Hashtbl.create 256
let resident_words = ref 0
let clock = ref 0

(* Collected segments' ids and payloads. GC finalisers must not take
   [lock] (a finaliser can run mid-allocation inside a locked section of
   the same thread), so they push here lock-free and the next locked
   entry point drains them: it leaves the budget and deletes the spill
   file under the lock, so no eviction can write the file after it. *)
let graveyard : (int * payload) list Atomic.t = Atomic.make []

let rec bury dead =
  let cur = Atomic.get graveyard in
  if not (Atomic.compare_and_set graveyard cur (dead :: cur)) then bury dead

let forget_locked id =
  match Hashtbl.find_opt entries id with
  | None -> ()
  | Some e ->
      Hashtbl.remove entries id;
      resident_words := !resident_words - e.e_words

let locked f =
  Mutex.lock lock;
  List.iter
    (fun (id, p) ->
      forget_locked id;
      drop p)
    (Atomic.exchange graveyard []);
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
            if evict id e.e_payload then begin
              forget_locked id;
              Atomic.incr evictions
            end
            else e.e_pinned <- true
      done

(* the segment's payload [codes] just became resident: enter it in the
   LRU, which may evict colder segments, or this one as a last resort *)
let register s codes =
  locked (fun () ->
      forget_locked s.id;
      incr clock;
      Hashtbl.replace entries s.id
        {
          e_words = Packed_codes.heap_words codes;
          e_payload = s.payload;
          e_tick = !clock;
          e_pinned = false;
        };
      resident_words := !resident_words + Packed_codes.heap_words codes;
      enforce_budget ~fresh:s.id)

let seg_counter = Atomic.make 0

let seal (src : int array) off n =
  let top = ref 0 in
  for i = off to off + n - 1 do
    if src.(i) > !top then top := src.(i)
  done;
  let codes = Packed_codes.pack ~width:(Packed_codes.width_for !top) src off n in
  let s =
    {
      id = Atomic.fetch_and_add seg_counter 1;
      len = n;
      max_code = !top;
      width = Packed_codes.width codes;
      payload = { codes = Some codes; path = None; sum = 0 };
    }
  in
  (* a collected segment leaves the budget and takes its spill file
     along, at the next locked entry point *)
  Gc.finalise (fun s -> bury (s.id, s.payload)) s;
  register s codes;
  s

(* the resident payload, mapping the spill file back in if evicted; the
   caller's reference keeps it alive even if the segment is evicted
   again mid-sweep *)
let decode_into s dst =
  let codes =
    match s.payload.codes with
    | Some codes ->
        locked (fun () ->
            match Hashtbl.find_opt entries s.id with
            | None -> ()
            | Some e ->
                incr clock;
                e.e_tick <- !clock);
        codes
    | None ->
        let path = match s.payload.path with Some p -> p | None -> assert false in
        let codes = Packed_codes.map_file path ~width:s.width ~len:s.len ~checksum:s.payload.sum in
        s.payload.codes <- Some codes;
        Atomic.incr map_loads;
        register s codes;
        codes
  in
  Packed_codes.decode_into codes dst

let release s =
  locked (fun () ->
      forget_locked s.id;
      drop s.payload)

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
