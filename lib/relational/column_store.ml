(* Dictionary-encoded columnar view of a table, with shared caches for
   the projection and grouping workloads dependency discovery issues:
   the library's one implementation of every extension primitive.

   Equality semantics deliberately mirror the row-at-a-time
   definitions: codes are interned by structural equality on
   [Value.t] ([compare _ _ = 0], the polymorphic hashtable's identity),
   exactly what
   [Table.distinct_table] and the reference FD check key their
   hashtables with, so the store agrees with them verdict-for-verdict.

   Layout: each encoded column is a sequence of immutable *sealed
   segments* of exactly [seg_rows] rows (codes bit-packed to the
   dictionary width, carrying a zone map: min/max code, null count,
   within-segment distinct count) followed by one open mutable *tail*
   of plain int codes holding the remainder. Appends extend the tail
   and seal full chunks off its front; sealed segments never change, so
   they can spill to disk under the [Ooc] residency budget and mmap
   back on demand without any coherence protocol. All of a store's
   columns seal at the same fixed row boundaries, so multi-column
   passes iterate block-aligned: decode segment [s] of every needed
   column, sweep [seg_rows] rows, move on. *)

type zone = {
  z_rows : int;  (* rows in the segment (always the store's seg_rows) *)
  z_min : int;  (* smallest non-NULL code, 0 if all NULL *)
  z_max : int;  (* largest non-NULL code, 0 if all NULL *)
  z_nulls : int;
  z_distinct : int;  (* exact count of distinct non-NULL codes *)
}

type seg_data =
  | Seg_mem of Packed_codes.t  (* resident (packed) or mapped payload *)
  | Seg_disk  (* evicted; [seg_path] holds the spill file *)

type segment = {
  seg_id : int;  (* process-unique: the [Ooc] residency key *)
  seg_zone : zone;
  seg_width : int;  (* pack width in bits; 0 = raw 64-bit *)
  mutable seg_data : seg_data;
  mutable seg_path : string option;  (* spill file, once written *)
}

type column = {
  segs : segment array;  (* sealed, immutable, [seg_rows] rows each *)
  tail : int array;  (* open remainder; 0 is the reserved NULL code *)
  dict : Value.t array;  (* code -> value; dict.(0) = Null *)
  nulls : int;  (* rows holding NULL in this column *)
  sealed_dict : int;
      (* codes < sealed_dict are guaranteed to occur in the sealed
         segments (first-occurrence interning puts every code below a
         sealed maximum before that maximum's first row). Codes >=
         sealed_dict live only in the tail — the only region deletes
         can orphan them from, so the liveness fallback scans the tail
         alone. *)
  tail_exact : bool;
      (* every dict code >= sealed_dict still occurs in [tail];
         tail-only deletes clear this, and the next append or seal
         runs a tail reclaim pass that compacts the dead suffix codes
         away and restores it *)
  mutable vrange : (int * int) option option;
      (* memoized all-[Int] dictionary value range (superset of the
         live values), for the IND disjoint-range short-circuit *)
}

(* Retained state of a completed fused FD sweep (see
   [sweep_fused_codes]): the LHS key -> group-id tables plus, per
   surviving (true-verdict) RHS attribute, the per-group representative
   value. Enough to re-check a verdict against appended rows in
   O(delta) — each new row either joins an existing group (compare
   against the representative) or founds a new one (seed it). Dropped
   on any delete: group emptiness is not tracked, so a deletion could
   leave a stale representative behind. *)
type group_keys =
  | Scalar_keys of (int, int) Hashtbl.t * (Value.t, int) Hashtbl.t
      (* single-attribute LHS: unboxed Int fast path + boxed rest *)
  | Tuple_keys of (Value.t list, int) Hashtbl.t

type sweep_state = {
  mutable sw_groups : int;
  sw_keys : group_keys;
  sw_lhs_pos : int array;
  sw_reprs : (string, Value.t array ref) Hashtbl.t;
      (* rhs attr -> representative per group id; grown on demand *)
}

type t = {
  mutable table : Table.t;
  mutable uid : int;  (* unique per store content: cross-store keys *)
  mutable built_version : int;
  mutable n_rows : int;
  seg_rows : int;  (* fixed sealed-segment size for this store *)
  columns : column option array;  (* by attribute position, lazy *)
  interns : (Value.t, int) Hashtbl.t option array;
      (* per-column value -> code, built from the dictionary on the
         first delta append and kept so later appends intern in O(1)
         per cell *)
  memoized : bool;  (* stashed in Table.ext: worth retaining sweep
                       states for incremental refresh *)
  distinct_sets : (string list, (Value.t list, unit) Hashtbl.t) Hashtbl.t;
  witnesses : (string list, int) Hashtbl.t;  (* NULL-free rows per attrs *)
  fd_verdicts : (string list * string, bool) Hashtbl.t;
  fd_sweeps : (string list, sweep_state) Hashtbl.t;
  join_counts : (string list * int * string list, int) Hashtbl.t;
}

type Table.ext += Store of t

let uid_counter = Atomic.make 0

(* process-wide delta-maintenance counters, surfaced by
   [Engine.describe] and the serve job status *)
type delta_stats = {
  rows_absorbed : int;
  incremental_refreshes : int;
  full_rebuilds : int;
}

let absorbed_ctr = Atomic.make 0
let incremental_ctr = Atomic.make 0
let rebuild_ctr = Atomic.make 0

let delta_stats () =
  {
    rows_absorbed = Atomic.get absorbed_ctr;
    incremental_refreshes = Atomic.get incremental_ctr;
    full_rebuilds = Atomic.get rebuild_ctr;
  }

let reset_delta_stats () =
  Atomic.set absorbed_ctr 0;
  Atomic.set incremental_ctr 0;
  Atomic.set rebuild_ctr 0

let default_delta_fraction = 0.25

(* ------------------------------------------------------------------ *)
(* segment lifecycle                                                   *)
(* ------------------------------------------------------------------ *)

let seg_counter = Atomic.make 0

(* Eviction callback: write the payload to its spill file (once) and
   drop the resident reference. Runs with the Ooc manager lock held, so
   it must not call back into the locking entry points — it only does
   file I/O, field flips and atomic counter bumps. Returns [false]
   (unevictable) when no spill directory is configured. *)
let evict_segment seg =
  match seg.seg_data with
  | Seg_disk -> true
  | Seg_mem p ->
      let on_disk =
        match seg.seg_path with
        | Some _ -> true
        | None -> (
            match Ooc.spill_target ~id:seg.seg_id with
            | None -> false
            | Some path ->
                Packed_codes.write_file path p;
                seg.seg_path <- Some path;
                Ooc.note_spill ();
                true)
      in
      if on_disk then seg.seg_data <- Seg_disk;
      on_disk

let register_segment seg =
  match seg.seg_data with
  | Seg_mem p ->
      Ooc.register ~id:seg.seg_id
        ~words:(Packed_codes.heap_words p)
        ~evict:(fun () -> evict_segment seg)
  | Seg_disk -> ()

(* the segment is dead (store rebuilt, column compacted, builder chunk
   merged): drop its budget entry and its spill file *)
let release_segment seg =
  Ooc.unregister ~id:seg.seg_id;
  (match seg.seg_path with
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  seg.seg_path <- None;
  seg.seg_data <- Seg_disk

let release_column (c : column) = Array.iter release_segment c.segs

(* Seal [src.(off .. off+seg_rows-1)] into an immutable segment:
   compute the zone map, bit-pack at the slice's width, register with
   the residency budget. *)
let seal_segment ~seg_rows (src : int array) off =
  let zmin = ref max_int and zmax = ref 0 and nulls = ref 0 in
  for i = off to off + seg_rows - 1 do
    let c = src.(i) in
    if c = 0 then incr nulls
    else begin
      if c < !zmin then zmin := c;
      if c > !zmax then zmax := c
    end
  done;
  let zmin = if !nulls = seg_rows then 0 else !zmin in
  let distinct =
    if !nulls = seg_rows then 0
    else begin
      let range = !zmax - zmin + 1 in
      if range <= 1 lsl 22 then begin
        (* dense code range: transient bitset *)
        let seen = Bytes.make range '\000' in
        let d = ref 0 in
        for i = off to off + seg_rows - 1 do
          let c = src.(i) in
          if c > 0 then begin
            let j = c - zmin in
            if Bytes.unsafe_get seen j = '\000' then begin
              Bytes.unsafe_set seen j '\001';
              incr d
            end
          end
        done;
        !d
      end
      else begin
        let seen = Hashtbl.create 1024 in
        for i = off to off + seg_rows - 1 do
          let c = src.(i) in
          if c > 0 then Hashtbl.replace seen c ()
        done;
        Hashtbl.length seen
      end
    end
  in
  let p = Packed_codes.pack ~width:(Packed_codes.width_for !zmax) src off
      seg_rows
  in
  let seg =
    {
      seg_id = Atomic.fetch_and_add seg_counter 1;
      seg_zone =
        {
          z_rows = seg_rows;
          z_min = zmin;
          z_max = !zmax;
          z_nulls = !nulls;
          z_distinct = distinct;
        };
      seg_width = Packed_codes.width p;
      seg_data = Seg_mem p;
      seg_path = None;
    }
  in
  register_segment seg;
  seg

(* resident payload, mapping the spill file back in if evicted; the
   caller's reference keeps the payload alive even if the segment is
   re-evicted mid-sweep *)
let seg_payload seg =
  match seg.seg_data with
  | Seg_mem p ->
      Ooc.touch ~id:seg.seg_id;
      p
  | Seg_disk ->
      let path =
        match seg.seg_path with Some p -> p | None -> assert false
      in
      let p =
        Packed_codes.map_file path ~width:seg.seg_width
          ~len:seg.seg_zone.z_rows
      in
      seg.seg_data <- Seg_mem p;
      Ooc.note_map ();
      register_segment seg;
      p

let sealed_rows (col : column) =
  Array.fold_left (fun acc s -> acc + s.seg_zone.z_rows) 0 col.segs

let max_sealed_code segs floor =
  Array.fold_left (fun acc sg -> max acc (sg.seg_zone.z_max + 1)) floor segs

(* decoded flat copy — oracle/test accessor, not a hot path *)
let column_codes (col : column) =
  let ns = sealed_rows col in
  let out = Array.make (ns + Array.length col.tail) 0 in
  let off = ref 0 in
  Array.iter
    (fun seg ->
      let tmp = Packed_codes.to_array (seg_payload seg) in
      Array.blit tmp 0 out !off (Array.length tmp);
      off := !off + Array.length tmp)
    col.segs;
  Array.blit col.tail 0 out ns (Array.length col.tail);
  out

let column_dict (col : column) = col.dict

(* Iterate the row blocks of [cols] in row order: every sealed segment
   (a store's columns all seal at the same fixed boundaries, so block
   [s] lines up across columns), then the open tail. [f bufs len base]
   must not retain [bufs]: sealed blocks reuse one scratch buffer per
   column. *)
let iter_blocks t (cols : column array) f =
  let m = Array.length cols in
  if m > 0 then begin
    let sr = t.seg_rows in
    let nseg = Array.length cols.(0).segs in
    if nseg > 0 then begin
      let scratch = Array.init m (fun _ -> Array.make sr 0) in
      for s = 0 to nseg - 1 do
        for j = 0 to m - 1 do
          Packed_codes.decode_into (seg_payload cols.(j).segs.(s)) scratch.(j)
        done;
        f scratch sr (s * sr)
      done
    end;
    let tails = Array.map (fun (c : column) -> c.tail) cols in
    let tlen = Array.length tails.(0) in
    if tlen > 0 then f tails tlen (nseg * sr)
  end

(* ------------------------------------------------------------------ *)
(* store construction                                                  *)
(* ------------------------------------------------------------------ *)

let make_store ?seg_rows ~memoized table =
  let arity = Relation.arity (Table.schema table) in
  let seg_rows =
    match seg_rows with Some r -> r | None -> (Ooc.config ()).segment_rows
  in
  let s =
    {
      table;
      uid = Atomic.fetch_and_add uid_counter 1;
      built_version = Table.version table;
      n_rows = Table.cardinality table;
      seg_rows;
      columns = Array.make arity None;
      interns = Array.make arity None;
      memoized;
      distinct_sets = Hashtbl.create 8;
      witnesses = Hashtbl.create 8;
      fd_verdicts = Hashtbl.create 16;
      fd_sweeps = Hashtbl.create 8;
      join_counts = Hashtbl.create 8;
    }
  in
  (* a collected store's segments must leave the residency budget; the
     finalizer defers the unregister through the lock-free graveyard *)
  Gc.finalise
    (fun s ->
      let ids = ref [] in
      Array.iter
        (function
          | Some (c : column) ->
              Array.iter
                (fun sg ->
                  ids := sg.seg_id :: !ids;
                  match sg.seg_path with
                  | Some p -> ( try Sys.remove p with Sys_error _ -> ())
                  | None -> ())
                c.segs
          | None -> ())
        s.columns;
      Ooc.bury !ids)
    s;
  s

let build table = make_store ~memoized:false table

let table t = t.table
let table_version t = t.built_version
let uid t = t.uid

(* ------------------------------------------------------------------ *)
(* encoding                                                            *)
(* ------------------------------------------------------------------ *)

(* segment a freshly encoded (or recompacted) code array: seal every
   full [seg_rows] chunk, keep the remainder as the open tail *)
let column_of_codes ~seg_rows codes dict nulls =
  let n = Array.length codes in
  let nseg = n / seg_rows in
  let segs = Array.init nseg (fun s -> seal_segment ~seg_rows codes (s * seg_rows)) in
  let tail = Array.sub codes (nseg * seg_rows) (n - (nseg * seg_rows)) in
  {
    segs;
    tail;
    dict;
    nulls;
    sealed_dict = max_sealed_code segs 1;
    tail_exact = true;
    vrange = None;
  }

(* Flat open-addressing intern table, shared by [encode] and the
   Builder. Same key semantics as a polymorphic hashtable —
   [compare _ _ = 0] for identity — and codes are assigned in first-
   occurrence order either way, so a finished builder's dictionaries
   are indistinguishable from a post-hoc encode of the same rows; but
   probing flat arrays allocates nothing per lookup, which matters
   when every cell of a column passes through.

   [Value.Int] keys (the shape of key-like columns, where nearly
   every cell misses) get their own unboxed side table: no box to
   hash or chase on a probe. Cross-constructor values never compare
   equal, so partitioning by constructor cannot change identity. *)
type vtab = {
  mutable v_cap : int;  (* power of two *)
  mutable v_size : int;
  mutable v_hs : int array;  (* 0 = empty slot, else [hash lor 1] *)
  mutable v_keys : Value.t array;
  mutable v_codes : int array;
  mutable n_cap : int;  (* the Value.Int side, unboxed *)
  mutable n_size : int;
  mutable n_tab : int array;  (* interleaved [key; code] pairs *)
}

(* the int side keys slots directly by value; [min_int] marks an
   empty slot (Int min_int itself goes through the boxed side) *)
let ntab_make cap =
  Array.init (2 * cap) (fun j -> if j land 1 = 0 then min_int else 0)

let vtab_create () =
  {
    v_cap = 256;
    v_size = 0;
    v_hs = Array.make 256 0;
    v_keys = Array.make 256 Value.Null;
    v_codes = Array.make 256 0;
    n_cap = 256;
    n_size = 0;
    n_tab = ntab_make 256;
  }

(* Placement only, never identity. Low bits pass through so runs of
   sequential keys occupy sequential slots (cache-friendly inserts and
   rehashes); high bits are folded in so huge keys still spread. *)
let int_hash n = (n lxor (n lsr 32)) land max_int

let ntab_slot t n =
  let mask = t.n_cap - 1 in
  let i = ref (int_hash n land mask) in
  while
    let k = Array.unsafe_get t.n_tab (2 * !i) in
    k <> min_int && k <> n
  do
    i := (!i + 1) land mask
  done;
  !i

let ntab_grow t =
  let old = t.n_tab and old_cap = t.n_cap in
  let cap = t.n_cap * 2 in
  t.n_cap <- cap;
  t.n_tab <- ntab_make cap;
  let mask = cap - 1 in
  for j = 0 to old_cap - 1 do
    let k = old.(2 * j) in
    if k <> min_int then begin
      let i = ref (int_hash k land mask) in
      while t.n_tab.(2 * !i) <> min_int do
        i := (!i + 1) land mask
      done;
      t.n_tab.(2 * !i) <- k;
      t.n_tab.((2 * !i) + 1) <- old.((2 * j) + 1)
    end
  done

(* indices are masked to the (power-of-two) capacity, so the
   unchecked reads cannot go out of bounds *)
let vtab_slot t h v =
  let mask = t.v_cap - 1 in
  let i = ref (h land mask) in
  while
    let h' = Array.unsafe_get t.v_hs !i in
    h' <> 0
    && not (h' = h && Stdlib.compare (Array.unsafe_get t.v_keys !i) v = 0)
  do
    i := (!i + 1) land mask
  done;
  !i

(* quadruple once the table is clearly high-cardinality: rehashing is
   the dominant interning cost for key-like columns, and fewer, larger
   steps move each entry O(1) times instead of O(log n) *)
let vtab_grow t =
  let old_hs = t.v_hs and old_keys = t.v_keys and old_codes = t.v_codes in
  let cap = t.v_cap * if t.v_cap >= 65536 then 4 else 2 in
  t.v_cap <- cap;
  t.v_hs <- Array.make cap 0;
  t.v_keys <- Array.make cap Value.Null;
  t.v_codes <- Array.make cap 0;
  let mask = cap - 1 in
  Array.iteri
    (fun j h ->
      if h <> 0 then begin
        let i = ref (h land mask) in
        while t.v_hs.(!i) <> 0 do
          i := (!i + 1) land mask
        done;
        t.v_hs.(!i) <- h;
        t.v_keys.(!i) <- old_keys.(j);
        t.v_codes.(!i) <- old_codes.(j)
      end)
    old_hs

(* growable dictionary in code order; slot 0 is the NULL code *)
type dvec = { mutable ddata : Value.t array; mutable dlen : int }

let dvec_create () = { ddata = Array.make 256 Value.Null; dlen = 1 }

let dvec_push d v =
  if d.dlen = Array.length d.ddata then begin
    let a = Array.make (2 * d.dlen) Value.Null in
    Array.blit d.ddata 0 a 0 d.dlen;
    d.ddata <- a
  end;
  d.ddata.(d.dlen) <- v;
  d.dlen <- d.dlen + 1

(* the code of [v] in the column whose intern table is [t] and whose
   dictionary is [d], interning it as the next code on a miss *)
let intern_into t d v =
  match v with
  | Value.Null -> 0
  | Value.Int n when n <> min_int ->
      let i = ntab_slot t n in
      if t.n_tab.(2 * i) <> min_int then t.n_tab.((2 * i) + 1)
      else begin
        let c = d.dlen in
        let i =
          if (t.n_size + 1) * 2 > t.n_cap then begin
            ntab_grow t;
            ntab_slot t n
          end
          else i
        in
        t.n_tab.(2 * i) <- n;
        t.n_tab.((2 * i) + 1) <- c;
        t.n_size <- t.n_size + 1;
        dvec_push d v;
        c
      end
  | _ ->
      let h = Hashtbl.hash v lor 1 in
      let i = vtab_slot t h v in
      if t.v_hs.(i) <> 0 then t.v_codes.(i)
      else begin
        let c = d.dlen in
        let i =
          if (t.v_size + 1) * 2 > t.v_cap then begin
            vtab_grow t;
            vtab_slot t h v
          end
          else i
        in
        t.v_hs.(i) <- h;
        t.v_keys.(i) <- v;
        t.v_codes.(i) <- c;
        t.v_size <- t.v_size + 1;
        dvec_push d v;
        c
      end

let encode t pos =
  let rows = Table.rows t.table in
  let codes = Array.make t.n_rows 0 in
  let tab = vtab_create () and dict = dvec_create () in
  let nulls = ref 0 in
  Array.iteri
    (fun i tup ->
      let c = intern_into tab dict tup.(pos) in
      if c = 0 then incr nulls;
      codes.(i) <- c)
    rows;
  column_of_codes ~seg_rows:t.seg_rows codes
    (Array.sub dict.ddata 0 dict.dlen)
    !nulls

let pos_of t a =
  try Relation.attr_index (Table.schema t.table) a
  with Not_found ->
    invalid_arg
      (Printf.sprintf "Column_store(%s): unknown attribute %s"
         (Table.schema t.table).Relation.name a)

(* a fresh column's intern table is built on the first delta append
   ([intern_of]), so stores that are never refreshed never pay for it *)
let stash_encoded t pos c =
  t.columns.(pos) <- Some c;
  c

let column t a =
  let pos = pos_of t a in
  match t.columns.(pos) with
  | Some c -> c
  | None -> stash_encoded t pos (encode t pos)

let columns t attrs = Array.of_list (List.map (column t) attrs)

(* Encode every still-missing column among [attrs], fanning the
   independent per-column passes over [pool] when one is given.
   [encode] is a pure function of the (frozen) row array, and each task
   writes only its own slot of a local result array, so scheduling
   cannot change the dictionaries: codes are interned in row order per
   column whatever the domain count. *)
let ensure_columns ?pool t attrs =
  let missing =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun a ->
           let p = pos_of t a in
           if t.columns.(p) = None then Some p else None)
         attrs)
  in
  match missing with
  | [] -> ()
  | [ p ] -> ignore (stash_encoded t p (encode t p))
  | ps -> (
      let ps = Array.of_list ps in
      match pool with
      | Some pool when Domain_pool.size pool > 1 ->
          (* force the table's row-array cache on the submitting domain
             so workers only read it; workers return their results and
             only the submitter writes store slots *)
          ignore (Table.rows t.table);
          let encoded = Domain_pool.map_array pool (fun p -> encode t p) ps in
          Array.iteri (fun i p -> ignore (stash_encoded t p encoded.(i))) ps
      | _ -> Array.iter (fun p -> ignore (stash_encoded t p (encode t p))) ps)

(* ------------------------------------------------------------------ *)
(* distinct sets                                                       *)
(* ------------------------------------------------------------------ *)

(* decode a code tuple back to the value list [Table.distinct_table]
   would have keyed with *)
let decode cols code_list =
  List.map2 (fun (c : column) code -> c.dict.(code)) (Array.to_list cols)
    code_list

let compute_distinct t attrs =
  match attrs with
  | [ a ] ->
      (* single column: the dictionary is the distinct set; no row
         pass. Codes below [sealed_dict] occur in immutable sealed
         segments, so they are live by construction; codes above live
         only in the tail, where deletes can orphan them — the
         presence fallback scans just the tail. *)
      let c = column t a in
      let set = Hashtbl.create (max 16 (Array.length c.dict)) in
      if c.tail_exact then
        Array.iteri
          (fun code v -> if code > 0 then Hashtbl.add set [ v ] ())
          c.dict
      else begin
        let sd = c.sealed_dict in
        let live = Array.make (Array.length c.dict - sd) false in
        Array.iter
          (fun code -> if code >= sd then live.(code - sd) <- true)
          c.tail;
        Array.iteri
          (fun code v ->
            if code > 0 && (code < sd || live.(code - sd)) then
              Hashtbl.add set [ v ] ())
          c.dict
      end;
      (set, t.n_rows - c.nulls)
  | _ ->
      let cols = columns t attrs in
      let width = Array.length cols in
      let seen : (int list, unit) Hashtbl.t =
        Hashtbl.create (max 16 (min t.n_rows 65536 / 4 + 16))
      in
      let witnesses = ref 0 in
      iter_blocks t cols (fun bufs len _base ->
          for i = 0 to len - 1 do
            let null = ref false in
            let key = ref [] in
            for j = width - 1 downto 0 do
              let code = bufs.(j).(i) in
              if code = 0 then null := true else key := code :: !key
            done;
            if not !null then begin
              incr witnesses;
              Hashtbl.replace seen !key ()
            end
          done);
      let set = Hashtbl.create (max 16 (Hashtbl.length seen)) in
      Hashtbl.iter (fun key () -> Hashtbl.add set (decode cols key) ()) seen;
      (set, !witnesses)

let distinct_set t attrs =
  match Hashtbl.find_opt t.distinct_sets attrs with
  | Some set -> set
  | None ->
      let set, witnesses = compute_distinct t attrs in
      Hashtbl.add t.distinct_sets attrs set;
      Hashtbl.add t.witnesses attrs witnesses;
      set

let witness_count t attrs =
  match Hashtbl.find_opt t.witnesses attrs with
  | Some n -> n
  | None ->
      ignore (distinct_set t attrs);
      Hashtbl.find t.witnesses attrs

let count_distinct t attrs = Hashtbl.length (distinct_set t attrs)

let unique t attrs =
  let w = witness_count t attrs in
  w > 0 && count_distinct t attrs = w

(* memoized all-[Int] dictionary value range; a superset of the live
   values (dead codes only widen it), so range disjointness still
   proves an empty intersection *)
let int_range (col : column) =
  match col.vrange with
  | Some r -> r
  | None ->
      let n = Array.length col.dict in
      let r =
        if n <= 1 then None
        else begin
          let lo = ref max_int and hi = ref min_int and ok = ref true in
          let i = ref 1 in
          while !ok && !i < n do
            (match col.dict.(!i) with
            | Value.Int x ->
                if x < !lo then lo := x;
                if x > !hi then hi := x
            | _ -> ok := false);
            incr i
          done;
          if !ok then Some (!lo, !hi) else None
        end
      in
      col.vrange <- Some r;
      r

let equijoin_distinct_count t1 a1 t2 a2 =
  if List.length a1 <> List.length a2 then
    invalid_arg "Column_store.equijoin_distinct_count: width mismatch";
  let key = (a1, t2.uid, a2) in
  match Hashtbl.find_opt t1.join_counts key with
  | Some n -> n
  | None ->
      (* all-Int single-attribute sides with disjoint dictionary value
         ranges cannot intersect: the count is provably 0 without
         building either distinct set *)
      let short_circuit =
        (Ooc.config ()).zone_pruning
        &&
        match (a1, a2) with
        | [ x ], [ y ] -> (
            match (int_range (column t1 x), int_range (column t2 y)) with
            | Some (l1, h1), Some (l2, h2) -> h1 < l2 || h2 < l1
            | _ -> false)
        | _ -> false
      in
      if short_circuit then begin
        Ooc.note_ind_short_circuit ();
        Hashtbl.add t1.join_counts key 0;
        0
      end
      else begin
        let d1 = distinct_set t1 a1 and d2 = distinct_set t2 a2 in
        let small, large =
          if Hashtbl.length d1 <= Hashtbl.length d2 then (d1, d2) else (d2, d1)
        in
        let n =
          Hashtbl.fold
            (fun k () acc -> if Hashtbl.mem large k then acc + 1 else acc)
            small 0
        in
        Hashtbl.add t1.join_counts key n;
        n
      end

(* ------------------------------------------------------------------ *)
(* FD checks                                                           *)
(* ------------------------------------------------------------------ *)

(* ---- zone-map pruning ------------------------------------------- *)

(* Per LHS column, mark the sealed segments that are provably
   verdict-irrelevant for an FD sweep:

   - an all-NULL segment contributes only exempt rows;
   - a segment whose non-NULL codes are all distinct within the
     segment ([z_distinct] = non-null rows) *and* whose [z_min,z_max]
     code interval is disjoint from every other segment's interval and
     from the tail's can only found singleton groups, and no row
     elsewhere can ever join them — singletons cannot refute any
     candidate, and skipping them leaves every other group intact.

   For a multi-attribute LHS it suffices that *one* column isolates a
   segment: its code is then unique to the segment, so the full LHS
   tuple is too. Sound only when the sweep retains no state (a skipped
   singleton group would be missing from a retained sweep_state, and a
   later append could wrongly "found" it afresh) — callers pass
   [retain:None] to enable pruning. *)
let zone_skippable (lcols : column array) =
  let nseg = if Array.length lcols = 0 then 0 else Array.length lcols.(0).segs in
  let skip = Array.make nseg false in
  if nseg > 0 then
    Array.iter
      (fun (lc : column) ->
        (* tail interval (ignoring NULLs); None when empty *)
        let tmin = ref max_int and tmax = ref min_int in
        Array.iter
          (fun c ->
            if c > 0 then begin
              if c < !tmin then tmin := c;
              if c > !tmax then tmax := c
            end)
          lc.tail;
        (* intervals of every non-empty region, sorted by min code;
           index -1 is the tail *)
        let ivs = ref [] in
        if !tmax >= !tmin then ivs := (!tmin, !tmax, -1) :: !ivs;
        Array.iteri
          (fun s seg ->
            let z = seg.seg_zone in
            if z.z_nulls = z.z_rows then skip.(s) <- true
            else ivs := (z.z_min, z.z_max, s) :: !ivs)
          lc.segs;
        let ivs = Array.of_list !ivs in
        Array.sort (fun (a, _, _) (b, _, _) -> compare a b) ivs;
        (* sorted by min: an interval overlaps some other iff the
           running max of its predecessors reaches it or its successor
           starts inside it *)
        let running_max = ref min_int in
        Array.iteri
          (fun i (lo, hi, s) ->
            (if s >= 0 then
               let z = lc.segs.(s).seg_zone in
               let isolated =
                 !running_max < lo
                 && (i = Array.length ivs - 1
                    ||
                    let lo', _, _ = ivs.(i + 1) in
                    lo' > hi)
               in
               if isolated && z.z_distinct = z.z_rows - z.z_nulls then
                 skip.(s) <- true);
            if hi > !running_max then running_max := hi)
          ivs)
      lcols;
  skip

(* ensure a per-candidate group->code representative array can hold
   group id [n-1] *)
let irepr_ensure r n =
  let len = Array.length !r in
  if n > len then begin
    let a = Array.make (max n (max 64 (2 * len))) 0 in
    Array.blit !r 0 a 0 len;
    r := a
  end

(* The fused FD batch over dictionary codes. Every candidate is
   answered in one pass over the encoded columns, block-aligned: one
   decode per (segment, live column), no row materialization. Each
   row's LHS code (or code tuple) finds its group, created on first
   sight, at which point the row seeds every live candidate's
   representative code; later rows compare in place against the live
   candidates' representatives. A mismatch kills just that candidate
   (swap-removed from the compact live set), and the pass stops once
   all are dead. Grouping by LHS code is grouping by value (interning
   is injective per column), NULL-LHS rows are exempt, and RHS code
   equality is RHS value equality (NULL's reserved 0 compares like
   NULL = NULL).

   With [retain:None] the sweep additionally consults the zone maps
   ([zone_skippable]) and skips provably verdict-irrelevant segments.
   With [?retain] (the RHS attribute names aligned with [positions]) a
   completed pass with at least one surviving candidate converts its
   code-level state into the value-keyed [sweep_state] the delta
   passes advance over appended rows. A pass that early-exited (every
   candidate refuted) retains nothing: its key tables are incomplete,
   and there is no true verdict to maintain. *)
let sweep_fused_codes ?retain t lhs (positions : int array) =
  let m = Array.length positions in
  let verdict = Array.make m true in
  let lcols = columns t lhs in
  let rcols =
    Array.map
      (fun p ->
        match t.columns.(p) with Some c -> c | None -> assert false)
      positions
  in
  let sr = t.seg_rows in
  (* a store's columns all seal at the same boundaries; an empty LHS
     puts every row in one group, so the layout comes from the RHS *)
  let layout = if Array.length lcols > 0 then lcols.(0) else rcols.(0) in
  let nseg = Array.length layout.segs in
  let live = Array.init m Fun.id in
  let n_live = ref m in
  let next = ref 0 in
  let repr = Array.map (fun _ -> ref (Array.make 64 0)) positions in
  let prune =
    retain = None && Array.length lcols > 0 && (Ooc.config ()).zone_pruning
  in
  let skip = if prune && nseg > 0 then zone_skippable lcols else [||] in
  (* per-block sweep bodies, one per LHS shape *)
  let single = Array.length lcols = 1 in
  let gid_of_code =
    if single then Array.make (Array.length lcols.(0).dict) (-1) else [||]
  in
  let tuple_ids : (int list, int) Hashtbl.t =
    if single then Hashtbl.create 0
    else Hashtbl.create (max 16 (min t.n_rows 65536 / 4 + 16))
  in
  let seed rbufs i g =
    for j = 0 to !n_live - 1 do
      let k = live.(j) in
      let r = repr.(k) in
      irepr_ensure r (g + 1);
      (!r).(g) <- rbufs.(k).(i)
    done
  in
  let refine rbufs i g =
    let j = ref 0 in
    while !j < !n_live do
      let k = live.(!j) in
      if (!(repr.(k))).(g) = rbufs.(k).(i) then incr j
      else begin
        verdict.(k) <- false;
        decr n_live;
        live.(!j) <- live.(!n_live)
      end
    done
  in
  let sweep_block lbufs rbufs len =
    if single then begin
      let lbuf = lbufs.(0) in
      let i = ref 0 in
      while !n_live > 0 && !i < len do
        let c = lbuf.(!i) in
        if c > 0 then begin
          let g = gid_of_code.(c) in
          if g >= 0 then refine rbufs !i g
          else begin
            let g = !next in
            incr next;
            gid_of_code.(c) <- g;
            seed rbufs !i g
          end
        end;
        incr i
      done
    end
    else begin
      let w = Array.length lbufs in
      let i = ref 0 in
      while !n_live > 0 && !i < len do
        let null = ref false in
        let key = ref [] in
        for j = w - 1 downto 0 do
          let c = lbufs.(j).(!i) in
          if c = 0 then null := true else key := c :: !key
        done;
        (if not !null then
           match Hashtbl.find tuple_ids !key with
           | g -> refine rbufs !i g
           | exception Not_found ->
               let g = !next in
               incr next;
               Hashtbl.add tuple_ids !key g;
               seed rbufs !i g);
        incr i
      done
    end
  in
  (* sealed segments: decode LHS and live candidates block-aligned *)
  if nseg > 0 then begin
    let w = Array.length lcols in
    let lscratch = Array.init w (fun _ -> Array.make sr 0) in
    let rscratch = Array.map (fun _ -> Array.make sr 0) positions in
    let s = ref 0 in
    while !n_live > 0 && !s < nseg do
      if prune && skip.(!s) then Ooc.note_zone_skip ()
      else begin
        Ooc.note_zone_sweep ();
        for j = 0 to w - 1 do
          Packed_codes.decode_into (seg_payload lcols.(j).segs.(!s))
            lscratch.(j)
        done;
        for j = 0 to !n_live - 1 do
          let k = live.(j) in
          Packed_codes.decode_into (seg_payload rcols.(k).segs.(!s))
            rscratch.(k)
        done;
        sweep_block lscratch rscratch sr
      end;
      incr s
    done
  end;
  (* open tail: plain arrays, never skipped *)
  if !n_live > 0 && Array.length layout.tail > 0 then
    sweep_block
      (Array.map (fun (c : column) -> c.tail) lcols)
      (Array.map (fun (c : column) -> c.tail) rcols)
      (Array.length layout.tail);
  (* retention: translate code-level state to the value-keyed form the
     delta passes advance (pruning is off whenever we get here) *)
  (match retain with
  | Some names when !n_live > 0 ->
      let keys =
        if single then begin
          let int_ids : (int, int) Hashtbl.t =
            Hashtbl.create (max 16 !next)
          in
          let ids : (Value.t, int) Hashtbl.t = Hashtbl.create 16 in
          let dict = lcols.(0).dict in
          Array.iteri
            (fun c g ->
              if g >= 0 then
                match dict.(c) with
                | Value.Int x -> Hashtbl.replace int_ids x g
                | v -> Hashtbl.replace ids v g)
            gid_of_code;
          Scalar_keys (int_ids, ids)
        end
        else begin
          let ids : (Value.t list, int) Hashtbl.t =
            Hashtbl.create (max 16 (Hashtbl.length tuple_ids))
          in
          let lcols_l = Array.to_list lcols in
          Hashtbl.iter
            (fun key g ->
              Hashtbl.replace ids
                (List.map2 (fun (lc : column) c -> lc.dict.(c)) lcols_l key)
                g)
            tuple_ids;
          Tuple_keys ids
        end
      in
      let reprs = Hashtbl.create (max 4 !n_live) in
      for j = 0 to !n_live - 1 do
        let k = live.(j) in
        let dict = rcols.(k).dict in
        let codes = !(repr.(k)) in
        Hashtbl.replace reprs names.(k)
          (ref (Array.init !next (fun g -> dict.(codes.(g)))))
      done;
      Hashtbl.replace t.fd_sweeps lhs
        {
          sw_groups = !next;
          sw_keys = keys;
          sw_lhs_pos = Array.of_list (List.map (pos_of t) lhs);
          sw_reprs = reprs;
        }
  | _ -> ());
  verdict

(* The batched FD check: one fused pass answers every RHS attribute of
   a shared LHS. Columns are encoded first — Builder-loaded and
   delta-maintained stores already are; [pool] fans the encode passes
   of a store built by row inserts over the worker domains — and the
   sweep then runs segment-by-segment over the packed codes. Verdicts
   land by index, so the result order is the submission order.
   Already-memoized verdicts are reused; fresh ones are memoized. Call
   only from the domain that owns the store. *)
let fd_batch ?pool t ~lhs ~rhs =
  let rhs_arr = Array.of_list rhs in
  let verdicts =
    Array.map (fun a -> Hashtbl.find_opt t.fd_verdicts (lhs, a)) rhs_arr
  in
  let misses =
    List.filter
      (fun i -> verdicts.(i) = None)
      (List.init (Array.length rhs_arr) Fun.id)
  in
  (match misses with
  | [] -> ()
  | _ ->
      let misses = Array.of_list misses in
      let names = Array.map (fun i -> rhs_arr.(i)) misses in
      ensure_columns ?pool t (lhs @ Array.to_list names);
      let retain = if t.memoized then Some names else None in
      let res =
        sweep_fused_codes ?retain t lhs (Array.map (pos_of t) names)
      in
      Array.iteri
        (fun k i ->
          verdicts.(i) <- Some res.(k);
          Hashtbl.replace t.fd_verdicts (lhs, rhs_arr.(i)) res.(k))
        misses);
  Array.to_list
    (Array.mapi (fun i a -> (a, Option.value ~default:false verdicts.(i))) rhs_arr)

(* ------------------------------------------------------------------ *)
(* residency reporting                                                 *)
(* ------------------------------------------------------------------ *)

type residency = {
  sealed_segments : int;
  resident_segments : int;
  spilled_segments : int;
  tail_rows : int;
  width_histogram : (int * int) list;
}

let residency t =
  let sealed = ref 0 and resident = ref 0 and spilled = ref 0 in
  let tail = ref 0 in
  let widths : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (function
      | None -> ()
      | Some (c : column) ->
          tail := Array.length c.tail;
          Array.iter
            (fun seg ->
              incr sealed;
              (match seg.seg_data with
              | Seg_mem _ -> incr resident
              | Seg_disk -> incr spilled);
              Hashtbl.replace widths seg.seg_width
                (1 + Option.value ~default:0
                       (Hashtbl.find_opt widths seg.seg_width)))
            c.segs)
    t.columns;
  {
    sealed_segments = !sealed;
    resident_segments = !resident;
    spilled_segments = !spilled;
    tail_rows = !tail;
    width_histogram =
      List.sort compare (Hashtbl.fold (fun w n acc -> (w, n) :: acc) widths []);
  }

(* ------------------------------------------------------------------ *)
(* incremental refresh (delta maintenance)                             *)
(* ------------------------------------------------------------------ *)

type refresh_outcome =
  | Store_fresh
  | Store_absorbed of int
  | Store_rebuilt

(* What an incremental refresh did to this store's distinct sets —
   the evidence coordinated join-count patching needs. *)
type refresh_summary =
  | Sum_unchanged
  | Sum_appended of (string list * Value.t list list) list
      (* per memoized attribute list, the keys newly added *)
  | Sum_invalidated

let intern_of t pos (col : column) =
  match t.interns.(pos) with
  | Some h -> h
  | None ->
      (* encoded columns arrive without intern tables: build one from
         the dictionary in O(|dict|). Dead tail codes are
         reclaimed before this runs (see [reclaim_tail]), so every
         entry interned here is live. *)
      let h = Hashtbl.create 256 in
      Array.iteri
        (fun code v -> if code > 0 then Hashtbl.replace h v code)
        col.dict;
      t.interns.(pos) <- Some h;
      h

(* Compact dead dictionary codes out of the tail after a tail-only
   delete: codes >= sealed_dict that no longer occur are dropped from
   the dictionary and the surviving suffix codes are remapped by first
   occurrence — exactly the dictionary a fresh encode of the surviving
   rows would build, so downstream consumers cannot tell the store was
   ever mutated. Sealed segments are untouched (their codes are all
   below [sealed_dict] and provably live). Runs before any append or
   seal while [tail_exact] is false. *)
let reclaim_tail t pos (col : column) =
  if col.tail_exact then col
  else begin
    let sd = col.sealed_dict in
    let dlen = Array.length col.dict in
    let nsuf = dlen - sd in
    if nsuf <= 0 then { col with tail_exact = true }
    else begin
      let live = Array.make nsuf false in
      Array.iter (fun c -> if c >= sd then live.(c - sd) <- true) col.tail;
      if Array.for_all Fun.id live then { col with tail_exact = true }
      else begin
        let remap = Array.make nsuf 0 in
        let next = ref sd in
        for j = 0 to nsuf - 1 do
          if live.(j) then begin
            remap.(j) <- !next;
            incr next
          end
        done;
        let dict = Array.make !next Value.Null in
        Array.blit col.dict 0 dict 0 sd;
        for j = 0 to nsuf - 1 do
          if live.(j) then dict.(remap.(j)) <- col.dict.(sd + j)
        done;
        let tail =
          Array.map (fun c -> if c >= sd then remap.(c - sd) else c) col.tail
        in
        t.interns.(pos) <- None;
        { col with tail; dict; tail_exact = true; vrange = None }
      end
    end
  end

(* extend one encoded column with appended rows: reclaim any dead tail
   codes, intern each cell (extending the dictionary on first sight),
   grow the tail and seal full chunks off its front *)
let extend_column t pos col tups =
  let col = reclaim_tail t pos col in
  let k = Array.length tups in
  let t0 = Array.length col.tail in
  let codes = Array.make (t0 + k) 0 in
  Array.blit col.tail 0 codes 0 t0;
  let intern = intern_of t pos col in
  let rev_new = ref [] in
  let next = ref (Array.length col.dict) in
  let nulls = ref col.nulls in
  Array.iteri
    (fun i tup ->
      let v = tup.(pos) in
      if Value.is_null v then incr nulls
      else
        match Hashtbl.find_opt intern v with
        | Some c -> codes.(t0 + i) <- c
        | None ->
            let c = !next in
            incr next;
            Hashtbl.add intern v c;
            rev_new := v :: !rev_new;
            codes.(t0 + i) <- c)
    tups;
  let dict =
    match !rev_new with
    | [] -> col.dict
    | l -> Array.append col.dict (Array.of_list (List.rev l))
  in
  let sr = t.seg_rows in
  let total = t0 + k in
  let extra = total / sr in
  if extra = 0 then
    { col with tail = codes; dict; nulls = !nulls; vrange = None }
  else begin
    let fresh = Array.init extra (fun s -> seal_segment ~seg_rows:sr codes (s * sr)) in
    {
      segs = Array.append col.segs fresh;
      tail = Array.sub codes (extra * sr) (total - (extra * sr));
      dict;
      nulls = !nulls;
      (* the reclaim above restored first-occurrence order over the
         tail, so codes at or below a freshly sealed maximum all occur
         in the sealed region — the invariant sealed_dict certifies *)
      sealed_dict = max_sealed_code fresh col.sealed_dict;
      tail_exact = true;
      vrange = None;
    }
  end

(* Drop deleted row positions. Tail-only deletes (the common delta
   shape) just compact the tail and clear [tail_exact] — the next
   append or distinct read reclaims or scans the tail alone. Deletes
   reaching sealed rows stream-recompact the whole column: codes are
   remapped by first occurrence over the surviving rows and dead
   dictionary entries are dropped, reproducing a fresh encode
   exactly. *)
let compact_column t pos (col : column) idxs =
  let sr = t.seg_rows in
  let ns = Array.length col.segs * sr in
  let k = Array.length idxs in
  if k = 0 then col
  else if idxs.(0) >= ns then begin
    (* tail-only *)
    let t0 = Array.length col.tail in
    let tail = Array.make (t0 - k) 0 in
    let nulls = ref col.nulls in
    let j = ref 0 and d = ref 0 in
    for i = 0 to t0 - 1 do
      if !d < k && idxs.(!d) = ns + i then begin
        if col.tail.(i) = 0 then decr nulls;
        incr d
      end
      else begin
        tail.(!j) <- col.tail.(i);
        incr j
      end
    done;
    { col with tail; nulls = !nulls; tail_exact = false; vrange = None }
  end
  else begin
    let dlen = Array.length col.dict in
    let remap = Array.make dlen (-1) in
    let rev_dict = ref [] in
    let next = ref 1 in
    let nulls = ref 0 in
    let segs_acc = ref [] in
    let buf = Array.make sr 0 in
    let blen = ref 0 in
    let push c =
      buf.(!blen) <- c;
      incr blen;
      if !blen = sr then begin
        segs_acc := seal_segment ~seg_rows:sr buf 0 :: !segs_acc;
        blen := 0
      end
    in
    let d = ref 0 in
    let consume base len (codes : int array) =
      for i = 0 to len - 1 do
        if !d < k && idxs.(!d) = base + i then incr d
        else begin
          let c = codes.(i) in
          if c = 0 then begin
            incr nulls;
            push 0
          end
          else begin
            let m = remap.(c) in
            if m >= 0 then push m
            else begin
              let m = !next in
              incr next;
              remap.(c) <- m;
              rev_dict := col.dict.(c) :: !rev_dict;
              push m
            end
          end
        end
      done
    in
    let scratch = if Array.length col.segs > 0 then Array.make sr 0 else [||] in
    Array.iteri
      (fun s seg ->
        Packed_codes.decode_into (seg_payload seg) scratch;
        consume (s * sr) sr scratch)
      col.segs;
    consume ns (Array.length col.tail) col.tail;
    let segs = Array.of_list (List.rev !segs_acc) in
    let col' =
      {
        segs;
        tail = Array.sub buf 0 !blen;
        dict = Array.of_list (Value.Null :: List.rev !rev_dict);
        nulls = !nulls;
        sealed_dict = max_sealed_code segs 1;
        tail_exact = true;
        vrange = None;
      }
    in
    release_column col;
    t.interns.(pos) <- None;
    col'
  end

(* NULL-free value projection, in attribute order *)
let project_opt (poss : int array) tup =
  let rec go j acc =
    if j < 0 then Some acc
    else
      let v = tup.(poss.(j)) in
      if Value.is_null v then None else go (j - 1) (v :: acc)
  in
  go (Array.length poss - 1) []

let repr_ensure r n =
  let len = Array.length !r in
  if n > len then begin
    let a = Array.make (max n (max 16 (2 * len))) Value.Null in
    Array.blit !r 0 a 0 len;
    r := a
  end

(* Advance one retained sweep state over appended rows: each row joins
   its LHS group (founding and seeding a fresh one on a new key) and is
   compared against every tracked attribute's representative; the
   returned table names the attributes that saw a disagreement. Key
   routing mirrors the fused sweep exactly (NULL-LHS rows exempt, one
   group per distinct LHS value, ids in first-occurrence order), so the
   advanced state is indistinguishable from a fresh full sweep over the
   extended extension. *)
let advance_sweep_state t st tups =
  let flipped : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  let attrs =
    Hashtbl.fold (fun a r acc -> (a, pos_of t a, r) :: acc) st.sw_reprs []
  in
  let existing tup g =
    List.iter
      (fun (a, pos, r) ->
        let v = tup.(pos) in
        let rv = (!r).(g) in
        if not (rv == v || Value.equal rv v) then Hashtbl.replace flipped a ())
      attrs
  in
  let fresh tup g =
    List.iter
      (fun (_, pos, r) ->
        repr_ensure r (g + 1);
        (!r).(g) <- tup.(pos))
      attrs
  in
  let next () =
    let g = st.sw_groups in
    st.sw_groups <- g + 1;
    g
  in
  Array.iter
    (fun tup ->
      match st.sw_keys with
      | Scalar_keys (int_ids, ids) -> (
          match tup.(st.sw_lhs_pos.(0)) with
          | Value.Int x -> (
              match Hashtbl.find_opt int_ids x with
              | Some g -> existing tup g
              | None ->
                  let g = next () in
                  Hashtbl.add int_ids x g;
                  fresh tup g)
          | v ->
              if not (Value.is_null v) then (
                match Hashtbl.find_opt ids v with
                | Some g -> existing tup g
                | None ->
                    let g = next () in
                    Hashtbl.add ids v g;
                    fresh tup g))
      | Tuple_keys ids -> (
          match project_opt st.sw_lhs_pos tup with
          | None -> ()
          | Some key -> (
              match Hashtbl.find_opt ids key with
              | Some g -> existing tup g
              | None ->
                  let g = next () in
                  Hashtbl.add ids key g;
                  fresh tup g)))
    tups;
  flipped

(* The verdict short-circuits of the delta pass:
   - a FALSE verdict survives any append (extra rows cannot repair a
     violated FD); it is re-checked in O(delta) only if TRUE;
   - a TRUE verdict survives any delete (an FD holding on a superset
     holds on the subset); FALSE verdicts are dropped on delete.
   TRUE verdicts under appends are re-checked against the retained
   sweep state; those without one (the state was replaced by a later
   sweep over the same LHS) are dropped and recomputed on demand. *)
let recheck_fd_verdicts t tups =
  let flips : (string list, (string, unit) Hashtbl.t) Hashtbl.t =
    Hashtbl.create 8
  in
  Hashtbl.iter
    (fun lhs st -> Hashtbl.replace flips lhs (advance_sweep_state t st tups))
    t.fd_sweeps;
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fd_verdicts [] in
  List.iter
    (fun (((lhs, a) as key), v) ->
      if v then
        match Hashtbl.find_opt t.fd_sweeps lhs with
        | Some st when Hashtbl.mem st.sw_reprs a ->
            if Hashtbl.mem (Hashtbl.find flips lhs) a then
              Hashtbl.replace t.fd_verdicts key false
        | _ -> Hashtbl.remove t.fd_verdicts key)
    entries

(* patch every memoized distinct set and witness count with the
   appended rows; per attribute list, the newly-added keys feed the
   coordinated join-count patch *)
let patch_distinct_append t tups =
  let sets =
    Hashtbl.fold (fun attrs set acc -> (attrs, set) :: acc) t.distinct_sets []
  in
  List.map
    (fun (attrs, set) ->
      let poss = Array.of_list (List.map (pos_of t) attrs) in
      let added = ref [] in
      let fresh_witnesses = ref 0 in
      Array.iter
        (fun tup ->
          match project_opt poss tup with
          | None -> ()
          | Some key ->
              incr fresh_witnesses;
              if not (Hashtbl.mem set key) then begin
                Hashtbl.add set key ();
                added := key :: !added
              end)
        tups;
      (match Hashtbl.find_opt t.witnesses attrs with
      | Some w -> Hashtbl.replace t.witnesses attrs (w + !fresh_witnesses)
      | None -> ());
      (attrs, !added))
    sets

let apply_delta t ~summary delta =
  match delta with
  | Table.Rows_appended tups ->
      Array.iteri
        (fun pos c ->
          match c with
          | Some col ->
              t.columns.(pos) <- Some (extend_column t pos col tups)
          | None -> ())
        t.columns;
      let added = patch_distinct_append t tups in
      recheck_fd_verdicts t tups;
      t.n_rows <- t.n_rows + Array.length tups;
      (match !summary with
      | `Appended acc -> summary := `Appended (added :: acc)
      | `Invalidated -> ())
  | Table.Rows_deleted (idxs, _removed) ->
      Array.iteri
        (fun pos c ->
          match c with
          | Some col -> t.columns.(pos) <- Some (compact_column t pos col idxs)
          | None -> ())
        t.columns;
      (* value-derived memos are dropped wholesale; only verdicts a
         deletion provably cannot flip survive *)
      Hashtbl.reset t.distinct_sets;
      Hashtbl.reset t.witnesses;
      Hashtbl.reset t.fd_sweeps;
      let entries =
        Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fd_verdicts []
      in
      List.iter
        (fun (k, v) -> if not v then Hashtbl.remove t.fd_verdicts k)
        entries;
      t.n_rows <- t.n_rows - Array.length idxs;
      summary := `Invalidated

let delta_size = function
  | Table.Rows_appended tups -> Array.length tups
  | Table.Rows_deleted (idxs, _) -> Array.length idxs

let total_delta_rows ds = List.fold_left (fun acc d -> acc + delta_size d) 0 ds

let rebuild_in_place t table =
  Array.iter
    (function Some c -> release_column c | None -> ())
    t.columns;
  t.table <- table;
  t.uid <- Atomic.fetch_and_add uid_counter 1;
  t.built_version <- Table.version table;
  t.n_rows <- Table.cardinality table;
  Array.fill t.columns 0 (Array.length t.columns) None;
  Array.fill t.interns 0 (Array.length t.interns) None;
  Hashtbl.reset t.distinct_sets;
  Hashtbl.reset t.witnesses;
  Hashtbl.reset t.fd_verdicts;
  Hashtbl.reset t.fd_sweeps;
  Hashtbl.reset t.join_counts;
  Atomic.incr rebuild_ctr

(* Refresh a stale store in place by replaying the table's mutation
   log — incrementally when the delta stays within [delta_fraction] of
   the extension (and the log can still replay), by full rebuild
   otherwise. [coordinated] callers ([refresh_all]) patch cross-store
   join memos themselves from the returned summary; the uncoordinated
   path drops this store's own join memos. Either way a changed store
   renews its uid, so a foreign memo keyed on the old identity can
   never be served stale. *)
let refresh_in_place ?(delta_fraction = default_delta_fraction) ~coordinated t
    table =
  let version = Table.version table in
  if t.built_version = version then begin
    t.table <- table;
    (Store_fresh, Sum_unchanged)
  end
  else begin
    let deltas = Table.deltas_since table t.built_version in
    let budget =
      delta_fraction
      *. float_of_int (max 1 (max t.n_rows (Table.cardinality table)))
    in
    match deltas with
    | Some ds when float_of_int (total_delta_rows ds) <= budget ->
        let n = total_delta_rows ds in
        let summary = ref (`Appended []) in
        List.iter (fun d -> apply_delta t ~summary d) ds;
        t.table <- table;
        t.built_version <- version;
        t.uid <- Atomic.fetch_and_add uid_counter 1;
        if not coordinated then Hashtbl.reset t.join_counts;
        Atomic.incr incremental_ctr;
        ignore (Atomic.fetch_and_add absorbed_ctr n);
        let sum =
          match !summary with
          | `Invalidated -> Sum_invalidated
          | `Appended batches ->
              let merged : (string list, Value.t list list ref) Hashtbl.t =
                Hashtbl.create 8
              in
              List.iter
                (List.iter (fun (attrs, keys) ->
                     match Hashtbl.find_opt merged attrs with
                     | Some cell -> cell := keys @ !cell
                     | None -> Hashtbl.add merged attrs (ref keys)))
                batches;
              Sum_appended
                (Hashtbl.fold (fun attrs cell acc -> (attrs, !cell) :: acc)
                   merged [])
        in
        (Store_absorbed n, sum)
    | _ ->
        rebuild_in_place t table;
        (Store_rebuilt, Sum_invalidated)
  end

(* the memoized store: stashed in the table's extension-cache slot. A
   stale store refreshes itself in place before it is returned, so a
   retrieved store is never stale — the structural invalidation the
   ext-clear used to provide, now at delta cost instead of full loss. *)
let of_table ?delta_fraction table =
  match Table.ext_cache table with
  | Some (Store s) ->
      if s.built_version <> Table.version table then
        ignore (refresh_in_place ?delta_fraction ~coordinated:false s table)
      else s.table <- table;
      s
  | _ ->
      let s = make_store ~memoized:true table in
      Table.set_ext_cache table (Store s);
      s

let refresh ?delta_fraction table =
  match Table.ext_cache table with
  | Some (Store s) ->
      Some (fst (refresh_in_place ?delta_fraction ~coordinated:false s table))
  | _ -> None

let refresh_all ?delta_fraction tables =
  (* pass 1: refresh every stashed store, remembering its old uid *)
  let items =
    List.map
      (fun tbl ->
        match Table.ext_cache tbl with
        | Some (Store s) ->
            let old_uid = s.uid in
            let outcome, summary =
              refresh_in_place ?delta_fraction ~coordinated:true s tbl
            in
            Some (s, old_uid, outcome, summary)
        | _ -> None)
      tables
  in
  (* pass 2: patch every join memo across the refreshed stores. A memo
     keys (attrs1, peer uid, attrs2); the peer's old uid finds its
     refreshed store, the patched count is rekeyed under the peer's
     renewed uid. The exact delta is |A1 ∩ d2| + |{k ∈ A2 : k ∈ d1 and
     k ∉ A1}| where A_i are the newly-added keys and d_i the patched
     distinct sets. Entries touching a store outside this set, or a
     side whose summary was invalidated, are dropped and recomputed on
     demand from the patched distinct sets. *)
  let registry = Hashtbl.create 16 in
  List.iter
    (function
      | Some (s, old_uid, _, summary) ->
          Hashtbl.replace registry old_uid (s, summary)
      | None -> ())
    items;
  let added_of summary attrs =
    match summary with
    | Sum_unchanged -> Some []
    | Sum_appended l -> List.assoc_opt attrs l
    | Sum_invalidated -> None
  in
  List.iter
    (function
      | None -> ()
      | Some (s, _, _, sum1) ->
          let entries =
            Hashtbl.fold (fun k v acc -> (k, v) :: acc) s.join_counts []
          in
          Hashtbl.reset s.join_counts;
          List.iter
            (fun ((a1, peer_uid, a2), n) ->
              match Hashtbl.find_opt registry peer_uid with
              | None -> ()  (* peer outside the refreshed set: drop *)
              | Some (p, sum2) -> (
                  match (added_of sum1 a1, added_of sum2 a2) with
                  | Some added1, Some added2 -> (
                      match
                        ( Hashtbl.find_opt s.distinct_sets a1,
                          Hashtbl.find_opt p.distinct_sets a2 )
                      with
                      | Some d1, Some d2 ->
                          let a1set =
                            Hashtbl.create (max 4 (List.length added1))
                          in
                          List.iter
                            (fun k -> Hashtbl.replace a1set k ())
                            added1;
                          let extra = ref 0 in
                          List.iter
                            (fun k -> if Hashtbl.mem d2 k then incr extra)
                            added1;
                          List.iter
                            (fun k ->
                              if Hashtbl.mem d1 k && not (Hashtbl.mem a1set k)
                              then incr extra)
                            added2;
                          Hashtbl.replace s.join_counts (a1, p.uid, a2)
                            (n + !extra)
                      | _ -> ())
                  | _ -> ()))
            entries)
    items;
  List.map
    (function None -> None | Some (_, _, outcome, _) -> Some outcome)
    items

module Builder = struct
  type vec = { mutable data : int array; mutable len : int }

  let vec_create () = { data = Array.make 256 0; len = 0 }

  let vec_push v x =
    if v.len = Array.length v.data then begin
      let d = Array.make (2 * v.len) 0 in
      Array.blit v.data 0 d 0 v.len;
      v.data <- d
    end;
    v.data.(v.len) <- x;
    v.len <- v.len + 1

  type b = {
    b_rel : Relation.t;
    b_arity : int;
    b_seg_rows : int;  (* captured at [create]: the finished store's
                          fixed segment size *)
    b_codes : vec array;  (* open tail per attribute, row-aligned *)
    b_segs : segment list array;  (* sealed so far, reversed *)
    b_intern : vtab array;
    b_dict : dvec array;  (* per column, indexed by code *)
    b_nulls : int array;
    mutable b_rows : int;
    mutable b_tail_len : int;  (* rows currently in the open vecs *)
  }

  type t = b

  let create rel =
    let arity = Relation.arity rel in
    {
      b_rel = rel;
      b_arity = arity;
      b_seg_rows = (Ooc.config ()).segment_rows;
      b_codes = Array.init arity (fun _ -> vec_create ());
      b_segs = Array.make arity [];
      b_intern = Array.init arity (fun _ -> vtab_create ());
      b_dict = Array.init arity (fun _ -> dvec_create ());
      b_nulls = Array.make arity 0;
      b_rows = 0;
      b_tail_len = 0;
    }

  let rows b = b.b_rows

  let intern b pos v = intern_into b.b_intern.(pos) b.b_dict.(pos) v

  (* every column has exactly [b_seg_rows] pending codes: seal all of
     them at once so the finished segments stay row-aligned across the
     store's columns. The sealed codes leave the heap-resident vecs
     immediately (packed, and spillable under budget), which is what
     keeps a streaming ingest's footprint bounded by the tail. *)
  let seal_all b =
    for p = 0 to b.b_arity - 1 do
      let v = b.b_codes.(p) in
      b.b_segs.(p) <-
        seal_segment ~seg_rows:b.b_seg_rows v.data 0 :: b.b_segs.(p);
      v.len <- 0
    done;
    b.b_tail_len <- 0

  let append b codes =
    if Array.length codes <> b.b_arity then
      invalid_arg "Column_store.Builder.append: arity mismatch";
    for p = 0 to b.b_arity - 1 do
      let c = codes.(p) in
      vec_push b.b_codes.(p) c;
      if c = 0 then b.b_nulls.(p) <- b.b_nulls.(p) + 1
    done;
    b.b_rows <- b.b_rows + 1;
    b.b_tail_len <- b.b_tail_len + 1;
    if b.b_arity > 0 && b.b_tail_len = b.b_seg_rows then seal_all b

  (* Merge [src] (a chunk-local builder) onto the end of [dst].
     Appending chunk dictionaries in chunk order reproduces the global
     first-occurrence interning order, so the merged store is identical
     to a sequential build over the concatenated rows. Rows stream
     through row-wise (decoding [src]'s sealed segments one at a time)
     so [dst]'s seal boundaries stay aligned regardless of where they
     fell in [src]; [src]'s segments are released as they drain. *)
  let merge dst src =
    if dst.b_arity <> src.b_arity then
      invalid_arg "Column_store.Builder.merge: arity mismatch";
    if dst.b_seg_rows <> src.b_seg_rows then
      invalid_arg "Column_store.Builder.merge: segment size mismatch";
    let arity = dst.b_arity in
    let remap =
      Array.init arity (fun p ->
          let local = src.b_dict.(p) in
          let r = Array.make local.dlen 0 in
          for c = 1 to local.dlen - 1 do
            r.(c) <- intern dst p local.ddata.(c)
          done;
          r)
    in
    let sr = src.b_seg_rows in
    let nseg = if arity = 0 then 0 else List.length src.b_segs.(0) in
    if nseg > 0 then begin
      let seg_arrays =
        Array.map (fun l -> Array.of_list (List.rev l)) src.b_segs
      in
      let scratch = Array.init arity (fun _ -> Array.make sr 0) in
      for s = 0 to nseg - 1 do
        for p = 0 to arity - 1 do
          Packed_codes.decode_into (seg_payload seg_arrays.(p).(s)) scratch.(p)
        done;
        for i = 0 to sr - 1 do
          for p = 0 to arity - 1 do
            vec_push dst.b_codes.(p) remap.(p).(scratch.(p).(i))
          done;
          dst.b_rows <- dst.b_rows + 1;
          dst.b_tail_len <- dst.b_tail_len + 1;
          if dst.b_tail_len = dst.b_seg_rows then seal_all dst
        done
      done;
      Array.iter (Array.iter release_segment) seg_arrays
    end;
    for i = 0 to src.b_tail_len - 1 do
      for p = 0 to arity - 1 do
        vec_push dst.b_codes.(p) remap.(p).(src.b_codes.(p).data.(i))
      done;
      dst.b_rows <- dst.b_rows + 1;
      dst.b_tail_len <- dst.b_tail_len + 1;
      if arity > 0 && dst.b_tail_len = dst.b_seg_rows then seal_all dst
    done;
    (* NULL counts were tallied by [src]'s own appends *)
    for p = 0 to arity - 1 do
      dst.b_nulls.(p) <- dst.b_nulls.(p) + src.b_nulls.(p)
    done

  let finish b =
    let cols =
      Array.init b.b_arity (fun p ->
          let segs = Array.of_list (List.rev b.b_segs.(p)) in
          {
            segs;
            tail = Array.sub b.b_codes.(p).data 0 b.b_codes.(p).len;
            dict = Array.sub b.b_dict.(p).ddata 0 b.b_dict.(p).dlen;
            nulls = b.b_nulls.(p);
            sealed_dict = max_sealed_code segs 1;
            tail_exact = true;
            vrange = None;
          })
    in
    let n = b.b_rows in
    (* full-row materialization is the slow path by design: decode
       every column once, then assemble *)
    let produce () =
      let mats = Array.map column_codes cols in
      Array.init n (fun i ->
          Array.mapi (fun p (c : column) -> c.dict.(mats.(p).(i))) cols)
    in
    let table = Table.create_deferred b.b_rel ~size:n produce in
    let store = make_store ~seg_rows:b.b_seg_rows ~memoized:true table in
    Array.iteri (fun p c -> store.columns.(p) <- Some c) cols;
    Table.set_ext_cache table (Store store);
    table
end




