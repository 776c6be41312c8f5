(* Dictionary-encoded columnar view of a table, with shared caches for
   the projection and grouping workloads dependency discovery issues:
   the library's one implementation of every extension primitive.

   Equality semantics deliberately mirror the row-at-a-time
   definitions: codes are interned by structural equality on
   [Value.t] ([compare _ _ = 0], the polymorphic hashtable's identity),
   exactly what the row-level reference implementations key their
   hashtables with, so the store agrees with them verdict-for-verdict.

   Layout: each encoded column is a sequence of immutable *sealed
   segments* of exactly [seg_rows] rows (codes bit-packed to the
   width of the segment's largest code) followed by one open mutable
   *tail* of plain int codes holding the remainder. Appends extend the
   tail and seal full chunks off its front; sealed segments never
   change, so they can spill to disk under the [Ooc] residency budget
   and mmap back on demand without any coherence protocol. All of a
   store's columns seal at the same fixed row boundaries, so
   multi-column passes iterate block-aligned: decode segment [s] of
   every needed column, sweep [seg_rows] rows, move on. *)

type seg_data =
  | Seg_mem of Packed_codes.t  (* resident (packed) or mapped payload *)
  | Seg_disk  (* evicted; [seg_path] holds the spill file *)

type segment = {
  seg_id : int;  (* process-unique: the [Ooc] residency key *)
  seg_len : int;  (* rows in the segment (always the store's seg_rows) *)
  seg_max : int;  (* largest code in the segment, 0 if all NULL *)
  seg_width : int;  (* pack width in bits; 0 = raw 64-bit *)
  mutable seg_data : seg_data;
  mutable seg_path : string option;  (* spill file, once written *)
}

(* Flat open-addressing intern tables (see the encoding section).
   The String side of [vtab], keyed by bytes: interleaved [hash; code]
   pairs (hash 0 marks an empty slot, so stored hashes are [lor 1])
   and a parallel key array. *)
type stab = {
  mutable s_cap : int;  (* power of two *)
  mutable s_size : int;
  mutable s_hc : int array;
  mutable s_keys : string array;
}

type vtab = {
  mutable v_cap : int;  (* power of two *)
  mutable v_size : int;
  mutable v_hs : int array;  (* 0 = empty slot, else [hash lor 1] *)
  mutable v_keys : Value.t array;
  mutable v_codes : int array;
  mutable n_cap : int;  (* the Value.Int side, unboxed *)
  mutable n_size : int;
  mutable n_tab : int array;  (* interleaved [key; code] pairs *)
  strs : stab;  (* the Value.String side, keyed by bytes *)
  mutable st_side : int;  (* a staged miss (see [vtab_reserve]): its side *)
  mutable st_slot : int;  (* its slot *)
  mutable st_word : int;  (* its int key, or its hash *)
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
         can orphan them from, so a tail delete reclaims dead codes by
         scanning the tail alone. *)
  mutable interner : vtab option;
      (* value -> code over [dict], built from it on first need (a
         delta append, or a join count probing this column) and kept,
         so later appends intern and later probes translate in O(1)
         per value; dropped whenever codes are renumbered *)
}

(* The distinct code tuples of a column list (see [dedup_codes]). *)
type keyset = {
  ks_tuples : (int array, unit) Hashtbl.t;
  mutable ks_witnesses : int;  (* rows the tuples were drawn from *)
}

(* The code-level state of one fused FD sweep over a shared LHS (see
   [sweep_fused]): the LHS code -> group-id table, and per candidate
   RHS attribute its representative code per group and whether it
   still holds. A completed sweep with surviving candidates is kept,
   and appended rows' codes run through the same kernel, re-checking
   its true verdicts in O(delta). Every delete drops the retained
   sweeps (group emptiness is not tracked, so a representative could
   outlive its rows), which also keeps codes meaning the same values
   when a delta arrives: appends never renumber, since dead tail codes
   are reclaimed at delete time (see [compact_column]). *)
type sweep = {
  sw_lhs : int array;  (* LHS attribute positions *)
  sw_rhs : int array;  (* candidate RHS positions *)
  sw_names : string array;  (* candidate RHS names, aligned with sw_rhs *)
  mutable sw_gid : int array;
      (* single-attribute LHS: code -> group id, -1 before first sight *)
  sw_tuple_gid : (int list, int) Hashtbl.t;  (* wider LHS: codes -> id *)
  mutable sw_groups : int;
  sw_repr : int array array;  (* candidate -> group id -> RHS code *)
  sw_holds : bool array;  (* candidate -> no conflict seen *)
  sw_live : int array;  (* holding candidates, compact in [0, sw_n_live) *)
  mutable sw_n_live : int;
}

type t = {
  mutable table : Table.t;
  mutable uid : int;  (* unique per store content: cross-store keys *)
  mutable built_version : int;
  mutable n_rows : int;
  seg_rows : int;  (* fixed sealed-segment size for this store *)
  columns : column option array;  (* by attribute position, lazy *)
  keysets : (string list, keyset) Hashtbl.t;
      (* NULL-free distinct code tuples, per attribute list of two or
         more: one attribute's distinct set is its dictionary *)
  fd_verdicts : (string list * string, bool) Hashtbl.t;
  fd_sweeps : (string list, sweep) Hashtbl.t;
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

let delta_fraction = 0.25

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
   bit-pack at the width of the slice's largest code, register with
   the residency budget. *)
let seal_segment ~seg_rows (src : int array) off =
  let top = ref 0 in
  for i = off to off + seg_rows - 1 do
    if src.(i) > !top then top := src.(i)
  done;
  let p = Packed_codes.pack ~width:(Packed_codes.width_for !top) src off
      seg_rows
  in
  let seg =
    {
      seg_id = Atomic.fetch_and_add seg_counter 1;
      seg_len = seg_rows;
      seg_max = !top;
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
          ~len:seg.seg_len
      in
      seg.seg_data <- Seg_mem p;
      Ooc.note_map ();
      register_segment seg;
      p

let sealed_rows (col : column) =
  Array.fold_left (fun acc s -> acc + s.seg_len) 0 col.segs

let max_sealed_code segs floor =
  Array.fold_left (fun acc sg -> max acc (sg.seg_max + 1)) floor segs

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

let make_store ?seg_rows table =
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
      keysets = Hashtbl.create 8;
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
    interner = None;
  }

(* Flat open-addressing intern table, shared by [encode] and the
   Builder. Same key semantics as a polymorphic hashtable —
   [compare _ _ = 0] for identity — and codes are assigned in first-
   occurrence order either way, so a finished builder's dictionaries
   are indistinguishable from a post-hoc encode of the same rows; but
   probing flat arrays allocates nothing per lookup, which matters
   when every cell of a column passes through.

   The two constructors every bulk column is made of get unboxed side
   tables: [Value.Int] keys by the int itself, [Value.String] keys by
   its bytes — so a probe hashes and compares no box, and the loader
   can look a raw CSV cell up before (or instead of) building a value.
   Cross-constructor values never compare equal, so partitioning by
   constructor cannot change identity. *)

let stab_create cap =
  { s_cap = cap; s_size = 0; s_hc = Array.make (2 * cap) 0; s_keys = Array.make cap "" }

(* the int side keys slots directly by value; [min_int] marks an
   empty slot (Int min_int itself goes through the boxed side), whose
   code word is never read *)
let ntab_make cap = Array.make (2 * cap) min_int

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
    strs = stab_create 256;
    st_side = 0;
    st_slot = 0;
    st_word = 0;
  }

(* Placement only, never identity. Low bits pass through so runs of
   sequential keys occupy sequential slots (cache-friendly inserts and
   rehashes); high bits are folded in so huge keys still spread. *)
let int_hash n = (n lxor (n lsr 32)) land max_int

(* Stored hashes of the bytes and boxed sides are [h lor 1]; they are
   placed by [h lsr 1], since the low bit is always set and placing by
   it would leave every even slot without a home. *)
let home h mask = (h lsr 1) land mask

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

(* The one string hash: FNV-1a over a byte range, so the loader hashes
   a CSV cell in place, and a string hashes the same as its bytes do.
   The final fold brings high bits down to the low ones [home] places
   by (FNV's low bits mix poorly). *)
let bytes_hash buf off len =
  let h = ref 0x2bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29) lor 1

(* does [key] spell the bytes [buf.[off] .. buf.[off+len-1]]? *)
let key_is key buf off len =
  String.length key = len
  &&
  let i = ref 0 in
  while
    !i < len && String.unsafe_get key !i = Bytes.unsafe_get buf (off + !i)
  do
    incr i
  done;
  !i = len

(* indices are masked to the (power-of-two) capacity, so the
   unchecked reads cannot go out of bounds *)
let stab_slot t h buf off len =
  let mask = t.s_cap - 1 in
  let i = ref (home h mask) in
  while
    let h' = Array.unsafe_get t.s_hc (2 * !i) in
    h' <> 0
    && not (h' = h && key_is (Array.unsafe_get t.s_keys !i) buf off len)
  do
    i := (!i + 1) land mask
  done;
  !i

(* keys are distinct, so each goes to the first empty slot from its
   home: no key is read, only moved *)
let stab_grow t =
  let old_hc = t.s_hc and old_keys = t.s_keys and old_cap = t.s_cap in
  t.s_cap <- old_cap * 2;
  t.s_hc <- Array.make (2 * t.s_cap) 0;
  t.s_keys <- Array.make t.s_cap "";
  let mask = t.s_cap - 1 in
  for j = 0 to old_cap - 1 do
    let h = old_hc.(2 * j) in
    if h <> 0 then begin
      let i = ref (home h mask) in
      while t.s_hc.(2 * !i) <> 0 do
        i := (!i + 1) land mask
      done;
      t.s_hc.(2 * !i) <- h;
      t.s_hc.((2 * !i) + 1) <- old_hc.((2 * j) + 1);
      t.s_keys.(!i) <- old_keys.(j)
    end
  done

let vtab_slot t h v =
  let mask = t.v_cap - 1 in
  let i = ref (home h mask) in
  while
    let h' = Array.unsafe_get t.v_hs !i in
    h' <> 0
    && not (h' = h && Stdlib.compare (Array.unsafe_get t.v_keys !i) v = 0)
  do
    i := (!i + 1) land mask
  done;
  !i

let vtab_grow t =
  let old_hs = t.v_hs and old_keys = t.v_keys and old_codes = t.v_codes in
  let cap = t.v_cap * 2 in
  t.v_cap <- cap;
  t.v_hs <- Array.make cap 0;
  t.v_keys <- Array.make cap Value.Null;
  t.v_codes <- Array.make cap 0;
  let mask = cap - 1 in
  Array.iteri
    (fun j h ->
      if h <> 0 then begin
        let i = ref (home h mask) in
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

(* Inserting takes one probe. [vtab_reserve] first grows every side
   that one more insert would take past half full, so the empty slot a
   probe stops at stays valid until one insert: a miss is *staged*
   there (its key already in the slot, its hash or key word still
   empty, so no probe sees it) and [vtab_commit] binds it. *)
let vtab_reserve t =
  if (t.n_size + 1) * 2 > t.n_cap then ntab_grow t;
  if (t.strs.s_size + 1) * 2 > t.strs.s_cap then stab_grow t.strs;
  if (t.v_size + 1) * 2 > t.v_cap then vtab_grow t

let stage t side i w =
  t.st_side <- side;
  t.st_slot <- i;
  t.st_word <- w;
  -1

(* the code of [n <> min_int], or -1 with the miss staged *)
let probe_int t n =
  let i = ntab_slot t n in
  if t.n_tab.(2 * i) <> min_int then t.n_tab.((2 * i) + 1) else stage t 0 i n

(* the code of the string spelled by the bytes, or -1 with the miss
   staged: as [key], or (when [key] is "") as a copy of the bytes *)
let probe_str t buf off len key =
  let st = t.strs and h = bytes_hash buf off len in
  let i = stab_slot st h buf off len in
  if st.s_hc.(2 * i) <> 0 then st.s_hc.((2 * i) + 1)
  else begin
    st.s_keys.(i) <- (if key = "" then Bytes.sub_string buf off len else key);
    stage t 1 i h
  end

(* the code of [v] (NULL is 0), or -1 with the miss staged *)
let vtab_probe t v =
  match v with
  | Value.Null -> 0
  | Value.Int n when n <> min_int -> probe_int t n
  | Value.String s ->
      probe_str t (Bytes.unsafe_of_string s) 0 (String.length s) s
  | _ ->
      let h = Hashtbl.hash v lor 1 in
      let i = vtab_slot t h v in
      if t.v_hs.(i) <> 0 then t.v_codes.(i)
      else begin
        t.v_keys.(i) <- v;
        stage t 2 i h
      end

(* bind the staged miss to [c]; its value *)
let vtab_commit t c =
  let i = t.st_slot and w = t.st_word in
  match t.st_side with
  | 0 ->
      t.n_tab.(2 * i) <- w;
      t.n_tab.((2 * i) + 1) <- c;
      t.n_size <- t.n_size + 1;
      Value.Int w
  | 1 ->
      let st = t.strs in
      st.s_hc.(2 * i) <- w;
      st.s_hc.((2 * i) + 1) <- c;
      st.s_size <- st.s_size + 1;
      Value.String st.s_keys.(i)
  | _ ->
      t.v_hs.(i) <- w;
      t.v_codes.(i) <- c;
      t.v_size <- t.v_size + 1;
      t.v_keys.(i)

(* the staged miss of the column whose intern table is [t] and whose
   dictionary is [d], interned as its next code *)
let commit_into t d =
  let c = d.dlen in
  dvec_push d (vtab_commit t c);
  c

(* the code of [v] in that column, interning it on a miss *)
let intern_into t d v =
  vtab_reserve t;
  let c = vtab_probe t v in
  if c >= 0 then c else commit_into t d

(* the code of [v] in the column whose intern table is [t], or -1:
   [intern_into]'s lookup, which writes nothing *)
let vtab_find t v =
  match v with
  | Value.Null -> 0
  | Value.Int n when n <> min_int ->
      let i = ntab_slot t n in
      if t.n_tab.(2 * i) <> min_int then t.n_tab.((2 * i) + 1) else -1
  | Value.String s ->
      let b = Bytes.unsafe_of_string s and n = String.length s in
      let st = t.strs in
      let i = stab_slot st (bytes_hash b 0 n) b 0 n in
      if st.s_hc.(2 * i) <> 0 then st.s_hc.((2 * i) + 1) else -1
  | _ ->
      let i = vtab_slot t (Hashtbl.hash v lor 1) v in
      if t.v_hs.(i) <> 0 then t.v_codes.(i) else -1

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
(* distinct code tuples                                                *)
(* ------------------------------------------------------------------ *)

(* the value -> code table over a column's dictionary, built from it
   on first need *)
let column_interner (col : column) =
  match col.interner with
  | Some tab -> tab
  | None ->
      let tab = vtab_create () in
      Array.iteri
        (fun c v ->
          if c > 0 then begin
            vtab_reserve tab;
            ignore (vtab_probe tab v);
            ignore (vtab_commit tab c)
          end)
        col.dict;
      col.interner <- Some tab;
      tab

(* add the tuple [codes] (not retained); [true] when it is new *)
let ks_add ks codes =
  (not (Hashtbl.mem ks.ks_tuples codes))
  && begin
       Hashtbl.add ks.ks_tuples (Array.copy codes) ();
       true
     end

(* The code-tuple dedup loop: walk [cols]' rows in order and, for each
   row NULL-free on every column flagged in [need], count a witness and
   call [fresh bufs i] the first time its code tuple (NULL codes
   included) is seen. Returns the seen tuples. Distinct sets and
   deduplicating projections both run it. *)
let dedup_codes t cols need fresh =
  let width = Array.length cols in
  let size = max 16 (min t.n_rows 65536 / 4 + 16) in
  let ks = { ks_tuples = Hashtbl.create size; ks_witnesses = 0 } in
  let key = Array.make width 0 in
  iter_blocks t cols (fun bufs len _base ->
      for i = 0 to len - 1 do
        let null = ref false in
        for j = 0 to width - 1 do
          let code = bufs.(j).(i) in
          if code = 0 && need.(j) then null := true;
          key.(j) <- code
        done;
        if not !null then begin
          ks.ks_witnesses <- ks.ks_witnesses + 1;
          if ks_add ks key then fresh bufs i
        end
      done);
  ks

(* the memoized NULL-free distinct tuples of two or more attributes *)
let keyset t attrs =
  match Hashtbl.find_opt t.keysets attrs with
  | Some ks -> ks
  | None ->
      let cols = columns t attrs in
      let ks = dedup_codes t cols (Array.map (fun _ -> true) cols) (fun _ _ -> ()) in
      Hashtbl.add t.keysets attrs ks;
      ks

(* A single attribute needs no row pass: the dictionary is the
   distinct set (deletes drop dead codes as they compact). *)
let count_distinct t attrs =
  match attrs with
  | [ a ] -> Array.length (column t a).dict - 1
  | _ -> Hashtbl.length (keyset t attrs).ks_tuples

let witness_count t attrs =
  match attrs with
  | [ a ] -> t.n_rows - (column t a).nulls
  | _ -> (keyset t attrs).ks_witnesses

let unique t attrs =
  let w = witness_count t attrs in
  w > 0 && count_distinct t attrs = w

let prepare ?(probe = false) t attrs =
  (match attrs with [ _ ] -> () | _ -> ignore (keyset t attrs));
  Array.iter (fun c -> if probe then ignore (column_interner c)) (columns t attrs)

(* [f k] on every distinct NULL-free code tuple of [attrs] ([k] is a
   scratch buffer): a single attribute's are its dictionary's codes *)
let iter_keys t attrs f =
  match attrs with
  | [ a ] ->
      let k = [| 0 |] in
      for c = 1 to Array.length (column t a).dict - 1 do
        k.(0) <- c;
        f k
      done
  | _ -> Hashtbl.iter (fun k () -> f k) (keyset t attrs).ks_tuples

(* whether a tuple of live codes is one of [t]'s distinct tuples on
   [attrs]: always, for a single attribute *)
let key_test t attrs =
  match attrs with [ _ ] -> fun _ -> true | _ -> Hashtbl.mem (keyset t attrs).ks_tuples

(* Write to [k'] the codes in [cols'] of the value tuple the code tuple
   [k] spells in [cols]; [false] when some component's value is absent
   there. Each component is looked up in its peer column's interner, so
   equality is structural [Value.t] equality, exactly as interning
   partitions. *)
let translate (cols : column array) (cols' : column array) k k' =
  let rec go j =
    j = Array.length k
    ||
    let d = vtab_find (column_interner cols'.(j)) cols.(j).dict.(k.(j)) in
    k'.(j) <- d;
    d > 0 && go (j + 1)
  in
  go 0

let walks_left t1 a1 t2 a2 = count_distinct t1 a1 <= count_distinct t2 a2

(* [f k1] for every distinct NULL-free projection of [t1] on [a1] that
   also occurs in [t2] on [a2], with its codes in [t1]'s columns ([k1],
   a scratch buffer): walks the side [walks_left] picks and translates
   each of its tuples into the other side's codes *)
let iter_join fn t1 a1 t2 a2 f =
  if List.length a1 <> List.length a2 then
    invalid_arg (Printf.sprintf "Column_store.%s: width mismatch" fn);
  let walk s1 x1 s2 x2 g =
    let cols1 = columns s1 x1 and cols2 = columns s2 x2 in
    let member = key_test s2 x2 and k2 = Array.make (List.length x1) 0 in
    iter_keys s1 x1 (fun k1 -> if translate cols1 cols2 k1 k2 && member k2 then g k1 k2)
  in
  if walks_left t1 a1 t2 a2 then walk t1 a1 t2 a2 (fun k1 _ -> f k1)
  else walk t2 a2 t1 a1 (fun _ k1 -> f k1)

let equijoin_distinct_count t1 a1 t2 a2 =
  let key = (a1, t2.uid, a2) in
  match Hashtbl.find_opt t1.join_counts key with
  | Some n -> n
  | None ->
      let n = ref 0 in
      iter_join "equijoin_distinct_count" t1 a1 t2 a2 (fun _ -> incr n);
      Hashtbl.add t1.join_counts key !n;
      !n

let unary_included t1 a1 t2 a2 =
  let d1 = (column t1 a1).dict and tab = column_interner (column t2 a2) in
  let rec go c = c = Array.length d1 || (vtab_find tab d1.(c) > 0 && go (c + 1)) in
  go 1

let common_values t1 a1 t2 a2 =
  let cols = columns t1 a1 in
  let acc = ref [] in
  iter_join "common_values" t1 a1 t2 a2 (fun k1 ->
      acc := Array.to_list (Array.mapi (fun j c -> cols.(j).dict.(c)) k1) :: !acc);
  !acc

(* ------------------------------------------------------------------ *)
(* FD checks                                                           *)
(* ------------------------------------------------------------------ *)

(* grow candidate [k]'s group -> representative code array to hold
   group id [n-1] *)
let repr_grow st k n =
  let r = st.sw_repr.(k) in
  let len = Array.length r in
  if n > len then begin
    let a = Array.make (max n (max 64 (2 * len))) 0 in
    Array.blit r 0 a 0 len;
    st.sw_repr.(k) <- a
  end

(* grow a single-attribute LHS group table to cover a dictionary of
   [n] codes *)
let gid_grow st n =
  let len = Array.length st.sw_gid in
  if n > len then begin
    let a = Array.make (max n (2 * len)) (-1) in
    Array.blit st.sw_gid 0 a 0 len;
    st.sw_gid <- a
  end

(* The FD kernel over one block of rows: [lbufs] holds the block's LHS
   codes, [rbufs.(k)] candidate [k]'s RHS codes. Each row's LHS code
   (or code tuple) finds its group, created on first sight, at which
   point the row seeds every holding candidate's representative code;
   later rows compare in place against it. A mismatch refutes just
   that candidate (swap-removed from the compact live set, its
   representatives freed), and the block stops once none holds.
   Grouping by LHS code is grouping by value (interning is injective
   per column), NULL-LHS rows are exempt, and RHS code equality is RHS
   value equality (NULL's reserved 0 compares like NULL = NULL). *)
let sweep_block st (lbufs : int array array) (rbufs : int array array) len =
  let seed i g =
    for j = 0 to st.sw_n_live - 1 do
      let k = st.sw_live.(j) in
      repr_grow st k (g + 1);
      st.sw_repr.(k).(g) <- rbufs.(k).(i)
    done
  in
  let refine i g =
    let j = ref 0 in
    while !j < st.sw_n_live do
      let k = st.sw_live.(!j) in
      if st.sw_repr.(k).(g) = rbufs.(k).(i) then incr j
      else begin
        st.sw_holds.(k) <- false;
        st.sw_repr.(k) <- [||];
        st.sw_n_live <- st.sw_n_live - 1;
        st.sw_live.(!j) <- st.sw_live.(st.sw_n_live)
      end
    done
  in
  let found () =
    let g = st.sw_groups in
    st.sw_groups <- g + 1;
    g
  in
  if Array.length lbufs = 1 then begin
    let lbuf = lbufs.(0) in
    let i = ref 0 in
    while st.sw_n_live > 0 && !i < len do
      let c = lbuf.(!i) in
      if c > 0 then begin
        let g = st.sw_gid.(c) in
        if g >= 0 then refine !i g
        else begin
          let g = found () in
          st.sw_gid.(c) <- g;
          seed !i g
        end
      end;
      incr i
    done
  end
  else begin
    (* any other width, the empty LHS included (one group of all rows) *)
    let w = Array.length lbufs in
    let i = ref 0 in
    while st.sw_n_live > 0 && !i < len do
      let null = ref false in
      let key = ref [] in
      for j = w - 1 downto 0 do
        let c = lbufs.(j).(!i) in
        if c = 0 then null := true else key := c :: !key
      done;
      (if not !null then
         match Hashtbl.find st.sw_tuple_gid !key with
         | g -> refine !i g
         | exception Not_found ->
             let g = found () in
             Hashtbl.add st.sw_tuple_gid !key g;
             seed !i g);
      incr i
    done
  end

(* The fused FD batch over dictionary codes. Every candidate is
   answered in one pass over the encoded columns, block-aligned: one
   decode per (segment, LHS or holding candidate column), then the
   open tail, no row materialization. A pass that ends with a holding
   candidate keeps its state in [fd_sweeps] for the delta re-check
   ([sweep_delta]); one that refuted every candidate keeps nothing. *)
let sweep_fused t lhs names =
  let lcols = columns t lhs in
  let positions = Array.map (pos_of t) names in
  let rcols =
    Array.map
      (fun p ->
        match t.columns.(p) with Some c -> c | None -> assert false)
      positions
  in
  let m = Array.length names in
  let single = Array.length lcols = 1 in
  let st =
    {
      sw_lhs = Array.of_list (List.map (pos_of t) lhs);
      sw_rhs = positions;
      sw_names = names;
      sw_gid =
        (if single then Array.make (Array.length lcols.(0).dict) (-1) else [||]);
      sw_tuple_gid =
        Hashtbl.create
          (if single then 0 else max 16 (min t.n_rows 65536 / 4 + 16));
      sw_groups = 0;
      sw_repr = Array.make m [||];
      sw_holds = Array.make m true;
      sw_live = Array.init m Fun.id;
      sw_n_live = m;
    }
  in
  let sr = t.seg_rows in
  (* a store's columns all seal at the same boundaries; an empty LHS
     puts every row in one group, so the layout comes from the RHS *)
  let layout = if Array.length lcols > 0 then lcols.(0) else rcols.(0) in
  let nseg = Array.length layout.segs in
  if nseg > 0 then begin
    let lscratch = Array.map (fun _ -> Array.make sr 0) lcols in
    let rscratch = Array.map (fun _ -> Array.make sr 0) positions in
    let s = ref 0 in
    while st.sw_n_live > 0 && !s < nseg do
      Ooc.note_zone_sweep ();
      Array.iteri
        (fun j (lc : column) ->
          Packed_codes.decode_into (seg_payload lc.segs.(!s)) lscratch.(j))
        lcols;
      for j = 0 to st.sw_n_live - 1 do
        let k = st.sw_live.(j) in
        Packed_codes.decode_into (seg_payload rcols.(k).segs.(!s)) rscratch.(k)
      done;
      sweep_block st lscratch rscratch sr;
      incr s
    done
  end;
  if st.sw_n_live > 0 && Array.length layout.tail > 0 then
    sweep_block st
      (Array.map (fun (c : column) -> c.tail) lcols)
      (Array.map (fun (c : column) -> c.tail) rcols)
      (Array.length layout.tail);
  if st.sw_n_live > 0 then Hashtbl.replace t.fd_sweeps lhs st;
  st.sw_holds

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
      let res = sweep_fused t lhs names in
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
   the evidence coordinated join-count patching needs, as codes.
   Appends never renumber, so one attribute's newly added values are
   exactly its dictionary's new entries. *)
type refresh_summary =
  | Sum_unchanged
  | Sum_appended of {
      dict_before : int array;
          (* per attribute position, dictionary size before the first
             append (0 if not encoded) *)
      tuples : (string list, int array list) Hashtbl.t;
          (* per memoized keyset, the code tuples newly added *)
    }
  | Sum_invalidated

(* extend one encoded column with appended rows: intern each cell
   (extending the dictionary on first sight), grow the tail and seal
   full chunks off its front. Also returns the appended rows' codes,
   for the retained FD sweeps. *)
let extend_column t pos (col : column) tups =
  let k = Array.length tups in
  let t0 = Array.length col.tail in
  let codes = Array.make (t0 + k) 0 in
  Array.blit col.tail 0 codes 0 t0;
  let tab = column_interner col in
  (* the vector starts full, so the first new code reallocates it:
     [col.dict] itself is never written *)
  let d = { ddata = col.dict; dlen = Array.length col.dict } in
  let nulls = ref col.nulls in
  Array.iteri
    (fun i tup ->
      let c = intern_into tab d tup.(pos) in
      if c = 0 then incr nulls;
      codes.(t0 + i) <- c)
    tups;
  let dict =
    if d.dlen = Array.length col.dict then col.dict
    else Array.sub d.ddata 0 d.dlen
  in
  let sr = t.seg_rows in
  let total = t0 + k in
  let extra = total / sr in
  let col =
    if extra = 0 then { col with tail = codes; dict; nulls = !nulls }
    else begin
      let fresh = Array.init extra (fun s -> seal_segment ~seg_rows:sr codes (s * sr)) in
      {
        col with
        segs = Array.append col.segs fresh;
        tail = Array.sub codes (extra * sr) (total - (extra * sr));
        dict;
        nulls = !nulls;
        (* tail deletes reclaim as they go, so the tail is in
           first-occurrence order: codes at or below a freshly sealed
           maximum all occur in the sealed region — the invariant
           sealed_dict certifies *)
        sealed_dict = max_sealed_code fresh col.sealed_dict;
      }
    end
  in
  (col, Array.sub codes t0 k)

(* Drop the dictionary codes a tail delete left dead: codes >=
   sealed_dict (which occur only in the tail) are renumbered by first
   occurrence over the surviving tail and the rest dropped — exactly
   the dictionary a fresh encode of the surviving rows would build.
   Sealed segments are untouched: their codes are all below
   [sealed_dict] and provably live. *)
let reclaim_tail (col : column) =
  let sd = col.sealed_dict in
  let dlen = Array.length col.dict in
  let remap = Array.make (max 0 (dlen - sd)) (-1) in
  let next = ref sd in
  Array.iter
    (fun c ->
      if c >= sd && remap.(c - sd) < 0 then begin
        remap.(c - sd) <- !next;
        incr next
      end)
    col.tail;
  let identity = ref (!next = dlen) in
  Array.iteri (fun j c -> if c <> sd + j then identity := false) remap;
  if !identity then col
  else begin
    let dict = Array.make !next Value.Null in
    Array.blit col.dict 0 dict 0 sd;
    Array.iteri (fun j c -> if c >= 0 then dict.(c) <- col.dict.(sd + j)) remap;
    let tail = Array.map (fun c -> if c >= sd then remap.(c - sd) else c) col.tail in
    { col with tail; dict; interner = None }
  end

(* Drop deleted row positions. Tail-only deletes (the common delta
   shape) compact the tail and reclaim its dead codes. Deletes
   reaching sealed rows stream-recompact the whole column: codes are
   remapped by first occurrence over the surviving rows and dead
   dictionary entries are dropped. Either way the column is exactly a
   fresh encode of the surviving rows. *)
let compact_column t (col : column) idxs =
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
    reclaim_tail { col with tail; nulls = !nulls }
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
        interner = None;
      }
    in
    release_column col;
    col'
  end

(* Run appended rows' codes ([fresh.(pos)] per encoded column, as
   [extend_column] just interned them) through a retained sweep: the
   same kernel, continuing from the state the full pass left. *)
let sweep_delta t st (fresh : int array array) n =
  if st.sw_n_live > 0 && n > 0 then begin
    if Array.length st.sw_lhs = 1 then
      (match t.columns.(st.sw_lhs.(0)) with
      | Some c -> gid_grow st (Array.length c.dict)
      | None -> assert false);
    sweep_block st
      (Array.map (fun p -> fresh.(p)) st.sw_lhs)
      (Array.map (fun p -> fresh.(p)) st.sw_rhs)
      n
  end

(* The verdict short-circuits of the delta pass:
   - a FALSE verdict survives any append (extra rows cannot repair a
     violated FD); it is re-checked in O(delta) only if TRUE;
   - a TRUE verdict survives any delete (an FD holding on a superset
     holds on the subset); FALSE verdicts are dropped on delete.
   TRUE verdicts under appends are re-checked by their retained sweep;
   those without one (the sweep was dropped by a delete or replaced
   by a later sweep over the same LHS) are dropped and recomputed on
   demand. Sweeps left with no holding candidate are dropped. *)
let recheck_fd_verdicts t fresh n =
  Hashtbl.iter (fun _ st -> sweep_delta t st fresh n) t.fd_sweeps;
  let holds lhs a =
    match Hashtbl.find_opt t.fd_sweeps lhs with
    | None -> None
    | Some st ->
        let r = ref None in
        Array.iteri
          (fun k b -> if String.equal a b then r := Some st.sw_holds.(k))
          st.sw_names;
        !r
  in
  let entries = Hashtbl.fold (fun k v acc -> (k, v) :: acc) t.fd_verdicts [] in
  List.iter
    (fun (((lhs, a) as key), v) ->
      if v then
        match holds lhs a with
        | Some true -> ()
        | Some false -> Hashtbl.replace t.fd_verdicts key false
        | None -> Hashtbl.remove t.fd_verdicts key)
    entries;
  Hashtbl.filter_map_inplace
    (fun _ st -> if st.sw_n_live > 0 then Some st else None)
    t.fd_sweeps

(* patch every memoized keyset with the appended rows' codes
   ([fresh.(pos)] per encoded column), recording in [added] the tuples
   each newly gained, for the coordinated join-count patch *)
let patch_keysets_append t (fresh : int array array) n added =
  Hashtbl.iter
    (fun attrs ks ->
      let poss = Array.of_list (List.map (pos_of t) attrs) in
      let key = Array.make (Array.length poss) 0 in
      for i = 0 to n - 1 do
        Array.iteri (fun j p -> key.(j) <- fresh.(p).(i)) poss;
        if not (Array.mem 0 key) then begin
          ks.ks_witnesses <- ks.ks_witnesses + 1;
          if ks_add ks key then
            Hashtbl.replace added attrs
              (Array.copy key :: Option.value ~default:[] (Hashtbl.find_opt added attrs))
        end
      done)
    t.keysets

let apply_delta t ~summary delta =
  match delta with
  | Table.Rows_appended tups ->
      let fresh = Array.make (Array.length t.columns) [||] in
      Array.iteri
        (fun pos c ->
          match c with
          | Some col ->
              let col, codes = extend_column t pos col tups in
              t.columns.(pos) <- Some col;
              fresh.(pos) <- codes
          | None -> ())
        t.columns;
      (* after a delete no keyset is memoized, so nothing is added *)
      let added =
        match !summary with `Appended a -> a | `Invalidated -> Hashtbl.create 1
      in
      patch_keysets_append t fresh (Array.length tups) added;
      recheck_fd_verdicts t fresh (Array.length tups);
      t.n_rows <- t.n_rows + Array.length tups
  | Table.Rows_deleted idxs ->
      Array.iteri
        (fun pos c ->
          match c with
          | Some col -> t.columns.(pos) <- Some (compact_column t col idxs)
          | None -> ())
        t.columns;
      (* code-derived memos are dropped wholesale; only verdicts a
         deletion provably cannot flip survive *)
      Hashtbl.reset t.keysets;
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
  | Table.Rows_deleted idxs -> Array.length idxs

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
  Hashtbl.reset t.keysets;
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
let refresh_in_place ~coordinated t table =
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
        let dict_before =
          Array.map
            (function Some (c : column) -> Array.length c.dict | None -> 0)
            t.columns
        in
        let summary = ref (`Appended (Hashtbl.create 8)) in
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
          | `Appended tuples -> Sum_appended { dict_before; tuples }
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
let of_table table =
  match Table.ext_cache table with
  | Some (Store s) ->
      if s.built_version <> Table.version table then
        ignore (refresh_in_place ~coordinated:false s table)
      else s.table <- table;
      s
  | _ ->
      let s = make_store table in
      Table.set_ext_cache table (Store s);
      s

let refresh_all tables =
  (* pass 1: refresh every stashed store, remembering its old uid *)
  let items =
    List.map
      (fun tbl ->
        match Table.ext_cache tbl with
        | Some (Store s) ->
            let old_uid = s.uid in
            let outcome, summary =
              refresh_in_place ~coordinated:true s tbl
            in
            Some (s, old_uid, outcome, summary)
        | _ -> None)
      tables
  in
  (* pass 2: patch every join memo across the refreshed stores. A memo
     keys (attrs1, peer uid, attrs2); the peer's old uid finds its
     refreshed store, the patched count is rekeyed under the peer's
     renewed uid. The exact delta is |A1 ∩ d2| + |{k ∈ A2 : k ∈ d1 and
     k ∉ A1}| where A_i are the newly-added code tuples and d_i the
     patched distinct sets; a tuple crosses to the other side by
     [translate]. Entries touching a store outside this set, or a side
     whose summary was invalidated, are dropped and recomputed on
     demand. *)
  let registry = Hashtbl.create 16 in
  List.iter
    (function
      | Some (s, old_uid, _, summary) ->
          Hashtbl.replace registry old_uid (s, summary)
      | None -> ())
    items;
  let added_of s summary attrs =
    match (summary, attrs) with
    | Sum_unchanged, _ -> Some []
    | Sum_invalidated, _ -> None
    | Sum_appended { dict_before; _ }, [ a ] -> (
        let pos = pos_of s a in
        let before = dict_before.(pos) in
        match s.columns.(pos) with
        | Some c when before > 0 ->
            Some (List.init (Array.length c.dict - before) (fun i -> [| before + i |]))
        | _ -> None)
    | Sum_appended { tuples; _ }, _ ->
        if Hashtbl.mem s.keysets attrs then
          Some (Option.value ~default:[] (Hashtbl.find_opt tuples attrs))
        else None
  in
  (* the keys of [added] whose translation into [cols'] is a key there
     and passes [keep] *)
  let hits cols cols' member keep =
    List.fold_left
      (fun n k ->
        let k' = Array.make (Array.length k) 0 in
        if translate cols cols' k k' && member k' && keep k' then n + 1 else n)
      0
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
                  match (added_of s sum1 a1, added_of p sum2 a2) with
                  | Some added1, Some added2 ->
                      let cols1 = columns s a1 and cols2 = columns p a2 in
                      let mine = Hashtbl.create (max 4 (List.length added1)) in
                      List.iter (fun k -> Hashtbl.replace mine k ()) added1;
                      let n =
                        n
                        + hits cols1 cols2 (key_test p a2) (fun _ -> true) added1
                        + hits cols2 cols1 (key_test s a1)
                            (fun k' -> not (Hashtbl.mem mine k'))
                            added2
                      in
                      Hashtbl.replace s.join_counts (a1, p.uid, a2) n
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
    b_row : int array;  (* the open row's codes; -1 = staged miss *)
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
      b_row = Array.make arity 0;
      b_rows = 0;
      b_tail_len = 0;
    }

  let rows b = b.b_rows

  (* the next code at [pos], for a value the caller knows is new to the
     column: no intern-table probe, and no entry for later lookups *)
  let fresh_code b pos v =
    let d = b.b_dict.(pos) in
    dvec_push d v;
    d.dlen - 1

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

  let push b p c =
    vec_push b.b_codes.(p) c;
    if c = 0 then b.b_nulls.(p) <- b.b_nulls.(p) + 1

  let row_done b =
    b.b_rows <- b.b_rows + 1;
    b.b_tail_len <- b.b_tail_len + 1;
    if b.b_arity > 0 && b.b_tail_len = b.b_seg_rows then seal_all b

  let append b codes =
    if Array.length codes <> b.b_arity then
      invalid_arg "Column_store.Builder.append: arity mismatch";
    for p = 0 to b.b_arity - 1 do
      push b p codes.(p)
    done;
    row_done b

  (* One probe per cell (see [vtab_reserve]): each column takes at most
     one cell per row, so reserving every column's table when the row
     opens keeps each staged miss valid until the row ends. *)
  let begin_row b =
    for p = 0 to b.b_arity - 1 do
      vtab_reserve b.b_intern.(p)
    done

  let cell b pos c =
    b.b_row.(pos) <- c;
    c

  let cell_int b pos n =
    cell b pos
      (if n = min_int then vtab_probe b.b_intern.(pos) (Value.Int n)
       else probe_int b.b_intern.(pos) n)

  let cell_bytes b pos buf off len =
    cell b pos (probe_str b.b_intern.(pos) buf off len "")

  let cell_value b pos v = cell b pos (vtab_probe b.b_intern.(pos) v)

  let drop_row b = Array.fill b.b_row 0 b.b_arity 0

  (* staged misses become codes in attribute order, the order a
     row-at-a-time intern assigns them *)
  let end_row b =
    for p = 0 to b.b_arity - 1 do
      let c = b.b_row.(p) in
      push b p (if c < 0 then commit_into b.b_intern.(p) b.b_dict.(p) else c);
      b.b_row.(p) <- 0
    done;
    row_done b

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
            r.(c) <- intern_into dst.b_intern.(p) dst.b_dict.(p) local.ddata.(c)
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
            interner = None;
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
    let store = make_store ~seg_rows:b.b_seg_rows table in
    Array.iteri (fun p c -> store.columns.(p) <- Some c) cols;
    Table.set_ext_cache table (Store store);
    table
end

(* ------------------------------------------------------------------ *)
(* projection                                                          *)
(* ------------------------------------------------------------------ *)

(* Each projected column's codes are remapped to the output's own
   first-occurrence codes as rows are emitted, so the result's
   dictionaries and codes are exactly those a fresh encode of the
   projected rows would assign. A source dictionary holds each value
   once, so a source code seen for the first time always carries a
   value new to the output column: it takes the next output code with
   no intern-table probe. *)
let project ?distinct t (rel : Relation.t) =
  let attrs = rel.Relation.attrs in
  let cols = columns t attrs in
  let m = Array.length cols in
  let b = Builder.create rel in
  let remap =
    Array.map
      (fun (c : column) ->
        let r = Array.make (Array.length c.dict) (-1) in
        r.(0) <- 0;
        r)
      cols
  in
  let row = Array.make m 0 in
  let emit bufs i =
    for j = 0 to m - 1 do
      let code = bufs.(j).(i) in
      let r = remap.(j) in
      if r.(code) < 0 then
        r.(code) <- Builder.fresh_code b j cols.(j).dict.(code);
      row.(j) <- r.(code)
    done;
    Builder.append b row
  in
  (match distinct with
  | None ->
      iter_blocks t cols (fun bufs len _base ->
          for i = 0 to len - 1 do
            emit bufs i
          done)
  | Some non_null ->
      List.iter
        (fun a ->
          if not (List.mem a attrs) then
            invalid_arg
              (Printf.sprintf
                 "Column_store.project(%s): %s is not a projected attribute"
                 rel.Relation.name a))
        non_null;
      let need =
        Array.of_list (List.map (fun a -> List.mem a non_null) attrs)
      in
      ignore (dedup_codes t cols need emit));
  Builder.finish b
