(* Dictionary-encoded columnar extension of a relation, with shared
   caches for the projection and grouping workloads dependency
   discovery issues: the library's one implementation of every
   extension primitive, and the one copy of the rows a table keeps.

   Equality semantics deliberately mirror the row-at-a-time
   definitions: codes are interned by structural equality on
   [Value.t] ([compare _ _ = 0], the polymorphic hashtable's identity),
   exactly what the row-level reference implementations key their
   hashtables with, so the store agrees with them verdict-for-verdict.

   Layout: each column is a sequence of immutable *sealed segments* of
   exactly [seg_rows] rows (codes bit-packed to the width of the
   segment's largest code) followed by one open mutable *tail* of
   plain int codes holding the remainder. Appends extend the tail and
   seal it once it holds a full segment; sealed segments never change,
   so they can spill to disk under the [Ooc] residency budget and mmap
   back on demand without any coherence protocol. All of a store's
   columns seal at the same fixed row boundaries, so multi-column
   passes iterate block-aligned: decode segment [s] of every needed
   column, sweep [seg_rows] rows, move on.

   Mutations apply to the codes at once and keep every memo exact as
   they go (see the mutations section); what a store remembers of them
   is only the summary [refresh_all] patches cross-store join memos
   from. *)

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

(* A growable code vector: a length kept beside a capacity that
   doubles, so one more code costs amortized O(1). A store fresh from a
   load holds it at exact length. *)
type vec = { mutable data : int array; mutable len : int }

let vec_push v x =
  if v.len = Array.length v.data then begin
    let d = Array.make (max 16 (2 * v.len)) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let trim_vec v = if Array.length v.data > v.len then v.data <- Array.sub v.data 0 v.len

type column = {
  mutable segs : segment array;  (* sealed, immutable, [seg_rows] rows each *)
  tail : vec;  (* open remainder; 0 is the reserved NULL code *)
  mutable dict : Dict.t;  (* code <-> value, with its intern table *)
  mutable nulls : int;  (* rows holding NULL in this column *)
  mutable sealed_dict : int;
      (* codes < sealed_dict are guaranteed to occur in the sealed
         segments (first-occurrence interning puts every code below a
         sealed maximum before that maximum's first row). Codes >=
         sealed_dict live only in the tail — the only region deletes
         can orphan them from, so a tail delete reclaims dead codes by
         scanning the tail alone. *)
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
   when rows are appended: appends never renumber, since dead tail
   codes are reclaimed at delete time (see [compact_column]). *)
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

(* How the memos fared over a window of mutations: all patched in
   place; patched, but a delete renumbered codes (so the summary cannot
   patch join counts); or dropped once the window passed
   [delta_fraction] of the extension. *)
type pending = Patched | Invalidated | Dropped

(* The mutations of a watched store since the last [refresh_all]: what
   the store looked like when the first one arrived, and what the
   cross-store join patch needs to know since. *)
type window =
  | Clean
  | Open of {
      base_uid : int;  (* the uid the store had before the window *)
      base_rows : int;
      dict_before : int array;  (* per attribute position, dictionary size *)
      added : (string list, int array list) Hashtbl.t;
          (* per keyset memoized when the window opened, the code
             tuples appends added to it since *)
      stashed : ((string list * int * string list) * int) list;
          (* the join memos the store held when the window opened *)
      mutable rows : int;  (* rows appended or deleted in the window *)
      mutable state : pending;
    }

type t = {
  rel : Relation.t;  (* attribute names and positions *)
  seg_rows : int;  (* fixed sealed-segment size for this store *)
  columns : column array;  (* by attribute position *)
  mutable n_rows : int;
  mutable version : int;  (* bumped once per mutation *)
  mutable uid : int;  (* unique per store content: cross-store keys *)
  mutable watched : bool;
      (* a memo has been built on this store, or names it as a join
         peer: only then do mutations open a window *)
  mutable window : window;
  keysets : (string list, keyset) Hashtbl.t;
      (* NULL-free distinct code tuples, per attribute list of two or
         more: one attribute's distinct set is its dictionary *)
  fd_verdicts : (string list * string, bool) Hashtbl.t;
  fd_sweeps : (string list, sweep) Hashtbl.t;
  join_counts : (string list * int * string list, int) Hashtbl.t;
}

type store = t

let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* process-wide refresh counters, surfaced by [Engine.describe] and the
   serve job status *)
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

(* the segment is dead (column compacted, load chunk merged): drop its
   budget entry and its spill file *)
let release_segment seg =
  Ooc.unregister ~id:seg.seg_id;
  (match seg.seg_path with
  | Some path -> ( try Sys.remove path with Sys_error _ -> ())
  | None -> ());
  seg.seg_path <- None;
  seg.seg_data <- Seg_disk

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
  let out = Array.make (ns + col.tail.len) 0 in
  let off = ref 0 in
  Array.iter
    (fun seg ->
      let tmp = Packed_codes.to_array (seg_payload seg) in
      Array.blit tmp 0 out !off (Array.length tmp);
      off := !off + Array.length tmp)
    col.segs;
  Array.blit col.tail.data 0 out ns col.tail.len;
  out

let column_dict (col : column) = Dict.to_array col.dict
let column_strings (col : column) = Dict.to_strings col.dict
let column_domain (col : column) = Dict.domain col.dict

(* Iterate the row blocks of [cols] in row order: every sealed segment
   (a store's columns all seal at the same fixed boundaries, so block
   [s] lines up across columns), then the open tail. [f bufs len base]
   reads [bufs.(j).(0 .. len-1)] and must not retain [bufs]: sealed
   blocks reuse one scratch buffer per column. *)
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
    let tlen = cols.(0).tail.len in
    if tlen > 0 then f (Array.map (fun (c : column) -> c.tail.data) cols) tlen (nseg * sr)
  end

(* ------------------------------------------------------------------ *)
(* store construction and the append path                            *)
(* ------------------------------------------------------------------ *)

let empty_column () =
  {
    segs = [||];
    tail = { data = [||]; len = 0 };
    dict = Dict.create ();
    nulls = 0;
    sealed_dict = 1;
  }

let create rel =
  let s =
    {
      rel;
      seg_rows = (Ooc.config ()).segment_rows;
      columns = Array.init (Relation.arity rel) (fun _ -> empty_column ());
      n_rows = 0;
      version = 0;
      uid = fresh_uid ();
      watched = false;
      window = Clean;
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
        (fun (c : column) ->
          Array.iter
            (fun sg ->
              ids := sg.seg_id :: !ids;
              match sg.seg_path with
              | Some p -> ( try Sys.remove p with Sys_error _ -> ())
              | None -> ())
            c.segs)
        s.columns;
      Ooc.bury !ids)
    s;
  s

let cardinality t = t.n_rows
let version t = t.version

let same_attributes t (rel : Relation.t) = rel.Relation.attrs = t.rel.Relation.attrs

(* The one append path — row inserts, loads, load merges and
   projections all come through here: push a code onto each column's
   tail, then close the row, which seals every tail together once they
   hold a full segment (all of a store's columns seal at the same row
   boundaries). *)
let push_code (col : column) c =
  vec_push col.tail c;
  if c = 0 then col.nulls <- col.nulls + 1

let row_done t =
  t.n_rows <- t.n_rows + 1;
  if Array.length t.columns > 0 && t.columns.(0).tail.len = t.seg_rows then
    Array.iter
      (fun (col : column) ->
        let seg = seal_segment ~seg_rows:t.seg_rows col.tail.data 0 in
        col.segs <- Array.append col.segs [| seg |];
        (* tail deletes reclaim as they go, so the tail is in
           first-occurrence order: codes at or below a freshly sealed
           maximum all occur in the sealed region — the invariant
           sealed_dict certifies *)
        col.sealed_dict <- max col.sealed_dict (seg.seg_max + 1);
        col.tail.len <- 0)
      t.columns

let pos_of t a =
  try Relation.attr_index t.rel a
  with Not_found ->
    invalid_arg
      (Printf.sprintf "Column_store(%s): unknown attribute %s"
         t.rel.Relation.name a)

let column t a = t.columns.(pos_of t a)
let columns t attrs = Array.of_list (List.map (column t) attrs)

(* ------------------------------------------------------------------ *)
(* distinct code tuples                                                *)
(* ------------------------------------------------------------------ *)

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
      t.watched <- true;
      ks

(* A single attribute needs no row pass: the dictionary is the
   distinct set (deletes drop dead codes as they compact). *)
let count_distinct t attrs =
  match attrs with
  | [ a ] -> Dict.length (column t a).dict - 1
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
  Array.iter (fun c -> if probe then Dict.index c.dict) (columns t attrs)

(* [f k] on every distinct NULL-free code tuple of [attrs] ([k] is a
   scratch buffer): a single attribute's are its dictionary's codes *)
let iter_keys t attrs f =
  match attrs with
  | [ a ] ->
      let k = [| 0 |] in
      for c = 1 to Dict.length (column t a).dict - 1 do
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
   there. Each component is looked up in its peer column's intern
   table, so equality is the identity interning partitions by. *)
let translate (cols : column array) (cols' : column array) k k' =
  let rec go j =
    j = Array.length k
    ||
    let d = Dict.find_in cols'.(j).dict cols.(j).dict k.(j) in
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
      t1.watched <- true;
      t2.watched <- true;
      !n

let unary_included t1 a1 t2 a2 = Dict.included (column t1 a1).dict (column t2 a2).dict

let common_values t1 a1 t2 a2 =
  let cols = columns t1 a1 in
  let acc = ref [] in
  iter_join "common_values" t1 a1 t2 a2 (fun k1 ->
      acc := Array.to_list (Array.mapi (fun j c -> Dict.get cols.(j).dict c) k1) :: !acc);
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
   candidate keeps its state in [fd_sweeps] for the append re-check
   ([sweep_delta]); one that refuted every candidate keeps nothing. *)
let sweep_fused t lhs names =
  let lcols = columns t lhs in
  let positions = Array.map (pos_of t) names in
  let rcols = Array.map (fun p -> t.columns.(p)) positions in
  let m = Array.length names in
  let single = Array.length lcols = 1 in
  let st =
    {
      sw_lhs = Array.of_list (List.map (pos_of t) lhs);
      sw_rhs = positions;
      sw_names = names;
      sw_gid = (if single then Array.make (Dict.length lcols.(0).dict) (-1) else [||]);
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
  if st.sw_n_live > 0 && layout.tail.len > 0 then
    sweep_block st
      (Array.map (fun (c : column) -> c.tail.data) lcols)
      (Array.map (fun (c : column) -> c.tail.data) rcols)
      layout.tail.len;
  if st.sw_n_live > 0 then Hashtbl.replace t.fd_sweeps lhs st;
  st.sw_holds

(* The batched FD check: one fused pass answers every RHS attribute of
   a shared LHS, segment-by-segment over the packed codes. Verdicts
   land by index, so the result order is the submission order.
   Already-memoized verdicts are reused; fresh ones are memoized. Call
   only from the domain that owns the store. *)
let fd_batch t ~lhs ~rhs =
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
      let res = sweep_fused t lhs names in
      Array.iteri
        (fun k i ->
          verdicts.(i) <- Some res.(k);
          Hashtbl.replace t.fd_verdicts (lhs, rhs_arr.(i)) res.(k))
        misses;
      t.watched <- true);
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
  dict_words : int;
}

let residency t =
  let sealed = ref 0 and resident = ref 0 and spilled = ref 0 in
  let widths : (int, int) Hashtbl.t = Hashtbl.create 8 in
  Array.iter
    (fun (c : column) ->
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
    tail_rows = (if Array.length t.columns = 0 then 0 else t.columns.(0).tail.len);
    width_histogram =
      List.sort compare (Hashtbl.fold (fun w n acc -> (w, n) :: acc) widths []);
    dict_words = Array.fold_left (fun acc (c : column) -> acc + Dict.heap_words c.dict) 0 t.columns;
  }

(* ------------------------------------------------------------------ *)
(* mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Run appended rows' codes ([fresh.(pos)] per column) through a
   retained sweep: the same kernel, continuing from the state the full
   pass left. *)
let sweep_delta t st (fresh : int array array) n =
  if st.sw_n_live > 0 && n > 0 then begin
    if Array.length st.sw_lhs = 1 then
      gid_grow st (Dict.length t.columns.(st.sw_lhs.(0)).dict);
    sweep_block st
      (Array.map (fun p -> fresh.(p)) st.sw_lhs)
      (Array.map (fun p -> fresh.(p)) st.sw_rhs)
      n
  end

(* The verdict rules of an append:
   - a FALSE verdict survives any append (extra rows cannot repair a
     violated FD); it is re-checked in O(delta) only if TRUE;
   - TRUE verdicts are re-checked by their retained sweep; those
     without one (the sweep was dropped by a delete or replaced by a
     later sweep over the same LHS) are dropped and recomputed on
     demand. Sweeps left with no holding candidate are dropped.
   Deletes have the other two (see [delete]). *)
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
  Hashtbl.filter_map_inplace
    (fun (lhs, a) v ->
      if not v then Some v
      else match holds lhs a with Some h -> Some h | None -> None)
    t.fd_verdicts;
  Hashtbl.filter_map_inplace
    (fun _ st -> if st.sw_n_live > 0 then Some st else None)
    t.fd_sweeps

(* patch every memoized keyset with the appended rows' codes
   ([fresh.(pos)] per column), recording in [added] the tuples each
   keyset of the open window newly gained *)
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
            match added with
            | Some h -> (
                match Hashtbl.find_opt h attrs with
                | Some l -> Hashtbl.replace h attrs (Array.copy key :: l)
                | None -> ())
            | None -> ()
        end
      done)
    t.keysets

(* Drop the dictionary codes a tail delete left dead, the tail's rows
   from [i0] (the first deleted one) on being the survivors. Codes
   below [sealed_dict] occur in the sealed segments, and the rows
   before [i0] all survive, so by first-occurrence order every code up
   to the largest of theirs is live: only the codes above it, first
   seen at or after [i0], can die or move. They are renumbered by first
   occurrence over the surviving rows from [i0] on and the dead ones
   dropped — exactly the dictionary a fresh encode of the surviving
   rows would build, its intern table kept exact. When no row from [i0]
   on held the newest code ([newest_after] false), that code occurs
   before [i0], so it is the largest there and nothing can die or move:
   the usual delete of rows appended since the last new value reads no
   survivor. *)
let reclaim_tail (col : column) i0 ~newest_after =
  let tail = col.tail and len = Dict.length col.dict in
  let top = ref (if newest_after then col.sealed_dict - 1 else len - 1) in
  if newest_after then
    for i = 0 to i0 - 1 do
      if tail.data.(i) > !top then top := tail.data.(i)
    done;
  let lo = !top + 1 in
  let remap = Array.make (max 0 (len - lo)) (-1) in
  let next = ref lo in
  for i = i0 to tail.len - 1 do
    let c = tail.data.(i) in
    if c >= lo && remap.(c - lo) < 0 then begin
      remap.(c - lo) <- !next;
      incr next
    end
  done;
  let identity = ref (!next = len) in
  Array.iteri (fun j c -> if c <> lo + j then identity := false) remap;
  if not !identity then begin
    Dict.reclaim col.dict ~lo remap ~next:!next;
    for i = i0 to tail.len - 1 do
      let c = tail.data.(i) in
      if c >= lo then tail.data.(i) <- remap.(c - lo)
    done
  end

(* Drop deleted row positions ([idxs] ascending, distinct, in range).
   Tail-only deletes (the common shape) compact the tail in place from
   the first deleted row on and reclaim its dead codes. Deletes reaching sealed rows
   stream-recompact the whole column: codes are remapped by first
   occurrence over the surviving rows and dead dictionary entries are
   dropped. Either way the column is exactly a fresh encode of the
   surviving rows. *)
let compact_column t (col : column) idxs =
  let sr = t.seg_rows in
  let ns = Array.length col.segs * sr in
  let k = Array.length idxs in
  if idxs.(0) >= ns then begin
    let tail = col.tail and newest = Dict.length col.dict - 1 in
    let data = tail.data in
    let i0 = idxs.(0) - ns in
    let j = ref i0 and d = ref 0 and newest_after = ref false in
    for i = i0 to tail.len - 1 do
      let c = data.(i) in
      if c = newest then newest_after := true;
      if !d < k && idxs.(!d) = ns + i then begin
        if c = 0 then col.nulls <- col.nulls - 1;
        incr d
      end
      else begin
        data.(!j) <- c;
        incr j
      end
    done;
    tail.len <- !j;
    reclaim_tail col i0 ~newest_after:!newest_after
  end
  else begin
    let remap = Array.make (Dict.length col.dict) (-1) in
    let order = Array.make (Dict.length col.dict) 0 in
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
              order.(m) <- c;
              push m
            end
          end
        end
      done
    in
    let scratch = Array.make sr 0 in
    Array.iteri
      (fun s seg ->
        Packed_codes.decode_into (seg_payload seg) scratch;
        consume (s * sr) sr scratch)
      col.segs;
    consume ns col.tail.len col.tail.data;
    Array.iter release_segment col.segs;
    let segs = Array.of_list (List.rev !segs_acc) in
    col.segs <- segs;
    col.tail.data <- Array.sub buf 0 !blen;
    col.tail.len <- !blen;
    col.dict <- Dict.select col.dict order !next;
    col.nulls <- !nulls;
    col.sealed_dict <- max_sealed_code segs 1
  end

let reset_memos t =
  Hashtbl.reset t.keysets;
  Hashtbl.reset t.fd_verdicts;
  Hashtbl.reset t.fd_sweeps;
  Hashtbl.reset t.join_counts

let drop_memos t =
  reset_memos t;
  match t.window with Open w -> w.state <- Dropped | Clean -> ()

(* Every mutation of [k] rows starts here. On a watched store the first
   one since the last [refresh_all] opens the window, and once the
   window's rows pass [delta_fraction] of the extension the memos are
   dropped instead of patched (a delta that large would cost more to
   patch than the memos are worth). Then the store's own join memos go
   (their counts are over the old rows; the window keeps the ones it
   opened with, for [refresh_all] to patch), and the uid is renewed, so
   a join memo elsewhere keyed on the old one is never served stale. *)
let begin_mutation t k ~rows_after =
  (match t.window with
  | Clean when t.watched ->
      let added = Hashtbl.create 8 in
      Hashtbl.iter (fun attrs _ -> Hashtbl.replace added attrs []) t.keysets;
      t.window <-
        Open
          {
            base_uid = t.uid;
            base_rows = t.n_rows;
            dict_before = Array.map (fun (c : column) -> Dict.length c.dict) t.columns;
            added;
            stashed = Hashtbl.fold (fun key n acc -> (key, n) :: acc) t.join_counts [];
            rows = 0;
            state = Patched;
          }
  | _ -> ());
  (match t.window with
  | Open w ->
      w.rows <- w.rows + k;
      if
        w.state <> Dropped
        && float_of_int w.rows
           > delta_fraction *. float_of_int (max 1 (max w.base_rows rows_after))
      then begin
        reset_memos t;
        w.state <- Dropped
      end
  | Clean -> ());
  Hashtbl.reset t.join_counts;
  t.uid <- fresh_uid ();
  t.version <- t.version + 1

(* Append rows of values (arities checked by the caller), as one
   mutation: each value is interned once into its column's table and
   its code pushed onto the tail. Memoized keysets then take the new
   code tuples, and retained sweeps re-check their TRUE verdicts on
   the new rows alone. *)
let append t (rows : Value.t array array) =
  let k = Array.length rows in
  if k > 0 then begin
    begin_mutation t k ~rows_after:(t.n_rows + k);
    let patch = Hashtbl.length t.keysets > 0 || Hashtbl.length t.fd_sweeps > 0 in
    let fresh = if patch then Array.map (fun _ -> Array.make k 0) t.columns else [||] in
    let cols = t.columns in
    for i = 0 to k - 1 do
      let row = rows.(i) in
      for p = 0 to Array.length cols - 1 do
        let col = cols.(p) in
        let c = Dict.intern col.dict row.(p) in
        push_code col c;
        if patch then fresh.(p).(i) <- c
      done;
      row_done t
    done;
    if patch then begin
      let added =
        match t.window with Open { state = Patched; added; _ } -> Some added | _ -> None
      in
      patch_keysets_append t fresh k added;
      recheck_fd_verdicts t fresh k
    end
  end

(* Remove rows at [idxs] (ascending, distinct, in range), as one
   mutation. Code-derived memos go wholesale; of the verdicts only the
   TRUE ones survive, since an FD holding on a superset holds on the
   subset. *)
let delete t idxs =
  let k = Array.length idxs in
  if k > 0 then begin
    begin_mutation t k ~rows_after:(t.n_rows - k);
    (match t.window with
    | Open ({ state = Patched; _ } as w) -> w.state <- Invalidated
    | _ -> ());
    Array.iter (fun col -> compact_column t col idxs) t.columns;
    t.n_rows <- t.n_rows - k;
    Hashtbl.reset t.keysets;
    Hashtbl.reset t.fd_sweeps;
    Hashtbl.filter_map_inplace (fun _ v -> if v then Some v else None) t.fd_verdicts
  end

(* every row, decoded: each column's codes and values once, then the
   tuples, which share each distinct value *)
let decode t =
  let codes = Array.map column_codes t.columns in
  let values = Array.map column_dict t.columns in
  Array.init t.n_rows (fun i -> Array.mapi (fun p vals -> vals.(codes.(p).(i))) values)

(* ------------------------------------------------------------------ *)
(* coordinated refresh                                                 *)
(* ------------------------------------------------------------------ *)

type refresh_outcome =
  | Store_fresh
  | Store_absorbed of int
  | Store_rebuilt

(* What a window did to a store's distinct sets — the evidence the
   join-count patch needs, as codes. Appends never renumber, so one
   attribute's newly added values are exactly its dictionary's new
   entries. *)
type refresh_summary =
  | Sum_unchanged
  | Sum_appended of {
      dict_before : int array;
      tuples : (string list, int array list) Hashtbl.t;
    }
  | Sum_invalidated

let refresh_all stores =
  (* pass 1: close every watched store's window, remembering the uid
     it had before, its outcome and the join memos to patch: those it
     opened the window with, or, with no window, all it holds *)
  let items =
    List.map
      (fun s ->
        if not s.watched then None
        else begin
          let item =
            match s.window with
            | Clean ->
                let entries = Hashtbl.fold (fun k n acc -> (k, n) :: acc) s.join_counts [] in
                Hashtbl.reset s.join_counts;
                (s, s.uid, Store_fresh, Sum_unchanged, entries)
            | Open w ->
                let outcome, summary =
                  match w.state with
                  | Dropped ->
                      Atomic.incr rebuild_ctr;
                      (Store_rebuilt, Sum_invalidated)
                  | state ->
                      Atomic.incr incremental_ctr;
                      ignore (Atomic.fetch_and_add absorbed_ctr w.rows);
                      ( Store_absorbed w.rows,
                        if state = Patched then
                          Sum_appended { dict_before = w.dict_before; tuples = w.added }
                        else Sum_invalidated )
                in
                (s, w.base_uid, outcome, summary, w.stashed)
          in
          s.window <- Clean;
          Some item
        end)
      stores
  in
  (* pass 2: patch the join memos. A memo keys (attrs1, peer uid,
     attrs2); the uid the peer had before its window finds it, and the
     patched count is rekeyed under the peer's current uid. The exact
     delta is |A1 ∩ d2| + |{k ∈ A2 : k ∈ d1 and k ∉ A1}| where A_i are
     the newly-added code tuples and d_i the current distinct sets; a
     tuple crosses to the other side by [translate]. Memos touching a
     store outside this set, or a side whose summary was invalidated,
     are dropped and recomputed on demand. *)
  let registry = Hashtbl.create 16 in
  List.iter
    (function
      | Some (s, old_uid, _, summary, _) -> Hashtbl.replace registry old_uid (s, summary)
      | None -> ())
    items;
  let added_of s summary attrs =
    match (summary, attrs) with
    | Sum_unchanged, _ -> Some []
    | Sum_invalidated, _ -> None
    | Sum_appended { dict_before; _ }, [ a ] ->
        let pos = pos_of s a in
        let before = dict_before.(pos) in
        Some (List.init (Dict.length s.columns.(pos).dict - before) (fun i -> [| before + i |]))
    | Sum_appended { tuples; _ }, _ -> Hashtbl.find_opt tuples attrs
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
      | Some (s, _, _, sum1, entries) ->
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
  List.map (Option.map (fun (_, _, outcome, _, _) -> outcome)) items

(* ------------------------------------------------------------------ *)
(* loads                                                               *)
(* ------------------------------------------------------------------ *)

module Builder = struct
  type b = {
    store : store;
    row : int array;  (* the open row's codes; -1 = staged miss *)
  }

  type t = b

  let create rel =
    let store = create rel in
    { store; row = Array.make (Relation.arity rel) 0 }

  (* the next code at [pos], for a value the caller knows is new to the
     column: no intern-table probe *)
  let fresh_code b pos src c = Dict.push_from b.store.columns.(pos).dict src c

  let append b codes =
    let cols = b.store.columns in
    if Array.length codes <> Array.length cols then
      invalid_arg "Column_store.Builder.append: arity mismatch";
    for p = 0 to Array.length cols - 1 do
      push_code cols.(p) codes.(p)
    done;
    row_done b.store

  (* One probe per cell (see [Dict.reserve]): each column takes at most
     one cell per row, so reserving every column's table when the row
     opens keeps each staged miss valid until the row ends. *)
  let begin_row b = Array.iter (fun (col : column) -> Dict.reserve col.dict) b.store.columns

  let cell b pos c =
    b.row.(pos) <- c;
    c

  let cell_int b pos n = cell b pos (Dict.probe_int b.store.columns.(pos).dict n)

  let cell_bytes b pos buf off len =
    cell b pos (Dict.probe_bytes b.store.columns.(pos).dict buf off len)

  let cell_value b pos v = cell b pos (Dict.probe_value b.store.columns.(pos).dict v)
  let drop_row b = Array.fill b.row 0 (Array.length b.row) 0

  (* staged misses become codes in attribute order, the order a
     row-at-a-time intern assigns them *)
  let end_row b =
    let cols = b.store.columns in
    for p = 0 to Array.length cols - 1 do
      let c = b.row.(p) and col = cols.(p) in
      push_code col (if c < 0 then Dict.commit col.dict else c);
      b.row.(p) <- 0
    done;
    row_done b.store

  (* Merge [src] (a chunk-local builder) onto the end of [dst].
     Appending chunk dictionaries in chunk order reproduces the global
     first-occurrence interning order, so the merged store is identical
     to a sequential build over the concatenated rows. Rows stream
     through block by block, so [dst]'s seal boundaries stay aligned
     regardless of where they fell in [src]; [src]'s segments are
     released once drained. *)
  let merge dst src =
    let d = dst.store and s = src.store in
    if Array.length d.columns <> Array.length s.columns then
      invalid_arg "Column_store.Builder.merge: arity mismatch";
    if d.seg_rows <> s.seg_rows then
      invalid_arg "Column_store.Builder.merge: segment size mismatch";
    let remap =
      Array.mapi
        (fun p (col : column) ->
          let r = Array.make (Dict.length col.dict) 0 in
          for c = 1 to Dict.length col.dict - 1 do
            r.(c) <- Dict.intern_from d.columns.(p).dict col.dict c
          done;
          r)
        s.columns
    in
    if Array.length s.columns = 0 then
      for _ = 1 to s.n_rows do
        row_done d
      done
    else
      iter_blocks s s.columns (fun bufs len _ ->
          for i = 0 to len - 1 do
            for p = 0 to Array.length d.columns - 1 do
              push_code d.columns.(p) remap.(p).(bufs.(p).(i))
            done;
            row_done d
          done);
    Array.iter
      (fun (col : column) ->
        Array.iter release_segment col.segs;
        col.segs <- [||])
      s.columns

  (* a finished load keeps exact-length arrays and no intern tables *)
  let finish b =
    Array.iter
      (fun (col : column) ->
        trim_vec col.tail;
        Dict.trim col.dict)
      b.store.columns;
    b.store
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
        let r = Array.make (Dict.length c.dict) (-1) in
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
        r.(code) <- Builder.fresh_code b j cols.(j).dict code;
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
