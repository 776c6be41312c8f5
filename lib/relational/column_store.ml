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
   exactly [seg_rows] rows followed by one open mutable *tail* of
   plain int codes holding the remainder. Appends extend the tail and
   seal it once it holds a full segment; a sealed segment is [Ooc]'s
   (packing, spill, map-back, release), read back through [iter_blocks].
   All of a store's columns seal at the same fixed row boundaries, so
   multi-column passes iterate block-aligned: decode segment [s] of
   every needed column, sweep [seg_rows] rows, move on. Every tuple of
   codes the store keys — distinct sets, FD groups, what a window added
   — is a [Code_tuples] id.

   Mutations apply to the codes at once and keep every memo exact as
   they go (see the mutations section); what a store remembers of them
   is only the summary [refresh_all] patches cross-store join memos
   from. *)

(* A growable code vector: a length kept beside a capacity that never
   grows past [cap], the size at which a tail seals. A filling vector
   doubles, so a load copies each tail a few times on its way to a
   segment. A store fresh from a load holds it trimmed to exact length,
   and its first append grows it by half, not double. *)
type vec = { mutable data : int array; mutable len : int; mutable trimmed : bool }

let vec_push ~cap v x =
  if v.len = Array.length v.data then begin
    let room = if v.trimmed then v.len / 2 else v.len in
    let d = Array.make (min cap (max 16 (v.len + room))) 0 in
    Array.blit v.data 0 d 0 v.len;
    v.data <- d;
    v.trimmed <- false
  end;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let trim_vec v =
  if Array.length v.data > v.len then begin
    v.data <- Array.sub v.data 0 v.len;
    v.trimmed <- true
  end

type column = {
  mutable segs : Ooc.segment array;  (* sealed, immutable, [seg_rows] rows each *)
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

(* The distinct code tuples of a column list, ids in first-occurrence
   order (see [dedup_codes]). *)
type distinct = {
  tuples : Code_tuples.t;
  mutable witnesses : int;  (* rows the tuples were drawn from *)
}

(* The code-level state of one fused FD sweep over a shared LHS (see
   [sweep_fused]): the LHS code -> group-id table, and per candidate
   RHS attribute its representative code per group and whether it
   still holds; a group id is an LHS code tuple's id. A completed sweep
   with surviving candidates is kept, and appended rows' codes run
   through the same kernel, re-checking its true verdicts in O(delta).
   Every delete drops the retained sweeps (group emptiness is not
   tracked, so a representative could outlive its rows), which also
   keeps codes meaning the same values when rows are appended: appends
   never renumber, since dead tail codes are reclaimed at delete time
   (see [compact_column]). *)
type groups =
  | By_code of { mutable gid : int array }
      (* single-attribute LHS: code -> group id, -1 before first sight *)
  | By_tuple of Code_tuples.t  (* any other width: LHS codes -> group id *)

type sweep = {
  sw_lhs : int array;  (* LHS attribute positions *)
  sw_rhs : int array;  (* candidate RHS positions *)
  sw_names : string array;  (* candidate RHS names, aligned with sw_rhs *)
  sw_by : groups;
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
      tuples_before : (string list * int) list;
          (* per distinct set memoized when the window opened, its
             tuple count then: appends add ids from there on *)
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
  distincts : (string list, distinct) Hashtbl.t;
      (* NULL-free distinct code tuples, per attribute list of two or
         more: one attribute's distinct set is its dictionary *)
  fd_verdicts : (string list * string, bool) Hashtbl.t;
  fd_sweeps : (string list, sweep) Hashtbl.t;
  join_counts : (string list * int * string list, int) Hashtbl.t;
}

type store = t

let uid_counter = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add uid_counter 1

(* process-wide refresh counters, surfaced by bench logs and the serve
   job status *)
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
(* blocks                                                              *)
(* ------------------------------------------------------------------ *)

(* [f bufs] with [m] decode buffers of [sr] codes each. A domain keeps
   the last four it lent and lends them again, so a run of passes over
   sealed segments allocates its buffers once; a nested pass never gets
   the buffers its caller holds. *)
let spare_bufs = Stdlib.Domain.DLS.new_key (fun () -> ref [])

let with_bufs m sr f =
  let spare = Stdlib.Domain.DLS.get spare_bufs in
  let fit = List.filter (fun b -> Array.length b = sr) !spare in
  let bufs =
    Array.init m (fun i -> match List.nth_opt fit i with Some b -> b | None -> Array.make sr 0)
  in
  spare := List.filteri (fun i _ -> i >= m) fit;
  let r = f bufs in
  spare := List.filteri (fun i _ -> i < 4) (Array.to_list bufs @ !spare);
  r

(* Iterate the row blocks of [cols] in row order: every sealed segment
   (a store's columns all seal at the same fixed boundaries, so block
   [s] lines up across columns), then the open tail. [f bufs len base]
   reads [bufs.(j).(0 .. len-1)] and must not retain [bufs]: sealed
   blocks reuse one decode buffer per column. *)
let iter_blocks (cols : column array) f =
  let m = Array.length cols in
  if m > 0 then begin
    let nseg = Array.length cols.(0).segs in
    let sr = if nseg > 0 then Ooc.length cols.(0).segs.(0) else 0 in
    if nseg > 0 then
      with_bufs m sr (fun bufs ->
          for s = 0 to nseg - 1 do
            for j = 0 to m - 1 do
              Ooc.decode_into cols.(j).segs.(s) bufs.(j)
            done;
            f bufs sr (s * sr)
          done);
    let tlen = cols.(0).tail.len in
    if tlen > 0 then f (Array.map (fun (c : column) -> c.tail.data) cols) tlen (nseg * sr)
  end

(* decoded flat copy — oracle/test accessor, not a hot path *)
let column_codes (col : column) =
  let sealed = Array.fold_left (fun acc s -> acc + Ooc.length s) 0 col.segs in
  let out = Array.make (sealed + col.tail.len) 0 in
  iter_blocks [| col |] (fun bufs len base -> Array.blit bufs.(0) 0 out base len);
  out

let column_dict (col : column) = Dict.to_array col.dict
let column_strings (col : column) = Dict.to_strings col.dict
let column_domain (col : column) = Dict.domain col.dict

(* ------------------------------------------------------------------ *)
(* store construction and the append path                            *)
(* ------------------------------------------------------------------ *)

let empty_column () =
  {
    segs = [||];
    tail = { data = [||]; len = 0; trimmed = false };
    dict = Dict.create ();
    nulls = 0;
    sealed_dict = 1;
  }

let create rel =
  {
    rel;
    seg_rows = (Ooc.config ()).segment_rows;
    columns = Array.init (Relation.arity rel) (fun _ -> empty_column ());
    n_rows = 0;
    version = 0;
    uid = fresh_uid ();
    watched = false;
    window = Clean;
    distincts = Hashtbl.create 8;
    fd_verdicts = Hashtbl.create 16;
    fd_sweeps = Hashtbl.create 8;
    join_counts = Hashtbl.create 8;
  }

let cardinality t = t.n_rows
let version t = t.version

let same_attributes t (rel : Relation.t) = rel.Relation.attrs = t.rel.Relation.attrs

(* The one append path — row inserts, loads and projections all come
   through here: push a code onto each column's
   tail, then close the row, which seals every tail together once they
   hold a full segment (all of a store's columns seal at the same row
   boundaries). *)
let push_code t (col : column) c =
  vec_push ~cap:t.seg_rows col.tail c;
  if c = 0 then col.nulls <- col.nulls + 1

let row_done t =
  t.n_rows <- t.n_rows + 1;
  if Array.length t.columns > 0 && t.columns.(0).tail.len = t.seg_rows then
    Array.iter
      (fun (col : column) ->
        let seg = Ooc.seal col.tail.data 0 t.seg_rows in
        col.segs <- Array.append col.segs [| seg |];
        (* tail deletes reclaim as they go, so the tail is in
           first-occurrence order: codes at or below a freshly sealed
           maximum all occur in the sealed region — the invariant
           sealed_dict certifies *)
        col.sealed_dict <- max col.sealed_dict (Ooc.max_code seg + 1);
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

(* The code-tuple dedup loop: walk [cols]' rows in order and, for each
   row NULL-free on every column flagged in [need], count a witness and
   call [fresh bufs i] the first time its code tuple (NULL codes
   included) is seen. Returns the seen tuples. Distinct sets and
   deduplicating projections both run it. *)
let dedup_codes cols need fresh =
  let width = Array.length cols in
  let d = { tuples = Code_tuples.create width; witnesses = 0 } in
  let key = Array.make width 0 in
  iter_blocks cols (fun bufs len _base ->
      for i = 0 to len - 1 do
        let null = ref false in
        for j = 0 to width - 1 do
          let code = bufs.(j).(i) in
          if code = 0 && need.(j) then null := true;
          key.(j) <- code
        done;
        if not !null then begin
          d.witnesses <- d.witnesses + 1;
          let n = Code_tuples.length d.tuples in
          if Code_tuples.add d.tuples key = n then fresh bufs i
        end
      done);
  d

(* the memoized NULL-free distinct tuples of two or more attributes *)
let distinct t attrs =
  match Hashtbl.find_opt t.distincts attrs with
  | Some d -> d
  | None ->
      let cols = columns t attrs in
      let d = dedup_codes cols (Array.map (fun _ -> true) cols) (fun _ _ -> ()) in
      Hashtbl.add t.distincts attrs d;
      t.watched <- true;
      d

(* The distinct NULL-free code tuples of [attrs] are the ids [lo, hi):
   a single attribute's are its dictionary's codes [1, length), each
   tuple [| c |] its own id (deletes drop dead codes as they compact),
   so it needs no row pass; several attributes' are their memoized
   table's. *)
let id_range t attrs =
  match attrs with
  | [ a ] -> (1, Dict.length (column t a).dict)
  | _ -> (0, Code_tuples.length (distinct t attrs).tuples)

let count_distinct t attrs =
  let lo, hi = id_range t attrs in
  hi - lo

let witness_count t attrs =
  match attrs with
  | [ a ] -> t.n_rows - (column t a).nulls
  | _ -> (distinct t attrs).witnesses

let unique t attrs =
  let w = witness_count t attrs in
  w > 0 && count_distinct t attrs = w

let prepare ?(probe = false) t attrs =
  (match attrs with [ _ ] -> () | _ -> ignore (distinct t attrs));
  Array.iter (fun c -> if probe then Dict.index c.dict) (columns t attrs)

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

(* [f k k' j] for each tuple of ids [lo, hi) of [s] on [a] ([k]) whose
   value tuple is one of [p]'s distinct tuples on [b], with its codes
   there ([k']) and its id [j] there ([k], [k'] are scratch buffers):
   the walk of a join count, and of its patch at refresh *)
let iter_hits s a (lo, hi) p b f =
  let cols = columns s a and cols' = columns p b in
  let k = Array.make (List.length a) 0 and k' = Array.make (List.length a) 0 in
  match (a, b) with
  | [ _ ], [ _ ] ->
      (* one attribute: an id is its code, and so is the translated one *)
      let d = cols.(0).dict and d' = cols'.(0).dict in
      for id = lo to hi - 1 do
        let j = Dict.find_in d' d id in
        if j > 0 then begin
          k.(0) <- id;
          k'.(0) <- j;
          f k k' j
        end
      done
  | _ ->
      let tuples = (distinct s a).tuples and tuples' = (distinct p b).tuples in
      for id = lo to hi - 1 do
        Code_tuples.read tuples id k;
        if translate cols cols' k k' then
          let j = Code_tuples.find tuples' k' in
          if j >= 0 then f k k' j
      done

(* [f k1] for every distinct NULL-free projection of [t1] on [a1] that
   also occurs in [t2] on [a2], with its codes in [t1]'s columns ([k1],
   a scratch buffer): walks the side [walks_left] picks *)
let iter_join fn t1 a1 t2 a2 f =
  if List.length a1 <> List.length a2 then
    invalid_arg (Printf.sprintf "Column_store.%s: width mismatch" fn);
  if walks_left t1 a1 t2 a2 then iter_hits t1 a1 (id_range t1 a1) t2 a2 (fun k1 _ _ -> f k1)
  else iter_hits t2 a2 (id_range t2 a2) t1 a1 (fun _ k1 _ -> f k1)

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

(* grow a single-attribute LHS group table to cover its column's
   dictionary *)
let gid_grow t st =
  match st.sw_by with
  | By_code g ->
      let n = Dict.length t.columns.(st.sw_lhs.(0)).dict and len = Array.length g.gid in
      if n > len then begin
        let a = Array.make (max n (2 * len)) (-1) in
        Array.blit g.gid 0 a 0 len;
        g.gid <- a
      end
  | By_tuple _ -> ()

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
  match st.sw_by with
  | By_code gids ->
      let lbuf = lbufs.(0) in
      let i = ref 0 in
      while st.sw_n_live > 0 && !i < len do
        let c = lbuf.(!i) in
        if c > 0 then begin
          let g = gids.gid.(c) in
          if g >= 0 then refine !i g
          else begin
            let g = st.sw_groups in
            st.sw_groups <- g + 1;
            gids.gid.(c) <- g;
            seed !i g
          end
        end;
        incr i
      done
  | By_tuple tuples ->
      (* any other width, the empty LHS included (one group of all rows) *)
      let w = Array.length lbufs in
      let key = Array.make w 0 in
      let i = ref 0 in
      while st.sw_n_live > 0 && !i < len do
        let null = ref false in
        for j = 0 to w - 1 do
          let c = lbufs.(j).(!i) in
          if c = 0 then null := true;
          key.(j) <- c
        done;
        (if not !null then
           let n = Code_tuples.length tuples in
           let g = Code_tuples.add tuples key in
           if g < n then refine !i g else seed !i g);
        incr i
      done

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
  let st =
    {
      sw_lhs = Array.of_list (List.map (pos_of t) lhs);
      sw_rhs = positions;
      sw_names = names;
      sw_by =
        (if Array.length lcols = 1 then By_code { gid = Array.make (Dict.length lcols.(0).dict) (-1) }
         else By_tuple (Code_tuples.create (Array.length lcols)));
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
  let nl = Array.length lcols in
  if nseg > 0 then
    with_bufs (nl + m) sr (fun bufs ->
        let lbufs = Array.sub bufs 0 nl and rbufs = Array.sub bufs nl m in
        let s = ref 0 in
        while st.sw_n_live > 0 && !s < nseg do
          Ooc.note_zone_sweep ();
          Array.iteri (fun j (lc : column) -> Ooc.decode_into lc.segs.(!s) lbufs.(j)) lcols;
          for j = 0 to st.sw_n_live - 1 do
            let k = st.sw_live.(j) in
            Ooc.decode_into rcols.(k).segs.(!s) rbufs.(k)
          done;
          sweep_block st lbufs rbufs sr;
          incr s
        done);
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
          if Ooc.resident seg then incr resident else incr spilled;
          let w = Ooc.width seg in
          Hashtbl.replace widths w (1 + Option.value ~default:0 (Hashtbl.find_opt widths w)))
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

(* per column, its dictionary's entries and its codes in row order: the
   same rows digest alike whatever the segment size or load chunking,
   since both produce the first-occurrence encoding *)
let digest t =
  let b = Buffer.create 64 in
  Array.iter
    (fun (c : column) ->
      Buffer.add_string b (Dict.digest c.dict);
      let h = ref (cardinality t) in
      iter_blocks [| c |] (fun bufs len _ ->
          let codes = bufs.(0) in
          for i = 0 to len - 1 do
            h := (!h lxor codes.(i)) * 0x100000001b3
          done);
      Buffer.add_string b (string_of_int !h))
    t.columns;
  Digest.string (Buffer.contents b)

(* ------------------------------------------------------------------ *)
(* mutations                                                           *)
(* ------------------------------------------------------------------ *)

(* Run appended rows' codes ([fresh.(pos)] per column) through a
   retained sweep: the same kernel, continuing from the state the full
   pass left. *)
let sweep_delta t st (fresh : int array array) n =
  if st.sw_n_live > 0 && n > 0 then begin
    gid_grow t st;
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

(* patch every memoized distinct set with the appended rows' codes
   ([fresh.(pos)] per column): new tuples take the next ids, which is
   all a window needs to know of them *)
let patch_distincts_append t (fresh : int array array) n =
  Hashtbl.iter
    (fun attrs d ->
      let poss = Array.of_list (List.map (pos_of t) attrs) in
      let key = Array.make (Array.length poss) 0 in
      for i = 0 to n - 1 do
        Array.iteri (fun j p -> key.(j) <- fresh.(p).(i)) poss;
        if not (Array.mem 0 key) then begin
          d.witnesses <- d.witnesses + 1;
          ignore (Code_tuples.add d.tuples key)
        end
      done)
    t.distincts

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
        segs_acc := Ooc.seal buf 0 sr :: !segs_acc;
        blen := 0
      end
    in
    let d = ref 0 in
    iter_blocks [| col |] (fun bufs len base ->
      let codes = bufs.(0) in
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
      done);
    Array.iter Ooc.release col.segs;
    let segs = Array.of_list (List.rev !segs_acc) in
    col.segs <- segs;
    col.tail.data <- Array.sub buf 0 !blen;
    col.tail.len <- !blen;
    col.dict <- Dict.select col.dict order !next;
    col.nulls <- !nulls;
    col.sealed_dict <- Array.fold_left (fun acc sg -> max acc (Ooc.max_code sg + 1)) 1 segs
  end

let reset_memos t =
  Hashtbl.reset t.distincts;
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
      t.window <-
        Open
          {
            base_uid = t.uid;
            base_rows = t.n_rows;
            dict_before = Array.map (fun (c : column) -> Dict.length c.dict) t.columns;
            tuples_before =
              Hashtbl.fold
                (fun attrs d acc -> (attrs, Code_tuples.length d.tuples) :: acc)
                t.distincts [];
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
   its code pushed onto the tail. Memoized distinct sets then take the new
   code tuples, and retained sweeps re-check their TRUE verdicts on
   the new rows alone. *)
let append t (rows : Value.t array array) =
  let k = Array.length rows in
  if k > 0 then begin
    begin_mutation t k ~rows_after:(t.n_rows + k);
    let patch = Hashtbl.length t.distincts > 0 || Hashtbl.length t.fd_sweeps > 0 in
    let fresh = if patch then Array.map (fun _ -> Array.make k 0) t.columns else [||] in
    let cols = t.columns in
    for i = 0 to k - 1 do
      let row = rows.(i) in
      for p = 0 to Array.length cols - 1 do
        let col = cols.(p) in
        let c = Dict.intern col.dict row.(p) in
        push_code t col c;
        if patch then fresh.(p).(i) <- c
      done;
      row_done t
    done;
    if patch then begin
      patch_distincts_append t fresh k;
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
    Hashtbl.reset t.distincts;
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
   join-count patch needs. Appends never renumber and ids come in
   insertion order, so the tuples a distinct set gained are the ids from
   its size at the window's opening on: for one attribute, its
   dictionary's new codes. *)
type refresh_summary =
  | Sum_unchanged
  | Sum_appended of { dict_before : int array; tuples_before : (string list * int) list }
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
                          Sum_appended
                            { dict_before = w.dict_before; tuples_before = w.tuples_before }
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
     the newly-added code tuples (an id range) and d_i the current
     distinct sets; a tuple crosses to the other side by [translate],
     and lands in A1 when its id there is past A1's start. Memos
     touching a store outside this set, or a side whose summary was
     invalidated, are dropped and recomputed on demand. *)
  let registry = Hashtbl.create 16 in
  List.iter
    (function
      | Some (s, old_uid, _, summary, _) -> Hashtbl.replace registry old_uid (s, summary)
      | None -> ())
    items;
  (* the id range of the tuples a window added; an unchanged store's is
     empty, and starts past every id *)
  let added_of s summary attrs =
    match (summary, attrs) with
    | Sum_unchanged, _ -> Some (max_int, max_int)
    | Sum_invalidated, _ -> None
    | Sum_appended { dict_before; _ }, [ a ] ->
        Some (dict_before.(pos_of s a), snd (id_range s attrs))
    | Sum_appended { tuples_before; _ }, _ ->
        Option.map (fun lo -> (lo, snd (id_range s attrs))) (List.assoc_opt attrs tuples_before)
  in
  let hits s a range p b keep =
    let n = ref 0 in
    iter_hits s a range p b (fun _ _ j -> if keep j then incr n);
    !n
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
                      let n =
                        n
                        + hits s a1 added1 p a2 (fun _ -> true)
                        + hits p a2 added2 s a1 (fun j -> j < fst added1)
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
      push_code b.store cols.(p) codes.(p)
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
      push_code b.store col (if c < 0 then Dict.commit col.dict else c);
      b.row.(p) <- 0
    done;
    row_done b.store

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
      iter_blocks cols (fun bufs len _base ->
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
      ignore (dedup_codes cols need emit));
  Builder.finish b
