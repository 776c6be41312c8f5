(* One column's dictionary: code -> value, in first-occurrence order,
   code 0 being NULL, with the value -> code intern table over it.

   Values live in one of three planes, picked by the constructor of the
   first non-NULL value: [Ints] (a flat int array), [Strs] (one byte
   arena and an offset array) or [Values] (boxed). The first value of
   another constructor widens the dictionary to [Values] once. Only
   this module reads a plane; everything else sees codes, or builds a
   [Value.t] at a boundary ([get]).

   Interning keeps the key semantics of a polymorphic hashtable —
   [Stdlib.compare _ _ = 0] is identity — so [Int 1] and [Float 1.0]
   (which [Value.compare] equates) take two codes, and every NaN one.
   Cross-constructor values never compare equal, so giving the two bulk
   constructors their own planes cannot change identity.

   An [Ints] plane of consecutive keys (a surrogate id column) is
   [dense]: entry [c] is [base + c - 1], so it keeps no array and no
   table, and a lookup is arithmetic. The first write that breaks the
   run builds the array from [base] once ([materialize]); reads never
   do. *)

type plane = Empty | Ints | Strs | Values

(* Flat open-addressing intern table, one word a slot: 0 is empty,
   otherwise [frag lsl 32 lor code], [frag] being 30 bits of the key's
   hash. A key's identity is read from the plane at the slot's code;
   placement (home slot [frag land mask]) reads only the slot, so a
   rehash never touches the plane. The table grows before it would pass
   three-quarters full, and has at most 2^30 slots (checked where slots
   are made): so [frag] covers every mask, and a code, below the slot
   count, fits in the low 32 bits. *)
type tab = {
  mutable size : int;
  mutable slots : int array;  (* power-of-two length *)
  mutable st_slot : int;  (* the staged miss's slot *)
  mutable st_frag : int;  (* its hash fragment *)
}

type t = {
  mutable plane : plane;
  mutable len : int;  (* codes in use, NULL's 0 included *)
  mutable ints : int array;  (* Ints: code -> value *)
  mutable arena : Bytes.t;  (* Strs: the entries' bytes, back to back *)
  mutable offs : int array;  (* Strs: entry c spans [offs.(c), offs.(c+1)) *)
  mutable vals : Value.t array;  (* Values: code -> value *)
  mutable tab : tab option;
      (* built on first need and kept exact; a column with none reads
         its plane instead (see [intern]) *)
  mutable scanned : int;  (* entries [intern] has read with no table *)
  mutable asc : bool;
      (* the plane is [Ints] or empty, each entry above the one before:
         a key above the last is new, one outside the range absent *)
  mutable dense : bool;  (* Ints with no array and no table: entry c is base + c - 1 *)
  mutable base : int;
}

let create () =
  {
    plane = Empty;
    len = 1;
    ints = [||];
    arena = Bytes.empty;
    offs = [||];
    vals = [||];
    tab = None;
    scanned = 0;
    asc = true;
    dense = false;
    base = 0;
  }

let length d = d.len
let plane_of = function Value.Int _ -> Ints | Value.String _ -> Strs | _ -> Values
let str_len d c = d.offs.(c + 1) - d.offs.(c)
let int_at d c = if d.dense then d.base + c - 1 else d.ints.(c)

let get d c =
  if c = 0 then Value.Null
  else
    match d.plane with
    | Ints -> Value.Int (int_at d c)
    | Strs -> Value.String (Bytes.sub_string d.arena d.offs.(c) (str_len d c))
    | Values -> d.vals.(c)
    | Empty -> invalid_arg "Dict.get"

let to_array d = Array.init d.len (get d)

let to_strings d =
  Array.init d.len (fun c ->
      if c = 0 then ""
      else
        match d.plane with
        | Ints -> string_of_int (int_at d c)
        | Strs -> Bytes.sub_string d.arena d.offs.(c) (str_len d c)
        | _ -> Value.to_string (get d c))

(* entries 1 .. len-1 read off the plane, no value built: ints and
   string lengths mixed into one word, the string bytes (back to back
   in the arena) digested in place *)
let digest d =
  let h = ref d.len in
  let mix x = h := (!h lxor x) * 0x100000001b3 in
  let body =
    if d.len = 1 then ""
    else
      match d.plane with
      | Empty -> ""
      | Ints ->
          for c = 1 to d.len - 1 do
            mix (int_at d c)
          done;
          "i"
      | Strs ->
          for c = 1 to d.len - 1 do
            mix (str_len d c)
          done;
          "s" ^ Digest.subbytes d.arena d.offs.(1) (d.offs.(d.len) - d.offs.(1))
      | Values ->
          "v"
          ^ Marshal.to_string (Array.sub d.vals 1 (d.len - 1)) [ Marshal.No_sharing ]
  in
  Digest.string (body ^ string_of_int !h)

let domain d =
  if d.len = 1 then Domain.Unknown
  else
    match d.plane with
    | Ints -> Domain.Int
    | Strs -> Domain.String
    | _ ->
        let acc = ref Domain.Unknown in
        for c = 1 to d.len - 1 do
          acc := Domain.lub !acc (Domain.of_value d.vals.(c))
        done;
        !acc

let arr_words a = if Array.length a = 0 then 0 else Array.length a + 1
let bytes_words b = if Bytes.length b = 0 then 0 else (Bytes.length b / 8) + 2

let heap_words d =
  (match d.plane with
  | Empty -> 0
  | Ints -> arr_words d.ints
  | Strs -> bytes_words d.arena + arr_words d.offs
  | Values -> if Array.length d.vals = 0 then 0 else Obj.reachable_words (Obj.repr d.vals))
  + match d.tab with Some t -> arr_words t.slots | None -> 0

(* ------------------------------------------------------------------ *)
(* the planes                                                          *)
(* ------------------------------------------------------------------ *)

let grown a n fill =
  let b = Array.make (max n (max 16 (2 * Array.length a))) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* room in the plane for the entry at code [len] *)
let ensure d =
  let n = d.len + 1 in
  match d.plane with
  | Empty -> ()
  | Ints -> if Array.length d.ints < n then d.ints <- grown d.ints n 0
  | Strs -> if Array.length d.offs < n + 1 then d.offs <- grown d.offs (n + 1) 0
  | Values -> if Array.length d.vals < n then d.vals <- grown d.vals n Value.Null

(* [n] would be a dense plane's next entry: its first, or one above its
   last, never wrapping past [max_int] *)
let extends d n =
  d.len = 1
  ||
  let last = d.base + d.len - 2 in
  n > last && n - 1 = last

(* write a dense plane's entries out, once, with room for the entry at
   code [len]: from here it is an ascending [Ints] plane *)
let materialize d =
  if d.dense then begin
    d.ints <- Array.init (max 16 (d.len + 1)) (fun c -> if c = 0 || c >= d.len then 0 else d.base + c - 1);
    d.dense <- false
  end

(* Write the entry at code [len] without taking the code: a staged
   miss, or the first half of a push. On [Strs] the bytes go past the
   arena's end and [offs.(len+1)] closes them, so a staged miss that is
   never committed leaves nothing to undo. A key that extends a dense
   plane is implied by the code, so nothing is written. *)
let write_int d n =
  if d.dense && extends d n then (if d.len = 1 then d.base <- n)
  else begin
    materialize d;
    ensure d;
    d.ints.(d.len) <- n
  end

let write_bytes d buf off len =
  ensure d;
  let o = d.offs.(d.len) in
  if o + len > Bytes.length d.arena then begin
    let a = Bytes.create (max (o + len) (max 64 (2 * Bytes.length d.arena))) in
    Bytes.blit d.arena 0 a 0 o;
    d.arena <- a
  end;
  Bytes.blit buf off d.arena o len;
  d.offs.(d.len + 1) <- o + len

let write_value d v =
  ensure d;
  d.vals.(d.len) <- v

(* [d]'s plane must admit [v]: [write] dispatches on it *)
let write d v =
  match (d.plane, v) with
  | Ints, Value.Int n -> write_int d n
  | Strs, Value.String s -> write_bytes d (Bytes.unsafe_of_string s) 0 (String.length s)
  | _ -> write_value d v

(* ------------------------------------------------------------------ *)
(* the intern table                                                    *)
(* ------------------------------------------------------------------ *)

let max_slots = 1 lsl 30
let frag_mask = max_slots - 1
let code_mask = (1 lsl 32) - 1

let word frag c = (frag lsl 32) lor c

let code_of w = w land code_mask
let frag_of w = w lsr 32

(* the smallest power of two that holds [n + 1] keys at most
   three-quarters full *)
let cap_for n =
  let c = ref 16 in
  while 4 * (n + 1) > 3 * !c do
    c := 2 * !c
  done;
  !c

let empty_slots n =
  if n > max_slots then invalid_arg "Dict: an intern table past 2^30 slots";
  Array.make n 0

(* The fragments. An int's low bits pass through so runs of sequential
   keys occupy sequential slots; high bits are folded in so huge keys
   still spread. Strings hash by FNV-1a over a byte range, so the loader
   hashes a CSV cell in place and an arena entry hashes as its bytes do;
   the final fold brings high bits down. *)
let int_frag n = (n lxor (n lsr 32)) land frag_mask

let bytes_frag buf off len =
  let h = ref 0x2bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
  done;
  (!h lxor (!h lsr 29)) land frag_mask

let value_frag v = Hashtbl.hash v land frag_mask

let entry_frag d c =
  match d.plane with
  | Ints -> int_frag (int_at d c)
  | Strs -> bytes_frag d.arena d.offs.(c) (str_len d c)
  | _ -> value_frag d.vals.(c)

(* does entry [c] spell the bytes [buf.[off] .. buf.[off+len-1]]? *)
let spells d c buf off len =
  let o = d.offs.(c) in
  d.offs.(c + 1) - o = len
  &&
  let i = ref 0 in
  while !i < len && Bytes.unsafe_get d.arena (o + !i) = Bytes.unsafe_get buf (off + !i) do
    incr i
  done;
  !i = len

(* Probe loops, one per plane: from the home of fragment [f], stop at
   the slot of the key (its fragment matches and the plane at its code
   holds the key) or at the first empty one. Indices are masked to the
   power-of-two length, so the unchecked slot reads stay in bounds. *)
let int_slot d t f n =
  let mask = Array.length t.slots - 1 in
  let i = ref (f land mask) in
  while
    let w = Array.unsafe_get t.slots !i in
    w <> 0 && not (frag_of w = f && d.ints.(code_of w) = n)
  do
    i := (!i + 1) land mask
  done;
  !i

let str_slot d t f buf off len =
  let mask = Array.length t.slots - 1 in
  let i = ref (f land mask) in
  while
    let w = Array.unsafe_get t.slots !i in
    w <> 0 && not (frag_of w = f && spells d (code_of w) buf off len)
  do
    i := (!i + 1) land mask
  done;
  !i

let value_slot d t f v =
  let mask = Array.length t.slots - 1 in
  let i = ref (f land mask) in
  while
    let w = Array.unsafe_get t.slots !i in
    w <> 0 && not (frag_of w = f && Stdlib.compare d.vals.(code_of w) v = 0)
  do
    i := (!i + 1) land mask
  done;
  !i

(* the code at slot [i], or -1 for an empty one *)
let hit t i =
  let w = t.slots.(i) in
  if w = 0 then -1 else code_of w

(* put a slot word whose key is known to be absent at the first empty
   slot from its home: no key is read, only moved *)
let place_new t w =
  let mask = Array.length t.slots - 1 in
  let i = ref (frag_of w land mask) in
  while t.slots.(!i) <> 0 do
    i := (!i + 1) land mask
  done;
  t.slots.(!i) <- w

let grow t =
  let old = t.slots in
  t.slots <- empty_slots (2 * Array.length old);
  Array.iter (fun w -> if w <> 0 then place_new t w) old

(* the table over [d], built from its plane on first need *)
let table d =
  match d.tab with
  | Some t -> t
  | None ->
      materialize d;
      let t = { size = d.len - 1; slots = empty_slots (cap_for d.len); st_slot = 0; st_frag = 0 } in
      for c = 1 to d.len - 1 do
        place_new t (word (entry_frag d c) c)
      done;
      d.tab <- Some t;
      t

(* a dense plane's lookups only read, with no table *)
let index d = if not d.dense then ignore (table d)

(* Set the plane of a dictionary holding only NULL, or widen one of
   another plane to [Values] once, in O(dictionary); a table is rebuilt
   over the new plane. After [admit d p] the plane is [p] or [Values]. *)
let admit d p =
  if d.plane <> p && d.plane <> Values then begin
    let had_tab = Option.is_some d.tab in
    if d.len = 1 then begin
      d.plane <- p;
      d.asc <- p = Ints;
      d.dense <- p = Ints;
      d.ints <- [||];
      d.arena <- Bytes.empty;
      d.offs <- [||];
      d.vals <- [||]
    end
    else begin
      let vals = Array.make (max 16 (d.len + 1)) Value.Null in
      for c = 1 to d.len - 1 do
        vals.(c) <- get d c
      done;
      d.plane <- Values;
      d.asc <- false;
      d.dense <- false;
      d.vals <- vals;
      d.ints <- [||];
      d.arena <- Bytes.empty;
      d.offs <- [||]
    end;
    d.tab <- None;
    if had_tab then index d
  end

(* ------------------------------------------------------------------ *)
(* lookups                                                             *)
(* ------------------------------------------------------------------ *)

(* on [Values] *)
let find_boxed d v =
  let t = table d in
  hit t (value_slot d t (value_frag v) v)

(* [n] is above every entry of an ascending plane *)
let above d n = d.asc && (d.len = 1 || n > int_at d (d.len - 1))

(* [n] lies outside an ascending plane's range, so is absent *)
let outside d n = above d n || (d.asc && n < int_at d 1)

let find_int d n =
  match d.plane with
  | Ints -> (
      match d.tab with
      | None when outside d n -> -1
      | None when d.dense -> n - d.base + 1
      | _ ->
          (* an in-range key of a sequential run sits at its home slot;
             past it, the range answers a miss that would walk the run *)
          let t = table d and f = int_frag n in
          let w = t.slots.(f land (Array.length t.slots - 1)) in
          if w <> 0 && frag_of w = f && d.ints.(code_of w) = n then code_of w
          else if outside d n then -1
          else hit t (int_slot d t f n))
  | Values -> find_boxed d (Value.Int n)
  | Empty | Strs -> -1

let find_bytes d buf off len =
  match d.plane with
  | Strs ->
      let t = table d in
      hit t (str_slot d t (bytes_frag buf off len) buf off len)
  | Values -> find_boxed d (Value.String (Bytes.sub_string buf off len))
  | Empty | Ints -> -1

let find_value d v =
  match (v, d.plane) with
  | Value.Null, _ -> 0
  | Value.Int n, Ints -> find_int d n
  | Value.String s, Strs -> find_bytes d (Bytes.unsafe_of_string s) 0 (String.length s)
  | _, Values -> find_boxed d v
  | _ -> -1

let find_in d src c =
  match src.plane with
  | Ints -> find_int d (int_at src c)
  | Strs -> find_bytes d src.arena src.offs.(c) (str_len src c)
  | _ -> find_value d (get src c)

let included d1 d2 =
  let rec go c = c = d1.len || (find_in d2 d1 c > 0 && go (c + 1)) in
  go 1

(* ------------------------------------------------------------------ *)
(* interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Interning takes one probe. [reserve] first grows a table that one
   more insert would take past three-quarters full, so the empty slot a
   probe stops at stays valid until one insert: a miss is *staged*
   there (its entry written past the plane's end, its slot still empty,
   so no probe sees it) and [commit] takes it as the next code. An
   ascending plane with no table stages a key above its last entry with
   no slot; the first other key builds the table, which [table] makes
   with room for one insert. *)
let reserve d =
  if not (d.asc && d.tab = None) then
    let t = table d in
    if 4 * (t.size + 1) > 3 * Array.length t.slots then grow t

let stage t i f =
  t.st_slot <- i;
  t.st_frag <- f;
  -1

let rec probe_int d n =
  admit d Ints;
  if d.plane <> Ints then probe_value d (Value.Int n)
  else if d.tab = None && above d n then begin
    write_int d n;
    -1
  end
  else if d.dense && n >= d.base then n - d.base + 1
  else
    let t = table d and f = int_frag n in
    let i = int_slot d t f n in
    match hit t i with
    | -1 ->
        write_int d n;
        stage t i f
    | c -> c

and probe_bytes d buf off len =
  admit d Strs;
  if d.plane <> Strs then probe_value d (Value.String (Bytes.sub_string buf off len))
  else
    let t = table d and f = bytes_frag buf off len in
    let i = str_slot d t f buf off len in
    match hit t i with
    | -1 ->
        write_bytes d buf off len;
        stage t i f
    | c -> c

and probe_value d v =
  match v with
  | Value.Null -> 0
  | _ -> (
      admit d (plane_of v);
      match (d.plane, v) with
      | Ints, Value.Int n -> probe_int d n
      | Strs, Value.String s -> probe_bytes d (Bytes.unsafe_of_string s) 0 (String.length s)
      | _ -> (
          let t = table d and f = value_frag v in
          let i = value_slot d t f v in
          match hit t i with
          | -1 ->
              write_value d v;
              stage t i f
          | c -> c))

(* take the entry written at code [len] as that code *)
let take d =
  if d.asc && d.len > 1 && not d.dense then d.asc <- d.ints.(d.len) > d.ints.(d.len - 1);
  d.len <- d.len + 1;
  d.len - 1

(* with no table, the miss was staged above an ascending plane *)
let commit d =
  (match d.tab with
  | Some t ->
      t.slots.(t.st_slot) <- word t.st_frag d.len;
      t.size <- t.size + 1
  | None -> ());
  take d

(* the code of [v] in [d], or -1, by reading the plane; also the
   entries read *)
let scan d v =
  let walk same =
    let c = ref 1 in
    while !c < d.len && not (same !c) do
      incr c
    done;
    ((if !c < d.len then !c else -1), !c)
  in
  match (d.plane, v) with
  | Ints, Value.Int n when d.dense -> (find_int d n, 0)  (* arithmetic: no entry read *)
  | Ints, Value.Int n -> walk (fun c -> d.ints.(c) = n)
  | Strs, Value.String s ->
      let b = Bytes.unsafe_of_string s in
      walk (fun c -> spells d c b 0 (String.length s))
  | Values, _ -> walk (fun c -> Stdlib.compare d.vals.(c) v = 0)
  | _ -> (-1, 0)  (* another constructor: no entry can match *)

let push d v =
  admit d (plane_of v);
  write d v;
  take d

(* A dictionary with no table (one fresh from a load) reads its plane
   instead, until its lookups have read as many entries as it holds,
   and only then builds the table: a few appended rows never pay for an
   index over the whole dictionary, and many pay at most twice the
   build. *)
let intern d v =
  match (v, d.tab) with
  | Value.Null, _ -> 0
  | Value.Int n, None when above d n -> push d v
  | _, None when d.scanned < d.len ->
      let c, read = scan d v in
      d.scanned <- d.scanned + read;
      if c > 0 then c else push d v
  | _ ->
      reserve d;
      let c = probe_value d v in
      if c >= 0 then c else commit d

let push_from d src c =
  d.tab <- None;
  match (src.plane, d.plane) with
  | Ints, (Ints | Empty) ->
      admit d Ints;
      write_int d (int_at src c);
      take d
  | Strs, (Strs | Empty) ->
      admit d Strs;
      write_bytes d src.arena src.offs.(c) (str_len src c);
      take d
  | _ -> push d (get src c)

(* ------------------------------------------------------------------ *)
(* deletes                                                             *)
(* ------------------------------------------------------------------ *)

(* entries [c .. hi-1] of [a] (c >= 2), each above the one before *)
let rec ascending a c hi = c >= hi || (a.(c) > a.(c - 1) && ascending a (c + 1) hi)

(* the slot holding code [c] (present), found by its slot word *)
let slot_of_code d t c =
  let w = word (entry_frag d c) c and mask = Array.length t.slots - 1 in
  let i = ref (frag_of w land mask) in
  while t.slots.(!i) <> w do
    i := (!i + 1) land mask
  done;
  !i

(* Empty slot [i] and close the gap: each later entry of the probe run
   moves back into the hole unless its home lies cyclically in
   (hole, j], so every remaining key stays reachable from its home. *)
let unbind t i =
  let s = t.slots and mask = Array.length t.slots - 1 in
  s.(i) <- 0;
  let hole = ref i and j = ref ((i + 1) land mask) in
  while s.(!j) <> 0 do
    let h = frag_of s.(!j) land mask in
    let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
    if not stays then begin
      s.(!hole) <- s.(!j);
      s.(!j) <- 0;
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.size <- t.size - 1

(* Entry [lo + j] becomes entry [remap.(j)] (within [lo, next)), or is
   dropped when that is negative. A table stays exact: the dropped
   entries leave it first, then every moved entry's slot is found while
   the plane still holds it, and only then rebound. *)
let reclaim d ~lo remap ~next =
  materialize d;
  let n = Array.length remap in
  (match d.tab with
  | None -> ()
  | Some t ->
      Array.iteri (fun j c -> if c < 0 then unbind t (slot_of_code d t (lo + j))) remap;
      let slots =
        Array.mapi (fun j c -> if c >= 0 && c <> lo + j then slot_of_code d t (lo + j) else -1) remap
      in
      Array.iteri (fun j i -> if i >= 0 then t.slots.(i) <- word (frag_of t.slots.(i)) remap.(j)) slots);
  (match d.plane with
  | Ints ->
      let moved = Array.sub d.ints lo n in
      Array.iteri (fun j c -> if c >= 0 then d.ints.(c) <- moved.(j)) remap;
      d.asc <- d.asc && ascending d.ints (max 2 lo) next
  | Values ->
      let moved = Array.sub d.vals lo n in
      Array.iteri (fun j c -> if c >= 0 then d.vals.(c) <- moved.(j)) remap;
      Array.fill d.vals next (d.len - next) Value.Null
  | Strs ->
      let base = d.offs.(lo) in
      let old = Bytes.sub d.arena base (d.offs.(d.len) - base) in
      let old_offs = Array.sub d.offs lo (n + 1) in
      let inv = Array.make (next - lo) 0 in
      Array.iteri (fun j c -> if c >= 0 then inv.(c - lo) <- j) remap;
      let pos = ref base in
      for r = 0 to next - lo - 1 do
        let j = inv.(r) in
        let l = old_offs.(j + 1) - old_offs.(j) in
        Bytes.blit old (old_offs.(j) - base) d.arena !pos l;
        d.offs.(lo + r) <- !pos;
        pos := !pos + l
      done;
      d.offs.(next) <- !pos
  | Empty -> ());
  d.len <- next

let select d order n =
  let e = create () in
  if n > 1 then begin
    e.plane <- d.plane;
    e.asc <- false;
    match d.plane with
    | Ints ->
        e.ints <- Array.init n (fun i -> if i = 0 then 0 else int_at d order.(i));
        e.asc <- ascending e.ints 2 n
    | Strs ->
        let total = ref 0 in
        for i = 1 to n - 1 do
          total := !total + str_len d order.(i)
        done;
        e.arena <- Bytes.create !total;
        e.offs <- Array.make (n + 1) 0;
        for i = 1 to n - 1 do
          let c = order.(i) and o = e.offs.(i) in
          let l = str_len d c in
          Bytes.blit d.arena d.offs.(c) e.arena o l;
          e.offs.(i + 1) <- o + l
        done
    | _ -> e.vals <- Array.init n (fun i -> if i = 0 then Value.Null else d.vals.(order.(i)))
  end;
  e.len <- n;
  e

let trim d =
  d.tab <- None;
  match d.plane with
  | Empty -> ()
  | Ints -> if Array.length d.ints > d.len then d.ints <- Array.sub d.ints 0 d.len
  | Strs ->
      if Array.length d.offs > d.len + 1 then d.offs <- Array.sub d.offs 0 (d.len + 1);
      let bytes = if Array.length d.offs = 0 then 0 else d.offs.(d.len) in
      if Bytes.length d.arena > bytes then d.arena <- Bytes.sub d.arena 0 bytes
  | Values -> if Array.length d.vals > d.len then d.vals <- Array.sub d.vals 0 d.len
