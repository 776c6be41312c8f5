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
   constructors their own planes cannot change identity. *)

type plane = Empty | Ints | Strs | Values

(* Flat open-addressing intern table: interleaved [key; code] slot
   pairs. On [Ints] the key is the int itself and [min_int] marks an
   empty slot ([Int min_int] keeps its code aside); on [Strs] and
   [Values] it is the hash ([lor 1], so 0 marks an empty slot) and the
   key's identity is read from the plane at the slot's code. *)
type tab = {
  mutable cap : int;  (* power of two *)
  mutable size : int;
  mutable slots : int array;
  mutable min_code : int;  (* Ints: the code of [Int min_int], or -1 *)
  mutable st_slot : int;  (* the staged miss's slot; -1 is [min_int] *)
  mutable st_word : int;  (* its key word *)
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
  }

let length d = d.len
let plane_of = function Value.Int _ -> Ints | Value.String _ -> Strs | _ -> Values
let str_len d c = d.offs.(c + 1) - d.offs.(c)

let get d c =
  if c = 0 then Value.Null
  else
    match d.plane with
    | Ints -> Value.Int d.ints.(c)
    | Strs -> Value.String (Bytes.sub_string d.arena d.offs.(c) (str_len d c))
    | Values -> d.vals.(c)
    | Empty -> invalid_arg "Dict.get"

let to_array d = Array.init d.len (get d)

let to_strings d =
  Array.init d.len (fun c ->
      if c = 0 then ""
      else
        match d.plane with
        | Ints -> string_of_int d.ints.(c)
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
            mix d.ints.(c)
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

(* Write the entry at code [len] without taking the code: a staged
   miss, or the first half of a push. On [Strs] the bytes go past the
   arena's end and [offs.(len+1)] closes them, so a staged miss that is
   never committed leaves nothing to undo. *)
let write_int d n =
  ensure d;
  d.ints.(d.len) <- n

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

(* the smallest power of two that holds [n] keys at most half full *)
let cap_for n =
  let c = ref 16 in
  while !c < 2 * (n + 1) do
    c := 2 * !c
  done;
  !c

let empty_word plane = if plane = Ints then min_int else 0

let tab_make plane n =
  let cap = cap_for n in
  {
    cap;
    size = 0;
    slots = Array.make (2 * cap) (empty_word plane);
    min_code = -1;
    st_slot = 0;
    st_word = 0;
  }

(* Placement only, never identity. An int's low bits pass through so
   runs of sequential keys occupy sequential slots; high bits are
   folded in so huge keys still spread. A stored hash is [h lor 1], so
   it is placed by [h lsr 1]: placing by the low bit would leave every
   even slot without a home. *)
let int_hash n = (n lxor (n lsr 32)) land max_int
let place plane w = if plane = Ints then int_hash w else w lsr 1

(* The one string hash: FNV-1a over a byte range, so the loader hashes
   a CSV cell in place, and an arena entry hashes as its bytes do. The
   final fold brings high bits down to the ones [place] uses. *)
let bytes_hash buf off len =
  let h = ref 0x2bf29ce484222325 in
  for i = off to off + len - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get buf i)) * 0x100000001b3
  done;
  !h lxor (!h lsr 29) lor 1

let value_hash v = Hashtbl.hash v lor 1

(* the key word of entry [c] *)
let entry_word d c =
  match d.plane with
  | Ints -> d.ints.(c)
  | Strs -> bytes_hash d.arena d.offs.(c) (str_len d c)
  | _ -> value_hash d.vals.(c)

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

(* Probe loops. Indices are masked to the (power-of-two) capacity, so
   the unchecked reads cannot go out of bounds; each stops at the key's
   slot or the first empty one. *)
let int_slot t n =
  let mask = t.cap - 1 in
  let i = ref (int_hash n land mask) in
  while
    let k = Array.unsafe_get t.slots (2 * !i) in
    k <> min_int && k <> n
  do
    i := (!i + 1) land mask
  done;
  !i

let str_slot d t h buf off len =
  let mask = t.cap - 1 in
  let i = ref ((h lsr 1) land mask) in
  while
    let h' = Array.unsafe_get t.slots (2 * !i) in
    h' <> 0
    && not (h' = h && spells d (Array.unsafe_get t.slots ((2 * !i) + 1)) buf off len)
  do
    i := (!i + 1) land mask
  done;
  !i

let value_slot d t h v =
  let mask = t.cap - 1 in
  let i = ref ((h lsr 1) land mask) in
  while
    let h' = Array.unsafe_get t.slots (2 * !i) in
    h' <> 0
    && not (h' = h && Stdlib.compare d.vals.(Array.unsafe_get t.slots ((2 * !i) + 1)) v = 0)
  do
    i := (!i + 1) land mask
  done;
  !i

(* put a key word known to be absent at the first empty slot from its
   home: no key is read, only moved *)
let place_new plane t w c =
  let empty = empty_word plane and mask = t.cap - 1 in
  let i = ref (place plane w land mask) in
  while t.slots.(2 * !i) <> empty do
    i := (!i + 1) land mask
  done;
  t.slots.(2 * !i) <- w;
  t.slots.((2 * !i) + 1) <- c

let grow plane t =
  let old = t.slots and old_cap = t.cap in
  let empty = empty_word plane in
  t.cap <- 2 * old_cap;
  t.slots <- Array.make (2 * t.cap) empty;
  for j = 0 to old_cap - 1 do
    let w = old.(2 * j) in
    if w <> empty then place_new plane t w old.((2 * j) + 1)
  done

(* the table over [d], built from its plane on first need *)
let table d =
  match d.tab with
  | Some t -> t
  | None ->
      let t = tab_make d.plane d.len in
      for c = 1 to d.len - 1 do
        let w = entry_word d c in
        if d.plane = Ints && w = min_int then t.min_code <- c
        else begin
          place_new d.plane t w c;
          t.size <- t.size + 1
        end
      done;
      d.tab <- Some t;
      t

let index d = ignore (table d)

(* Set the plane of a dictionary holding only NULL, or widen one of
   another plane to [Values] once, in O(dictionary); a table is rebuilt
   over the new plane. After [admit d p] the plane is [p] or [Values]. *)
let admit d p =
  if d.plane <> p && d.plane <> Values then begin
    let had_tab = Option.is_some d.tab in
    if d.len = 1 then begin
      d.plane <- p;
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
  let i = value_slot d t (value_hash v) v in
  if t.slots.(2 * i) <> 0 then t.slots.((2 * i) + 1) else -1

let find_int d n =
  match d.plane with
  | Ints ->
      let t = table d in
      if n = min_int then t.min_code
      else
        let i = int_slot t n in
        if t.slots.(2 * i) <> min_int then t.slots.((2 * i) + 1) else -1
  | Values -> find_boxed d (Value.Int n)
  | Empty | Strs -> -1

let find_bytes d buf off len =
  match d.plane with
  | Strs ->
      let t = table d in
      let i = str_slot d t (bytes_hash buf off len) buf off len in
      if t.slots.(2 * i) <> 0 then t.slots.((2 * i) + 1) else -1
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
  | Ints -> find_int d src.ints.(c)
  | Strs -> find_bytes d src.arena src.offs.(c) (str_len src c)
  | _ -> find_value d (get src c)

let included d1 d2 =
  let rec go c = c = d1.len || (find_in d2 d1 c > 0 && go (c + 1)) in
  go 1

(* ------------------------------------------------------------------ *)
(* interning                                                           *)
(* ------------------------------------------------------------------ *)

(* Interning takes one probe. [reserve] first grows a table that one
   more insert would take past half full, so the empty slot a probe
   stops at stays valid until one insert: a miss is *staged* there (its
   entry written past the plane's end, its slot still empty, so no
   probe sees it) and [commit] takes it as the next code. *)
let reserve d =
  let t = table d in
  if (t.size + 1) * 2 > t.cap then grow d.plane t

let stage t i w =
  t.st_slot <- i;
  t.st_word <- w;
  -1

let rec probe_int d n =
  admit d Ints;
  if d.plane <> Ints then probe_value d (Value.Int n)
  else
    let t = table d in
    if n = min_int then
      if t.min_code >= 0 then t.min_code
      else begin
        write_int d n;
        stage t (-1) n
      end
    else
      let i = int_slot t n in
      if t.slots.(2 * i) <> min_int then t.slots.((2 * i) + 1)
      else begin
        write_int d n;
        stage t i n
      end

and probe_bytes d buf off len =
  admit d Strs;
  if d.plane <> Strs then probe_value d (Value.String (Bytes.sub_string buf off len))
  else
    let t = table d and h = bytes_hash buf off len in
    let i = str_slot d t h buf off len in
    if t.slots.(2 * i) <> 0 then t.slots.((2 * i) + 1)
    else begin
      write_bytes d buf off len;
      stage t i h
    end

and probe_value d v =
  match v with
  | Value.Null -> 0
  | _ -> (
      admit d (plane_of v);
      match (d.plane, v) with
      | Ints, Value.Int n -> probe_int d n
      | Strs, Value.String s -> probe_bytes d (Bytes.unsafe_of_string s) 0 (String.length s)
      | _ ->
          let t = table d and h = value_hash v in
          let i = value_slot d t h v in
          if t.slots.(2 * i) <> 0 then t.slots.((2 * i) + 1)
          else begin
            write_value d v;
            stage t i h
          end)

(* take the entry written at code [len] as that code *)
let take d =
  d.len <- d.len + 1;
  d.len - 1

let commit d =
  let t = table d in
  if t.st_slot < 0 then t.min_code <- d.len
  else begin
    t.slots.(2 * t.st_slot) <- t.st_word;
    t.slots.((2 * t.st_slot) + 1) <- d.len;
    t.size <- t.size + 1
  end;
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
  | _, None when d.scanned < d.len ->
      let c, read = scan d v in
      d.scanned <- d.scanned + read;
      if c > 0 then c else push d v
  | _ ->
      reserve d;
      let c = probe_value d v in
      if c >= 0 then c else commit d

let intern_from d src c =
  reserve d;
  let c' =
    match src.plane with
    | Ints -> probe_int d src.ints.(c)
    | Strs -> probe_bytes d src.arena src.offs.(c) (str_len src c)
    | _ -> probe_value d (get src c)
  in
  if c' >= 0 then c' else commit d

let push_from d src c =
  d.tab <- None;
  match (src.plane, d.plane) with
  | Ints, (Ints | Empty) ->
      admit d Ints;
      write_int d src.ints.(c);
      take d
  | Strs, (Strs | Empty) ->
      admit d Strs;
      write_bytes d src.arena src.offs.(c) (str_len src c);
      take d
  | _ -> push d (get src c)

(* ------------------------------------------------------------------ *)
(* deletes                                                             *)
(* ------------------------------------------------------------------ *)

(* the slot holding code [c] (present), found by its key word; -1 for
   [Ints]' [min_int] *)
let slot_of_code d t c =
  let w = entry_word d c in
  match d.plane with
  | Ints -> if w = min_int then -1 else int_slot t w
  | _ ->
      let mask = t.cap - 1 in
      let i = ref ((w lsr 1) land mask) in
      while t.slots.((2 * !i) + 1) <> c || t.slots.(2 * !i) = 0 do
        i := (!i + 1) land mask
      done;
      !i

(* Empty slot [i] and close the gap: each later entry of the probe run
   moves back into the hole unless its home lies cyclically in
   (hole, j], so every remaining key stays reachable from its home. *)
let unbind d t c =
  match slot_of_code d t c with
  | -1 -> t.min_code <- -1
  | i ->
      let empty = empty_word d.plane and mask = t.cap - 1 in
      let s = t.slots in
      s.(2 * i) <- empty;
      let hole = ref i and j = ref ((i + 1) land mask) in
      while s.(2 * !j) <> empty do
        let h = place d.plane s.(2 * !j) land mask in
        let stays = if !hole <= !j then !hole < h && h <= !j else !hole < h || h <= !j in
        if not stays then begin
          s.(2 * !hole) <- s.(2 * !j);
          s.((2 * !hole) + 1) <- s.((2 * !j) + 1);
          s.(2 * !j) <- empty;
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
  let n = Array.length remap in
  (match d.tab with
  | None -> ()
  | Some t ->
      Array.iteri (fun j c -> if c < 0 then unbind d t (lo + j)) remap;
      let slots =
        Array.mapi (fun j c -> if c >= 0 && c <> lo + j then slot_of_code d t (lo + j) else -2) remap
      in
      Array.iteri
        (fun j i -> if i = -1 then t.min_code <- remap.(j) else if i >= 0 then t.slots.((2 * i) + 1) <- remap.(j))
        slots);
  (match d.plane with
  | Ints ->
      let moved = Array.sub d.ints lo n in
      Array.iteri (fun j c -> if c >= 0 then d.ints.(c) <- moved.(j)) remap
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
    match d.plane with
    | Ints -> e.ints <- Array.init n (fun i -> if i = 0 then 0 else d.ints.(order.(i)))
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
