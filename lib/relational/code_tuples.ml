(* A dense-id table of fixed-width code tuples: tuple [id] sits at
   [plane.(id * width .. id * width + width - 1)], and an open-addressing
   table of interleaved [hash; id] slot pairs finds it. A stored hash is
   [h lor 1], so 0 marks an empty slot; a hash hit is confirmed against
   the plane. *)

type t = {
  width : int;
  hash : int array -> int;
  mutable len : int;  (* tuples held: the next id *)
  mutable plane : int array;
  mutable mask : int;  (* slot count - 1, the count a power of two *)
  mutable slots : int array;
}

(* Multiply-xor per component, then fold the well-mixed high bits down
   to the low ones placement reads. *)
let default_hash k =
  let h = ref 0x2545f4914f6cdd1d in
  for j = 0 to Array.length k - 1 do
    h := (!h lxor Array.unsafe_get k j) * 0x3c79ac492ba7b653
  done;
  !h lxor (!h lsr 31)

(* tables start at 16 slots and double, as the plane does *)
let create ?(hash = default_hash) width =
  { width; hash; len = 0; plane = Array.make width 0; mask = 15; slots = Array.make 32 0 }

let length t = t.len
let read t id k = Array.blit t.plane (id * t.width) k 0 t.width

(* does tuple [id] equal [k]? *)
let equal t id k =
  let o = id * t.width and j = ref 0 in
  while !j < t.width && t.plane.(o + !j) = k.(!j) do
    incr j
  done;
  !j = t.width

(* The probe loop: indices are masked to the slot count, so the
   unchecked reads stay in bounds; it stops at [k]'s slot or the first
   empty one. *)
let slot t h k =
  let i = ref ((h lsr 1) land t.mask) in
  while
    let h' = Array.unsafe_get t.slots (2 * !i) in
    h' <> 0 && not (h' = h && equal t (Array.unsafe_get t.slots ((2 * !i) + 1)) k)
  do
    i := (!i + 1) land t.mask
  done;
  !i

let find t k =
  let i = slot t (t.hash k lor 1) k in
  if t.slots.(2 * i) = 0 then -1 else t.slots.((2 * i) + 1)

(* double the slots, re-placing each stored hash: no tuple is read *)
let grow t =
  let old = t.slots in
  let cap = 2 * (t.mask + 1) in
  t.mask <- cap - 1;
  t.slots <- Array.make (2 * cap) 0;
  for j = 0 to (Array.length old / 2) - 1 do
    let h = old.(2 * j) in
    if h <> 0 then begin
      let i = ref ((h lsr 1) land t.mask) in
      while t.slots.(2 * !i) <> 0 do
        i := (!i + 1) land t.mask
      done;
      t.slots.(2 * !i) <- h;
      t.slots.((2 * !i) + 1) <- old.((2 * j) + 1)
    end
  done

let add t k =
  if 2 * (t.len + 1) > t.mask + 1 then grow t;
  let h = t.hash k lor 1 in
  let i = slot t h k in
  if t.slots.(2 * i) <> 0 then t.slots.((2 * i) + 1)
  else begin
    let id = t.len and o = t.len * t.width in
    if o + t.width > Array.length t.plane then begin
      let p = Array.make (max (o + t.width) (2 * Array.length t.plane)) 0 in
      Array.blit t.plane 0 p 0 o;
      t.plane <- p
    end;
    Array.blit k 0 t.plane o t.width;
    t.slots.(2 * i) <- h;
    t.slots.((2 * i) + 1) <- id;
    t.len <- id + 1;
    id
  end
