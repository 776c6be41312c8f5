(* Immutable bit-packed vectors of dictionary codes.

   A sealed column segment stores its codes at the dictionary's width —
   1/2/4/8/16/32 bits per code, little-endian within and across bytes —
   so a 64k-row segment over a boolean-like dictionary costs 8 KB
   instead of 512 KB of boxed-free [int array]. The packed payload is a
   plain [Bytes.t] while resident, and a char [Bigarray] when mapped
   back from a spill file, so a segment written to disk is byte-for-byte
   the buffer [Unix.map_file] hands back — spilling and mapping cannot
   change a single code.

   [Raw] is the escape hatch (and the int-array fast path): codes too
   wide to pack (beyond 32 bits, which no realistic dictionary reaches)
   stay as the original array, and [decode_into] copies it. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t =
  | Raw of int array
  | Packed of { width : int; n : int; data : Bytes.t }
  | Mapped of { width : int; n : int; data : buf }

(* smallest supported width holding every code in [0, max_code]; 0 when
   even 32 bits cannot (callers fall back to [Raw]) *)
let width_for max_code =
  if max_code < 2 then 1
  else if max_code < 4 then 2
  else if max_code < 16 then 4
  else if max_code < 256 then 8
  else if max_code < 65536 then 16
  else if max_code < 1 lsl 32 then 32
  else 0

let packed_bytes ~width n = ((n * width) + 7) / 8

let width = function
  | Raw _ -> 0
  | Packed { width; _ } | Mapped { width; _ } -> width

(* resident heap cost in words, the unit the residency budget is
   denominated in; a mapped payload's pages are the kernel's to evict,
   so it is charged the same as its resident twin (the budget tracks
   address-space pressure, not RSS) *)
let heap_words = function
  | Raw a -> Array.length a + 2
  | Packed { n; width; _ } | Mapped { n; width; _ } ->
      (packed_bytes ~width n / (Sys.word_size / 8)) + 3

let pack ~width (src : int array) off n =
  if width = 0 then Raw (Array.sub src off n)
  else begin
    let data = Bytes.make (packed_bytes ~width n) '\000' in
    (match width with
    | 8 ->
        for i = 0 to n - 1 do
          Bytes.unsafe_set data i (Char.unsafe_chr (src.(off + i) land 0xff))
        done
    | 16 ->
        for i = 0 to n - 1 do
          let c = src.(off + i) in
          Bytes.unsafe_set data (2 * i) (Char.unsafe_chr (c land 0xff));
          Bytes.unsafe_set data ((2 * i) + 1)
            (Char.unsafe_chr ((c lsr 8) land 0xff))
        done
    | 32 ->
        for i = 0 to n - 1 do
          let c = src.(off + i) in
          Bytes.unsafe_set data (4 * i) (Char.unsafe_chr (c land 0xff));
          Bytes.unsafe_set data ((4 * i) + 1)
            (Char.unsafe_chr ((c lsr 8) land 0xff));
          Bytes.unsafe_set data ((4 * i) + 2)
            (Char.unsafe_chr ((c lsr 16) land 0xff));
          Bytes.unsafe_set data ((4 * i) + 3)
            (Char.unsafe_chr ((c lsr 24) land 0xff))
        done
    | w ->
        (* sub-byte widths: [8 / w] codes per byte, lowest bits first *)
        let per = 8 / w in
        for i = 0 to n - 1 do
          let byte = i / per and shift = w * (i mod per) in
          let prev = Char.code (Bytes.unsafe_get data byte) in
          Bytes.unsafe_set data byte
            (Char.unsafe_chr (prev lor (src.(off + i) lsl shift)))
        done);
    Packed { width; n; data }
  end

(* The two decode loops are intentionally twinned: [Bytes] and
   [Bigarray] have no common zero-cost accessor, and this is the inner
   loop of every segment sweep. *)

let decode_bytes_into ~width (data : Bytes.t) n (dst : int array) =
  match width with
  | 8 ->
      for i = 0 to n - 1 do
        dst.(i) <- Char.code (Bytes.unsafe_get data i)
      done
  | 16 ->
      for i = 0 to n - 1 do
        dst.(i) <-
          Char.code (Bytes.unsafe_get data (2 * i))
          lor (Char.code (Bytes.unsafe_get data ((2 * i) + 1)) lsl 8)
      done
  | 32 ->
      for i = 0 to n - 1 do
        dst.(i) <-
          Char.code (Bytes.unsafe_get data (4 * i))
          lor (Char.code (Bytes.unsafe_get data ((4 * i) + 1)) lsl 8)
          lor (Char.code (Bytes.unsafe_get data ((4 * i) + 2)) lsl 16)
          lor (Char.code (Bytes.unsafe_get data ((4 * i) + 3)) lsl 24)
      done
  | w ->
      let per = 8 / w in
      let mask = (1 lsl w) - 1 in
      for i = 0 to n - 1 do
        let byte = Char.code (Bytes.unsafe_get data (i / per)) in
        dst.(i) <- (byte lsr (w * (i mod per))) land mask
      done

let decode_buf_into ~width (data : buf) n (dst : int array) =
  match width with
  | 8 ->
      for i = 0 to n - 1 do
        dst.(i) <- Char.code (Bigarray.Array1.unsafe_get data i)
      done
  | 16 ->
      for i = 0 to n - 1 do
        dst.(i) <-
          Char.code (Bigarray.Array1.unsafe_get data (2 * i))
          lor (Char.code (Bigarray.Array1.unsafe_get data ((2 * i) + 1)) lsl 8)
      done
  | 32 ->
      for i = 0 to n - 1 do
        dst.(i) <-
          Char.code (Bigarray.Array1.unsafe_get data (4 * i))
          lor (Char.code (Bigarray.Array1.unsafe_get data ((4 * i) + 1)) lsl 8)
          lor (Char.code (Bigarray.Array1.unsafe_get data ((4 * i) + 2))
              lsl 16)
          lor (Char.code (Bigarray.Array1.unsafe_get data ((4 * i) + 3))
              lsl 24)
      done
  | w ->
      let per = 8 / w in
      let mask = (1 lsl w) - 1 in
      for i = 0 to n - 1 do
        let byte = Char.code (Bigarray.Array1.unsafe_get data (i / per)) in
        dst.(i) <- (byte lsr (w * (i mod per))) land mask
      done

let decode_into t (dst : int array) =
  match t with
  | Raw a -> Array.blit a 0 dst 0 (Array.length a)
  | Packed { width; n; data } -> decode_bytes_into ~width data n dst
  | Mapped { width; n; data } -> decode_buf_into ~width data n dst

(* ------------------------------------------------------------------ *)
(* spill files                                                         *)
(* ------------------------------------------------------------------ *)

let write_all fd bytes =
  let len = Bytes.length bytes in
  let off = ref 0 in
  while !off < len do
    off := !off + Unix.write fd bytes !off (len - !off)
  done

(* 64-bit little-endian fallback for unpackable segments *)
let raw_to_bytes (a : int array) =
  let n = Array.length a in
  let data = Bytes.create (8 * n) in
  Array.iteri (fun i c -> Bytes.set_int64_le data (8 * i) (Int64.of_int c)) a;
  data

(* A checksum of a payload's bytes, four at a time: each step is a
   bijection of the running sum for a given word, and of the word for a
   given sum, so damage inside one 4-byte word always changes it. The
   two loops are twinned as the decoders are. *)
let sum_step h w = (h lxor w) * 0x100000001b3

external buf_get32 : buf -> int -> int32 = "%caml_bigstring_get32u"

let bytes_checksum (b : Bytes.t) =
  let n = Bytes.length b in
  let h = ref n and i = ref 0 in
  while !i + 4 <= n do
    h := sum_step !h (Int32.to_int (Bytes.get_int32_ne b !i));
    i := !i + 4
  done;
  for j = !i to n - 1 do
    h := sum_step !h (Char.code (Bytes.get b j))
  done;
  !h

let buf_checksum (b : buf) =
  let n = Bigarray.Array1.dim b in
  let h = ref n and i = ref 0 in
  while !i + 4 <= n do
    h := sum_step !h (Int32.to_int (buf_get32 b !i));
    i := !i + 4
  done;
  for j = !i to n - 1 do
    h := sum_step !h (Char.code (Bigarray.Array1.get b j))
  done;
  !h

let write_file path t =
  let bytes =
    match t with
    | Packed { data; _ } -> data
    | Raw a -> raw_to_bytes a
    | Mapped _ ->
        (* a mapped payload already lives in its spill file *)
        invalid_arg "write_file: the payload is already mapped"
  in
  let fd =
    Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o600
  in
  Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> write_all fd bytes);
  bytes_checksum bytes

(* A spill file of the wrong size is damaged: a short one would make
   [Unix.map_file] try to grow a read-only descriptor, and a long one
   would map its prefix without complaint. One of the right size is
   damaged when its bytes do not sum to the checksum taken as it was
   written. *)
let map_file path ~width ~len ~checksum =
  let expected = if width = 0 then 8 * len else packed_bytes ~width len in
  let fail msg = Error.raisef Error.Io_error "spill file %s: %s" path msg in
  let map fd =
    let actual = (Unix.fstat fd).Unix.st_size in
    if actual <> expected then
      fail (Printf.sprintf "spill file holds %d bytes, expected %d" actual expected);
    Bigarray.array1_of_genarray
      (Unix.map_file fd Bigarray.char Bigarray.c_layout false [| expected |])
  in
  let data =
    try
      let fd = Unix.openfile path [ Unix.O_RDONLY ] 0 in
      Fun.protect ~finally:(fun () -> Unix.close fd) (fun () -> map fd)
    with Unix.Unix_error (e, fn, _) -> fail (fn ^ ": " ^ Unix.error_message e)
  in
  if buf_checksum data <> checksum then fail "checksum mismatch";
  if width = 0 then
    (* unpackable segments round-trip through the 64-bit encoding *)
    Raw
      (Array.init len (fun i ->
           let v = ref 0 in
           for b = 7 downto 0 do
             v := (!v lsl 8) lor Char.code (Bigarray.Array1.get data ((8 * i) + b))
           done;
           !v))
  else Mapped { width; n = len; data }
