(** Immutable bit-packed vectors of dictionary codes: the payload of a
    sealed segment, read only by {!Ooc}.

    Codes are stored at 1/2/4/8/16/32 bits per code (little-endian bit
    order), with a plain [int array] ([Raw]) for unpackable widths. The
    packed byte image is exactly what a spill file contains, so
    spilling and mapping back cannot alter codes. *)

type buf =
  (char, Bigarray.int8_unsigned_elt, Bigarray.c_layout) Bigarray.Array1.t

type t =
  | Raw of int array  (** unpacked fast path / unpackable fallback *)
  | Packed of { width : int; n : int; data : Bytes.t }
  | Mapped of { width : int; n : int; data : buf }
      (** mmap-backed view of a spill file *)

val width_for : int -> int
(** [width_for max_code] is the smallest supported width (1/2/4/8/16/32)
    that can hold every code in [\[0, max_code\]], or [0] if none can
    (callers fall back to [Raw]). *)

val pack : width:int -> int array -> int -> int -> t
(** [pack ~width src off n] packs [src.(off .. off+n-1)]. [width] must
    come from {!width_for}; [width = 0] yields [Raw]. *)

val width : t -> int
(** Pack width in bits; [0] for [Raw]. *)

val heap_words : t -> int
(** Approximate resident heap cost in words (the residency budget's
    unit). *)

val decode_into : t -> int array -> unit
(** [decode_into t dst] writes every code of [t] into [dst.(0..)],
    which may be longer. *)

val write_file : string -> t -> int
(** Write the packed payload (or the 64-bit LE encoding of a [Raw]) to
    a spill file, and return a checksum of the bytes written; the file
    holds the payload alone. Raises [Invalid_argument] on [Mapped]
    payloads, which already live in their spill file. *)

val map_file : string -> width:int -> len:int -> checksum:int -> t
(** Map a spill file written by {!write_file} back as a [Mapped]
    payload ([Raw] for [width = 0]), [checksum] being what the write
    returned. Raises [Error.Error] with {!Error.Io_error}, naming the
    path, when the file cannot be opened or mapped, when its size is not
    exactly the payload's (the message gives both byte counts), or when
    its bytes do not match the checksum (any damage inside one 4-byte
    word is caught). *)
