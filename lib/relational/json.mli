(** Tiny JSON codec used by the serializable job descriptions
    ({!Dbre.Job_spec}), the analysis daemon's wire protocol and the
    pipeline checkpoints.

    Printing is deterministic — object fields are emitted in the order
    given, numbers in a shortest round-tripping form — so encodings can
    be pinned by golden tests and compared byte for byte. The parser
    accepts standard JSON (objects, arrays, strings with the usual
    escapes, numbers, booleans, null); numbers without a fraction or
    exponent that fit in an OCaml [int] parse as {!Int}, everything
    else as {!Float}.

    It is the repository's one serialization format: job specs, the
    daemon's wire protocol and the pipeline checkpoints
    ({!Dbre.Checkpoint}) all go through it. A small self-contained codec
    at the bottom of the stack, with no external dependencies. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Compact (no whitespace), deterministic rendering. *)

exception Parse_error of string

val max_depth : int
(** The deepest nesting of arrays and objects {!of_string} accepts:
    512. *)

val of_string : string -> t
(** Raises {!Parse_error} on malformed input, trailing garbage, or
    nesting deeper than {!max_depth}. *)

val of_string_opt : string -> t option

(** {1 Accessors}

    Total helpers for walking parsed documents; they never raise. *)

val member : string -> t -> t option
(** Field lookup in an {!Obj} (first match); [None] otherwise. *)

val to_string_opt : t -> string option
(** The payload of a {!String}. *)

val to_int_opt : t -> int option
(** {!Int}, or a {!Float} with an integral value. *)

val to_float_opt : t -> float option
(** {!Float} or {!Int}. *)

val to_bool_opt : t -> bool option
val to_list_opt : t -> t list option
val to_obj_opt : t -> (string * t) list option

val mem_string : string -> t -> string option
(** [member] composed with [to_string_opt]; same for the others. *)

val mem_int : string -> t -> int option
val mem_float : string -> t -> float option
val mem_bool : string -> t -> bool option
val mem_list : string -> t -> t list option

val decode_list : (t -> ('a, 'e) result) -> t list -> ('a list, 'e) result
(** Decode every element in order; the first [Error] is the result. *)

val opt_string : string option -> t
(** [String s] or [Null] — for optional fields of an encoding. *)

val opt_int : int option -> t
val opt_float : float option -> t
