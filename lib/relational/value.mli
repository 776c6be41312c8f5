(** Atomic attribute values.

    The relational engine is dynamically typed: every table cell holds a
    {!t}. [Null] models SQL's NULL and is equal to itself for the purpose
    of grouping (functional-dependency checks) but is excluded from
    projections used by [COUNT(DISTINCT ...)]-style counting, matching
    SQL semantics. *)

type date = { year : int; month : int; day : int }
(** A calendar date. No time-zone handling; dates are plain triples
    ordered lexicographically. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of date

val compare : t -> t -> int
(** Total order: [Null < Bool < Int < Float < String < Date], then the
    natural order within each constructor. [Int] and [Float] are compared
    numerically against each other so that mixed numeric columns sort
    sensibly. *)

val equal : t -> t -> bool
(** [equal a b] is [compare a b = 0]. Note [equal Null Null = true]:
    the engine treats NULL as a regular groupable value where the paper's
    FD definition requires tuple-component equality. *)

val hash : t -> int
(** Hash compatible with {!equal}. *)

val is_null : t -> bool

val pp : Format.formatter -> t -> unit
(** Human-readable rendering: strings unquoted, [Null] printed as [NULL]. *)

val pp_sql : Format.formatter -> t -> unit
(** SQL-literal rendering: strings single-quoted with escaping. *)

val to_string : t -> string
(** [to_string v] is {!pp} rendered to a string. *)

val date : int -> int -> int -> t
(** [date y m d] builds a {!Date}; raises [Invalid_argument] on an
    out-of-range month or day. *)

val parse : string -> t
(** [parse s] guesses the most specific value for a raw (CSV) field:
    empty string ⇒ [Null]; then int, float, date ([YYYY-MM-DD]), bool
    ([true]/[false], case-insensitive); otherwise [String s]. *)
