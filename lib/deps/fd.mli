(** Functional dependencies [R : X -> Y].

    Attribute lists are kept canonical (sorted, duplicate-free); use
    {!make}. The right-hand side never overlaps the left-hand side. *)

type t = private { rel : string; lhs : string list; rhs : string list }

val make : string -> string list -> string list -> t
(** [make r x y] builds [r : x -> y] with [y := y \ x]. Raises
    [Invalid_argument] when [x] is empty or [y \ x] is empty. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val trivial : t -> bool
(** Always false by construction (RHS never overlaps LHS); kept for
    symmetry with textbook definitions and future use on raw pairs. *)

val split_rhs : t -> t list
(** One FD per right-hand-side attribute. *)

val combine : t list -> t list
(** Group FDs with the same relation and LHS, merging the RHSes. *)

val pp : Format.formatter -> t -> unit
(** Paper notation: [R: a,b -> c,d]. *)

val to_string : t -> string

val parse : string -> t
(** Inverse of {!to_string}: ["R: a,b -> c"]. Raises [Failure] on a
    malformed input. *)

module Set : Set.S with type elt = t
