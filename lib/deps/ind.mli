(** Inclusion dependencies [R[X] ≪ S[Y]] (§2).

    Both sides keep the {e given} attribute order (positional
    correspondence matters for n-ary INDs), unlike FDs whose sides are
    sets. *)

open Relational

type t = private {
  lhs_rel : string;
  lhs_attrs : string list;
  rhs_rel : string;
  rhs_attrs : string list;
}

val make : string * string list -> string * string list -> t
(** [make (r, x) (s, y)]. Raises [Invalid_argument] when the widths
    differ, a side is empty, or a side contains a duplicate attribute. *)

val compare : t -> t -> int
val equal : t -> t -> bool

val lhs : t -> Attribute.t
(** Left side as a qualified attribute set. *)

val rhs : t -> Attribute.t

val pp : Format.formatter -> t -> unit
(** Paper notation: [R[x] << S[y]]. *)

val to_string : t -> string

val parse : string -> t
(** Inverse of {!to_string}: ["R[a,b] << S[c,d]"]. Raises [Failure]. *)

type counts = { n_left : int; n_right : int; n_join : int }
(** The three §6.1 counts: [N_k], [N_l], [N_kl]. *)

val counts : Database.t -> t -> counts
(** Run the counting queries for this IND against the extension. *)

val satisfied : Database.t -> t -> bool
(** [r[X] ⊆ s[Y]] over distinct non-null projections — the count-based
    test [N_kl = N_k] of §6.1. *)

val key_based : Schema.t -> t -> bool
(** Is the right-hand side a declared key of its relation — i.e. is this
    IND a referential integrity constraint? *)

module Set : Set.S with type elt = t
