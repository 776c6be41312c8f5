(** Normal-form tests and Bernstein 3NF synthesis.

    The tests follow the textbook definitions over a relation's attribute
    set, its candidate keys and a cover of its FDs. They back the
    "comment" column of the paper's §5 example (Person 2NF, HEmployee
    3NF, Department 2NF, Assignment 1NF) and verify that the Restruct
    output is in 3NF. *)

open Relational

type nf = Nf1 | Nf2 | Nf3 | Bcnf

val pp_nf : Format.formatter -> nf -> unit
val nf_to_string : nf -> string

val prime_attrs : Fd.t list -> all:string list -> string list
(** Attributes belonging to at least one candidate key. *)

val is_3nf : Fd.t list -> all:string list -> bool
(** For every nontrivial [X -> a]: [X] is a superkey or [a] is prime. *)

val is_bcnf : Fd.t list -> all:string list -> bool
(** For every nontrivial [X -> a]: [X] is a superkey. *)

val normal_form : Fd.t list -> all:string list -> nf
(** Highest normal form satisfied (always at least {!Nf1}). *)

val synthesize_3nf :
  rel_prefix:string -> Fd.t list -> all:string list -> Relation.t list
(** Bernstein's 3NF synthesis from a minimal cover: one relation per
    LHS-group, plus a key relation when no group contains a candidate
    key. Relations are named [rel_prefix ^ string_of_int i]. Used as an
    independent baseline against the paper's query-guided Restruct. *)
