(** Armstrong relations: extensions that witness exactly a set of
    functional dependencies.

    Given a cover [F] over attributes [R], an Armstrong relation
    satisfies an FD [X → Y] {e iff} [F ⊨ X → Y]. The paper assumes
    nothing about how faithful the extension is to the real constraints;
    Armstrong relations are the maximally faithful case and make perfect
    test fixtures: data-driven discovery over them must coincide with
    Armstrong-axiom implication (property-tested).

    Construction: one base row of zeroes plus one row per closed
    attribute set [C ⊊ R], agreeing with the base exactly on [C]
    (fresh values elsewhere). Exponential in [|R|]; intended for the
    small relation schemas of tests and examples. *)

open Relational
open Deps

val closed_sets : Fd.t list -> attrs:string list -> string list list
(** All distinct closures [X⁺] for [X ⊆ attrs] (including [attrs]
    itself and the closure of the empty set), canonical, sorted. *)

val relation : rel:string -> Fd.t list -> attrs:string list -> Table.t
(** The Armstrong relation for [F] over [attrs]. Raises
    [Invalid_argument] when [attrs] is empty or has more than 16
    attributes. *)
