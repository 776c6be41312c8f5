(** Forward mapping: EER schema → relational schema.

    The classical design-time direction (Teorey–Yang–Fry [23],
    Markowitz–Shoshani [14] in the paper's bibliography). §3 of the paper
    argues DBRE applies exactly to relational schemas that {e could} have
    been produced this way; this module makes that claim testable — the
    forward image of a schema derived by Restruct + Translate must agree
    with the restructured relational schema (a round-trip exercised in
    [test/test_to_relational.ml]).

    Mapping rules:
    - a {e regular entity} becomes a relation keyed by its identifier;
    - a {e weak entity} borrows its owner's key: relation keyed by
      (owner key ∪ discriminator), with a referential constraint to the
      owner;
    - an {e is-a} link adds no relation: the subtype relation (already
      emitted for the sub-entity) gains a referential constraint into the
      supertype;
    - an {e m:n (or n-ary) relationship} becomes a relation whose key is
      the union of its role attributes, carrying the relationship
      attributes, with one referential constraint per role;
    - a {e binary relationship with a [One] leg} is folded into the
      One-side's relation as the role attributes (a foreign key), with a
      referential constraint — no new relation. Legs with unknown
      cardinality are treated as [Many] (a separate relation, the safe
      choice). *)

open Relational
open Er

type result = {
  schema : Schema.t;
  refs : (string * string list * string * string list) list;
      (** referential constraints: [(relation, attrs, target, target attrs)] *)
}

val map : Eer.t -> result
(** Raises [Invalid_argument] if the EER schema fails
    {!Validate.check} (garbage in, garbage out is not an option for a
    design procedure). Deterministic: relations appear entities-first
    (in declaration order), then relationship relations. *)
