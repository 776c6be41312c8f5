(** Exhaustive unary inclusion-dependency discovery — the
    Metanome/De Marchi-style baseline (experiment B2).

    Contrary to the paper's query-guided elicitation (which only tests
    attribute pairs named together in an equi-join), the baseline tests
    {e every} ordered pair of attributes with compatible domains across
    the whole schema. *)

open Relational

type stats = {
  pairs_considered : int;  (** ordered attribute pairs in the schema *)
  pairs_tested : int;  (** pairs surviving the domain-compatibility filter *)
  inds_found : int;
}

val discover_unary : Database.t -> Ind.t list * stats
(** All satisfied unary INDs [R.a ≪ S.b] with [(R, a) ≠ (S, b)], domain
    filtering first, then pairwise inclusion tests on dictionary codes:
    each attribute's distinct non-null values are its column
    dictionary, and [R.a ≪ S.b] holds when every code of [R.a]'s
    dictionary translates into [S.b]'s ({!Column_store.unary_included},
    which stops at the first code that does not).
    [Unknown] declared domains are inferred from the column
    dictionaries. Trivial self-inclusions are skipped;
    both directions of an equality are reported. *)
