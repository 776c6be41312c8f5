(** The IND-Discovery algorithm (§6.1).

    For each equi-join [R_k[A_k] ⋈ R_l[A_l]] of [Q], count
    [N_k = ||r_k[A_k]||], [N_l = ||r_l[A_l]||] and
    [N_kl = ||r_k[A_k] ⋈ r_l[A_l]||] against the database extension and:
    - (i)   [N_kl = 0]: no interrelation dependency (possible data
            integrity problem), nothing elicited;
    - (ii)  [N_kl = N_k]: elicit [R_k[A_k] ≪ R_l[A_l]];
    - (iii) [N_kl = N_l]: elicit [R_l[A_l] ≪ R_k[A_k]] (both when the
            projections are equal);
    - (iv)–(vii) otherwise a {e non-empty intersection}: the expert
            either conceptualizes it as a new relation [R_p(A_p)] (which
            joins [S] and yields [R_p ≪ R_k] and [R_p ≪ R_l]), forces one
            direction, or ignores it.

    Conceptualized relations are {e materialized}: added to the database
    with the intersection as extension and their full attribute set as
    key (a projection is a set), so downstream steps can query them. *)

open Relational
open Deps

type case =
  | Empty_intersection  (** (i) *)
  | Included of Ind.t list  (** (ii)/(iii); two INDs when equal *)
  | Nei of Oracle.nei_decision  (** (iv)–(vii) *)

type step = { join : Sqlx.Equijoin.t; counts : Ind.counts; case : case }
(** One processed equi-join, for reporting. *)

type result = {
  inds : Ind.t list;  (** the elicited set [IND], in elicitation order *)
  new_relations : Relation.t list;  (** the paper's [S] *)
  steps : step list;  (** full per-equi-join trace *)
  unverified : Sqlx.Equijoin.t list;
      (** equi-joins not processed because a supervision budget
          tripped, in their original [Q] order; empty on a complete
          run *)
  exhausted : Supervise.reason option;
      (** the tripped budget behind [unverified]; [None] iff the run
          completed *)
}

val run :
  ?engine:Engine.t ->
  ?supervise:Supervise.t ->
  ?prior:result ->
  Oracle.t ->
  Database.t ->
  Sqlx.Equijoin.t list ->
  result
(** Runs the algorithm. The database is mutated only by conceptualized
    NEI relations (added with their intersection extension, sorted so
    the materialized table does not depend on hash order). Equi-joins over unknown
    relations or attributes are skipped (recorded as
    {!Empty_intersection} with zero counts). Duplicate INDs are elicited
    once.

    All three counts come from the tables' memoized column stores,
    planned as one {!Verify_plan.ind_batch} over every resolvable
    equi-join of [Q] before the elicitation loop consumes them in
    [Q] order. [engine] (default {!Engine.default}) supplies only the
    budget policy.

    [supervise] is polled once per equi-join, between oracle decisions.
    On a trip the run degrades gracefully: the already-processed prefix
    comes back intact and the untouched tail lands in [unverified] with
    [exhausted] naming the budget — unless the engine's budget policy
    is [`Fail] ({!Engine.fail_on_exhausted}), in which case
    [Error.Error] (code [Resource_exhausted], stage [Ind_discovery]) is
    raised instead.

    [prior] resumes a partial result: only [prior.unverified] is
    processed, seeded with the prior INDs, conceptualized relations and
    steps, so a resumed run's result is identical to one that never
    tripped (given the same oracle tail and a database still carrying
    the prior conceptualizations — the pipeline replays stages in order
    to guarantee this). *)
