(** The RHS-Discovery algorithm (§6.2.2).

    For each candidate [R_i.A ∈ LHS ∪ H], find the right-hand side of a
    relevant functional dependency:

    + prune the candidate RHS attributes [T = X_i - A - K_i] (the keys
      are out — we only target 3NF), and when [A] is nullable also drop
      the not-null attributes of [R_i] (a nullable identifier cannot
      determine a total attribute);
    + for each [b ∈ T], test [A -> b] against the extension; on failure
      the expert may still {e enforce} it (corrupted extensions);
    + a non-empty RHS [B] yields [R_i : A -> B] (subject to expert
      validation), and removes [A] from [H] if present;
    + an empty RHS makes [A] a candidate hidden object: kept if the
      expert conceptualizes it, dropped otherwise. *)

open Relational
open Deps

type outcome =
  | Fd_elicited of Fd.t  (** case (iii) *)
  | Became_hidden  (** case (iv) *)
  | Dropped  (** case (v), or FD rejected by the expert *)
  | Already_hidden  (** empty RHS for a candidate that was in [H] *)

type step = {
  candidate : Attribute.t;
  pruned_rhs : string list;  (** the [T] actually tested *)
  outcome : outcome;
}

type result = {
  fds : Fd.t list;  (** the elicited set [F] *)
  hidden : Attribute.t list;  (** the final [H] *)
  steps : step list;
  unverified : Attribute.t list;
      (** candidates not processed because a supervision budget
          tripped, in their original [LHS ∪ H] order; empty on a
          complete run *)
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
  lhs:Attribute.t list ->
  hidden:Attribute.t list ->
  result
(** Every candidate [A -> b_t] is checked on the table's memoized
    column store, and candidates over the same relation share the
    store's LHS partition; [engine] (default {!Engine.default})
    supplies only the budget policy. Candidates over unknown relations
    are dropped.

    [supervise] is polled once per candidate attribute (and threaded to
    the per-candidate verification batch). On a trip the processed
    prefix comes back intact, the untouched candidates land in
    [unverified] with [exhausted] naming the budget — unless the
    engine's budget policy is [`Fail], in which case [Error.Error]
    (code [Resource_exhausted], stage [Rhs_discovery]) is raised.

    [prior] resumes a partial result: only [prior.unverified] is
    processed, seeded with the prior FDs, hidden set and steps, so the
    resumed result is identical to a run that never tripped (same
    oracle tail assumed). [lhs]/[hidden] must be the same values passed
    to the original run ([hidden] still scopes the "was in H" test). *)
