(** Functional-dependency inference from data.

    The FD check over the memoized column store, plus a full levelwise
    discovery of all minimal FDs in the spirit of Mannila–Räihä [12] —
    the {e exhaustive baseline} the paper's query-guided elicitation is
    compared against (experiment B4). *)

open Relational

val holds : ?engine:Engine.t -> Table.t -> Fd.t -> bool
(** Does the FD hold on the extension? NULL-LHS rows are exempt and
    NULL = NULL on the RHS. Answered by one {!Column_store.fd_batch}
    over the RHS attributes on the table's memoized store, so repeated
    checks are O(1) until the table changes — after which the store
    delta-refreshes itself (within [engine.delta_fraction], see
    {!Column_store.of_table}) instead of rebuilding. *)

val holds_all :
  ?engine:Engine.t ->
  ?supervise:Supervise.t ->
  Table.t ->
  lhs:string list ->
  rhs:string list ->
  (string * bool) list
(** Batched check of every [lhs -> a] for [a] in [rhs], in order,
    through {!Relational.Verify_plan.fd_group}: one fused sweep answers
    every candidate instead of one scan per candidate, and column
    encoding fans out over the engine's {!Relational.Domain_pool}.
    Verdicts are identical to per-candidate {!holds} calls.
    [supervise] is threaded to the planner, which polls it at sweep
    granularity; a trip raises [Supervise.Interrupt]. *)

val error_rate : Table.t -> Fd.t -> float
(** Fraction of rows that must be removed for the FD to hold
    ([g3] error measure): 0 when it holds. *)

type stats = {
  candidates_tested : int;
  fds_found : int;
  exhausted : Supervise.reason option;
      (** [Some r] when a supervision budget tripped mid-search and the
          FDs returned are the (still-minimal) prefix found before the
          trip; [None] on a complete search. *)
}

val discover :
  ?max_lhs:int ->
  ?supervise:Supervise.t ->
  rel:string ->
  Table.t ->
  Fd.t list * stats
(** All minimal FDs [X -> a] with [|X| ≤ max_lhs] (default 3) satisfied
    by the table, found levelwise with candidate pruning: supersets of a
    found LHS are not tested for the same RHS, and key LHSes prune all
    larger candidates. Key tests and FD tests both run over the table's
    memoized column store: {!Column_store.count_distinct} per LHS, and
    one {!Column_store.fd_batch} per LHS over its uncovered candidates.
    Returns the FDs (combined by LHS) and search statistics. Exponential
    in arity — the point of the baseline.

    [supervise] is polled once per LHS candidate set; a trip ends the
    search at that boundary and the FDs found so far come back with
    [stats.exhausted] naming the tripped budget (no exception
    escapes). *)

val discover_for_lhs :
  ?engine:Engine.t ->
  ?supervise:Supervise.t ->
  rel:string ->
  Table.t ->
  string list ->
  Fd.t option
(** Maximal RHS functionally determined by the given LHS (excluding the
    LHS itself); [None] when nothing besides the LHS is determined.
    This is the primitive RHS-Discovery (§6.2.2) calls per candidate —
    answered as one {!holds_all} batch over the non-LHS attributes. *)
