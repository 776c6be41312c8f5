(** The extension-check engine descriptor.

    Every counting primitive the paper issues against the extension —
    [||r[X]||], [||r_k[A_k] ⋈ r_l[A_l]||], FD satisfaction, key checks —
    has exactly one implementation, over the table's memoized
    {!Column_store}. An {!t} value carries only what a run may vary
    around it: how many domains the IND-batch pre-pass
    ({!Verify_plan.ind_batch}) fans its per-table preparation out over
    ({!parallelism}; nothing else, the CSV load included, runs on the
    pool) and the run's resource {!budget}. It is pure data, so the
    type can sit at the bottom of the dependency stack. *)

type parallelism =
  | Sequential
  | Domains of int  (** fan the IND-batch pre-pass out over [n] domains *)

type budget = {
  deadline_s : float option;  (** wall-clock budget for the whole run *)
  max_heap_words : int option;  (** [Gc.quick_stat].heap_words ceiling *)
  on_exhausted : [ `Partial | `Fail ];
      (** what a stage does when the budget trips: return a typed
          partial result with an explicit unverified suffix
          ([`Partial], the default), or raise a fatal
          [Error.Resource_exhausted] ([`Fail]) *)
}

type t = { parallelism : parallelism; budget : budget }

val no_budget : budget
(** No deadline, no heap ceiling, [`Partial] policy — the default of
    every preset. *)

val make :
  ?parallelism:parallelism ->
  ?deadline_s:float ->
  ?max_heap_words:int ->
  ?on_exhausted:[ `Partial | `Fail ] ->
  ?spill_dir:string ->
  ?resident_budget_words:int ->
  ?segment_rows:int ->
  unit ->
  t
(** Defaults: [Sequential], {!no_budget} — i.e. {!default}.

    The out-of-core parameters ([spill_dir], [resident_budget_words],
    [segment_rows]) are the front door to
    {!Ooc.configure}: they adjust the {e process-wide} segment policy
    (the budgeted resource — the heap — is process-wide, and segments
    from every store compete for it) rather than a field of the
    returned record, so job specs and {!of_string} round-trip
    unchanged. Omitted parameters leave the current policy alone. *)

val with_budget :
  ?deadline_s:float ->
  ?max_heap_words:int ->
  ?on_exhausted:[ `Partial | `Fail ] ->
  t ->
  t
(** Override budget fields of an existing engine (CLI flag layering);
    omitted fields keep their current value. *)

val supervisor : t -> Supervise.t
(** A fresh supervision token armed with the engine's budget —
    {!Supervise.unlimited} when no limit is set. Deadlines are anchored
    at this call, so mint one token per run. *)

val fail_on_exhausted : t -> bool
(** [budget.on_exhausted = `Fail]. *)

val default : t
(** Sequential, no budget: the library-wide default. *)

val max_domains : int
(** Ceiling (16) applied to the host recommendation: past it the
    stages here are memory-bound and extra domains only buy GC-barrier
    contention. Explicit [~domains] requests are not capped at
    construction; {!pool} clamps them when handing out workers. *)

val parallel : ?domains:int -> unit -> t
(** [Domains n]. [n] defaults to
    [Stdlib.Domain.recommended_domain_count ()] capped at
    {!max_domains}; when the result is 1 the engine degrades to
    [Sequential]. *)

val domain_count : t -> int
(** 1 for [Sequential]. *)

val of_string : string -> t option
(** ["default" | "parallel" | "parallel:<n>"] — CLI parsing; [None]
    for anything else. *)

val pool : t -> Domain_pool.t option
(** The persistent worker pool of the IND-batch fan-out:
    [None] for [Sequential] (and for [Domains n] with [n <= 1]),
    otherwise the process-wide shared {!Domain_pool.get} of the
    engine's domain count (clamped to {!max_domains}) — spawned once on
    first use and reused across all pipeline stages. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

val describe : t -> string
(** {!to_string} plus the resolved domain count, the host
    recommendation and the {!max_domains} cap, the delta-cache
    statistics ({!Column_store.delta_fraction}, rows absorbed,
    incremental vs full refreshes — {!Column_store.delta_stats}), the
    out-of-core state ({!Ooc.config} and {!Ooc.stats}: segment size,
    spill dir, budget, residency, spill/map/eviction counts, segments
    swept) — for bench logs and serve job status. *)
