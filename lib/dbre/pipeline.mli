(** End-to-end driver: the full DBRE method of the paper.

    Input: a relational database [(R, E)] whose schema carries the
    dictionary constraints ([K], [N]), and the application knowledge —
    either an already-computed equi-join set [Q] or raw program sources
    to scan. Output: every intermediate artifact of §6–§7 plus the final
    EER schema and the complete decision trace.

    The driver is fault-tolerant: {!run_checked} wraps every stage in a
    typed-error boundary and returns a {!partial} result carrying the
    artifacts of all stages completed before the failure. Stage
    artifacts can be checkpointed to disk and resumed (see
    {!Checkpoint}). *)

open Relational

type stage_event =
  | Stage_started of Error.stage
  | Stage_restored of Error.stage
      (** the artifact was loaded from a checkpoint, not recomputed *)
  | Stage_finished of Error.stage
  | Stage_failed of Error.stage * Error.t
      (** the per-stage progress stream: each stage brackets itself with
          [Started] then exactly one of [Restored]/[Finished]/[Failed].
          This is what the analysis daemon forwards to watching
          clients. *)

type config = {
  oracle : Oracle.t;  (** checkpoints bind its [mode] *)
  engine : Engine.t;
      (** the run's resource budget, shared by every extension check:
          FD checks (RHS-Discovery) and distinct/join counting
          (IND-Discovery), all sequential. Build one with
          {!Engine.make}, or use {!Engine.default} *)
  migrate_data : bool;  (** populate the restructured database *)
  progress : (stage_event -> unit) option;
      (** observability tap: called synchronously as each stage starts
          and settles. Exceptions it raises are swallowed — a listener
          can never change the run's outcome. *)
  workload_flow : bool;
      (** when true, the [Extract] stage additionally runs the static
          dataflow analysis ({!Sqlx.Dataflow}) over each program (and
          each script) of the workload, recovering equi-joins navigated
          through host variables across statements. Off by default:
          with it off, every artifact is byte-identical to a historical
          run. Dataflow joins are appended after the per-statement
          evidence, then the union is deduplicated. *)
}

and result = {
  equijoins : Sqlx.Equijoin.t list;  (** the [Q] actually analyzed *)
  ind_result : Ind_discovery.result;
  lhs_result : Lhs_discovery.result;
  rhs_result : Rhs_discovery.result;
  restruct_result : Restruct.result;
  translate_result : Translate.result;
  events : Oracle.event list;  (** expert decisions, in order *)
  quarantine : Quarantine.report list;
      (** per-table reports from lenient loading (threaded through
          [?quarantine]); empty for strict runs *)
}

val default_config : config
(** {!Oracle.automatic}, {!Engine.default} (no budget), data
    migration on, no progress tap, dataflow analysis off. *)

val extract_equijoins :
  ?flow:bool -> Database.t -> Job_spec.workload -> Sqlx.Equijoin.t list
(** The Extract stage: the workload's equi-joins over [db]'s schema,
    deduplicated. [?flow] (default off) adds the inter-statement joins
    of the dataflow analysis after the per-statement ones. *)

type partial = {
  p_equijoins : Sqlx.Equijoin.t list option;
  p_ind_result : Ind_discovery.result option;
  p_lhs_result : Lhs_discovery.result option;
  p_rhs_result : Rhs_discovery.result option;
  p_restruct_result : Restruct.result option;
  p_events : Oracle.event list;
  p_quarantine : Quarantine.report list;
  p_error : Error.t;
}
(** Everything completed before a stage failed, plus the failure. The
    artifact options form a prefix: if [p_rhs_result] is [Some] then so
    are the earlier ones. *)

val run_checked :
  ?config:config ->
  ?supervise:Supervise.t ->
  ?quarantine:Quarantine.report list ->
  ?checkpoint_dir:string ->
  ?resume_from:string ->
  Database.t ->
  Job_spec.workload ->
  (result, partial) Stdlib.result
(** Runs IND-Discovery, LHS-Discovery, RHS-Discovery, Restruct and
    Translate in sequence, each under a typed-error boundary: a stage
    failure yields [Error partial] instead of raising. The input
    database is mutated only by NEI conceptualization (new relations
    with their intersection extension), matching the paper's statement
    that [S] extends the schema in place.

    [?quarantine] threads the reports produced while loading the
    extension (see {!Source.load}) into the result, so reporting can
    annotate which dependencies were tested against a reduced extension.

    [?checkpoint_dir] serializes each completed stage's artifact there
    (atomically, best-effort: IO errors never fail the run).
    [?resume_from] loads valid stage checkpoints from a directory
    instead of recomputing; corrupt or missing checkpoints, and those
    written for other inputs ({!Checkpoint.inputs}: schema, extension,
    equi-joins, [migrate_data], the oracle's mode), are silently
    recomputed. The inputs
    digest is taken once, at Extract, and only when checkpointing or
    resuming. Stages restored from checkpoints produce no oracle
    [events]. Translate is always recomputed (cheap, deterministic).

    [?supervise] (default: a fresh token from the engine's budget via
    {!Engine.supervisor}) bounds the run. The discovery stages poll it
    at group granularity: a trip leaves the tripped stage's processed
    prefix intact, records the untouched groups in the result's
    [unverified] field with [exhausted] naming the budget, and the
    remaining stages still run against the partial dependency sets —
    graceful degradation to a complete, annotated, typed result (under
    the engine's [`Fail] policy the trip is a stage failure instead,
    yielding [Error partial] with code [Resource_exhausted]). Partial
    artifacts are checkpointed like complete ones; a later
    [?resume_from] run completes a partial stage from its exact group
    boundary (seeding it as the stage's prior) and recomputes every
    stage downstream of a partial — restored complete artifacts
    upstream are reused — so the resumed artifacts are identical to an
    unbudgeted run's. *)

val refresh_checked :
  ?config:config ->
  ?supervise:Supervise.t ->
  ?quarantine:Quarantine.report list ->
  ?checkpoint_dir:string ->
  Database.t ->
  Job_spec.workload ->
  Refresh.report * (result, partial) Stdlib.result
(** Re-verify a database that has mutated since a previous run. The
    mutations already patched each table's store as they applied (or
    dropped its memos past {!Relational.Column_store.delta_fraction} of
    the extension); one coordinated pass ({!Refresh.database}) patches
    the join counts across tables and reports what the mutations cost,
    the checkpoint directory is invalidated (every stage artifact embeds
    verdicts over the old extension — see {!Checkpoint.invalidate}),
    then {!run_checked} re-runs the stages without resuming. The
    re-verification reuses every memo a mutation provably could not
    flip, so its artifacts are byte-identical to a full
    recompute-from-scratch over the mutated extension — only faster. *)

type degradation = {
  deg_relation : string;
  deg_quarantined : int;  (** quarantine entries for this relation *)
  deg_inds : Deps.Ind.t list;
      (** elicited INDs with a side on this relation — tested against a
          reduced extension *)
  deg_fds : Deps.Fd.t list;  (** elicited FDs over this relation *)
}

val degradations : result -> degradation list
(** For every quarantined table, the dependencies whose evidence came
    from the reduced extension — the confidence caveat the report
    surfaces. *)

val nf_report : result -> (string * Deps.Normal_forms.nf) list
(** Normal form of every relation of the restructured schema, computed
    against the elicited FDs plus the key FDs — the verification that
    Restruct reached 3NF. *)
