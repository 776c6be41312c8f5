(** Run a {!Job_spec.t}: the one entry point shared by the one-shot CLI
    and the analysis daemon.

    [Job] is the glue between a serialized spec and {!Pipeline}: it
    parses the spec's DDL, loads every source through
    {!Relational.Source.load} (honoring leniency and the spec's
    budget), builds the {!Pipeline.config} the spec denotes, and runs
    {!Pipeline.run_checked} under the spec's checkpoint/resume options.
    Because both front ends call exactly this function with exactly the
    spec, their artifacts are byte-identical by construction. *)

open Relational

type event =
  | Loading of string  (** about to load this relation's source *)
  | Loaded of string * int
      (** relation loaded with this many tuples (post-quarantine) *)
  | Stage of Pipeline.stage_event

val database :
  ?supervise:Supervise.t ->
  ?progress:(event -> unit) ->
  Job_spec.t ->
  (Database.t * Quarantine.report list, Error.t) result
(** Parse the spec's DDL and load every source into a fresh database.
    Relations without a source keep an empty extension. Errors: DDL
    that does not parse ([Sql_parse]), a source naming an undeclared
    relation ([Unknown_relation]), and whatever {!Source.load} reports.
    Lenient specs quarantine bad tuples and collect the reports. *)

val config :
  ?oracle:Oracle.t -> ?progress:(event -> unit) -> Job_spec.t ->
  Pipeline.config
(** The {!Pipeline.config} the spec denotes, [flow] included. [?oracle]
    overrides the spec's serialized oracle {e mode} with a live value —
    how the CLI injects an interactive oracle that cannot travel in a
    spec. Nothing else of a run is set outside the spec. *)

val load_failure : Error.t -> Pipeline.partial
(** A load error in the shape of a first-stage failure: no completed
    stages, no events. *)

val verify :
  ?oracle:Oracle.t ->
  ?progress:(event -> unit) ->
  ?supervise:Supervise.t ->
  db:Database.t ->
  quarantine:Quarantine.report list ->
  Job_spec.t ->
  (Pipeline.result, Pipeline.partial) result
(** The verification half of {!run}: {!Pipeline.run_checked} over an
    already-loaded database under the spec's config, checkpoint and
    resume options. Callers that retain the database (the analysis
    daemon) use this to re-verify without reloading. *)

val refresh :
  ?oracle:Oracle.t ->
  ?progress:(event -> unit) ->
  ?supervise:Supervise.t ->
  db:Database.t ->
  quarantine:Quarantine.report list ->
  Job_spec.t ->
  Refresh.report * (Pipeline.result, Pipeline.partial) result
(** Re-verify after mutation: {!Pipeline.refresh_checked} over the
    retained database — one coordinated delta pass over every memoized
    store, checkpoint invalidation, then the verification stages rerun
    (never resumed). Artifacts are byte-identical to re-running the job
    from scratch on the mutated extension. *)

val run :
  ?oracle:Oracle.t ->
  ?progress:(event -> unit) ->
  ?supervise:Supervise.t ->
  Job_spec.t ->
  (Pipeline.result, Pipeline.partial) result
(** [database] then {!verify}, threading quarantine
    reports, checkpoint/resume directories and the supervision token
    (default: {!Job_spec.supervisor}, i.e. the engine budget plus the
    spec's [fuel]). A load failure is reported as [Error partial] with
    no completed stages, exactly like a first-stage failure — callers
    see one shape ({!load_failure}). [?progress] observes loading and
    every {!Pipeline.stage_event}; pass [?supervise] explicitly to keep
    a handle for cancelling the run from another thread. A caller that
    acts between load and verification (the CLI's [--lint] prints the
    workload diagnostics there) calls {!database} and {!verify} itself,
    with one {!Job_spec.supervisor} token for both. *)
