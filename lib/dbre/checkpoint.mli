(** Per-stage pipeline checkpoints.

    Each stage serializes its output artifact to
    [<dir>/<n>-<stage>.ckpt] as one {!Relational.Json} document,
    [{"version":4,"stage":...,"inputs":...,"checksum":...,"payload":...}].
    [inputs] is the run's {!inputs} digest: a checkpoint restores only
    into a run over the same schema, extension, equi-joins and
    migration setting. The checksum is FNV-1a 64 over the compact
    rendering of the payload, verified on load against a re-rendering
    of the parsed payload — a file truncated or edited into something
    still parseable reads as corrupt. Writes are atomic (tmp file +
    rename); loads return [None] on a missing, corrupt,
    checksum-mismatched, version-mismatched or differently-bound file
    (version 3 files carry no binding, version 2 files were
    s-expressions: both read as stale), so a resuming run silently
    recomputes the stage instead of failing.
    Loads are total: {!Relational.Json.of_string} refuses deep nesting, and no
    decoding failure escapes as an exception.

    Values round-trip exactly: floats are stored as their ["%h"]
    rendering (so NaN, infinities and [-0.0] survive) and dates as
    tagged triples, never re-guessed from strings.

    Partial artifacts: the Ind and Rhs payloads carry their result's
    [unverified]/[exhausted] fields, so a budget-tripped stage
    checkpoints exactly the work completed and a resumed pipeline
    continues from that group boundary (see {!Pipeline.run_checked}).

    The Translate checkpoint is a completion {e marker} only (the EER
    graph has no deserializer): it stores the rendered schema for human
    inspection, and resume always recomputes Translate from the
    Restruct artifact — acceptable because Translate is deterministic
    and cheap.

    The oracle is not bound: it is a closure with no identity to
    digest, so resuming under a different expert restores the first
    expert's decisions. *)

open Relational

type stage = Ind | Lhs | Rhs | Restruct | Translate

val stage_name : stage -> string
val path : dir:string -> stage -> string

val ensure_dir : string -> unit
(** Recursive [mkdir -p]; existing directories are fine. *)

val write_atomic : string -> string -> unit
(** [write_atomic path contents] writes [path ^ ".tmp"] and renames it
    over [path], so a crash leaves the old contents or the new, never a
    torn file. Raises [Sys_error] on IO failure. *)

val inputs :
  Database.t -> Sqlx.Equijoin.t list -> migrate_data:bool -> string
(** The hex digest every checkpoint of a run is bound to: the schema
    (relations, domains, [K] and [N]), each relation's extension
    ({!Relational.Column_store.digest}: dictionaries and codes), the
    analyzed equi-joins and [migrate_data]. Take it before
    IND-Discovery adds conceptualized relations. One pass over the
    extension. *)

val invalidate : dir:string -> unit
(** Delete every stage checkpoint in [dir]. Mutation makes all of them
    stale at once (each embeds verdicts over the old extension), so a
    refresh run must not resume from any of them. IO errors are
    swallowed: worst case a stale file survives and is overwritten by
    the re-run. *)

val write_ind :
  dir:string -> inputs:string -> Database.t -> Ind_discovery.result -> unit
(** Conceptualized relations are stored {e with} their intersection
    extensions (read from [db]), so a resuming run can re-materialize
    them. Raises [Sys_error] on IO failure. *)

val load_ind :
  dir:string -> inputs:string -> Database.t -> Ind_discovery.result option
(** On success, re-applies the conceptualized relations (schema and
    extension) to [db] via [Database.replace_table]. The whole payload
    is decoded first: on [None], [db] is untouched. *)

val write_lhs : dir:string -> inputs:string -> Lhs_discovery.result -> unit
val load_lhs : dir:string -> inputs:string -> Lhs_discovery.result option
val write_rhs : dir:string -> inputs:string -> Rhs_discovery.result -> unit
val load_rhs : dir:string -> inputs:string -> Rhs_discovery.result option
val write_restruct : dir:string -> inputs:string -> Restruct.result -> unit
val load_restruct : dir:string -> inputs:string -> Restruct.result option

val write_translate : dir:string -> inputs:string -> Translate.result -> unit
val translate_done : dir:string -> inputs:string -> bool
(** Whether a valid Translate marker exists. *)
