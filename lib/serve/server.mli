(** The analysis daemon: [dbre serve].

    A {!t} listens on a Unix-domain socket, speaks the {!Protocol}
    wire format, and runs submitted {!Dbre.Job_spec.t} jobs on
    [max_jobs] worker domains, so on a multi-core host that many jobs
    run in parallel. The acceptor and the per-connection handlers are
    sys-threads of the calling domain. Each job runs under its own
    supervision token ({!Dbre.Job_spec.supervisor}), so [cancel] trips
    exactly one job's budget; a job itself runs sequentially on its
    worker domain.

    {b What jobs share.} Two jobs on two domains share only
    domain-safe state: the out-of-core manager ({!Relational.Ooc}: a
    mutex plus a lock-free graveyard for finalized segments), the
    column-store and [Ooc] counters (atomics), and the read-only SQL
    keyword table. Supervision tokens are atomics, one per job. A
    job's own entry — state, events, error, artifacts — is written
    under the daemon's lock, in the same locked section as its
    settlement, and every handler reads it under that lock. The one
    unlocked read is [status]'s per-store residency
    of a running job's database, which counts segments while the worker
    may still be sealing or spilling them: the counts are a snapshot,
    never a crash.

    {b Artifacts.} A finished job's artifacts are exactly
    {!Dbre.Report.artifacts} of the {!Dbre.Job.run} result — the same
    function the one-shot CLI renders from — so serve-mode output is
    byte-identical to a local run of the same spec by construction.

    {b Mutation and refresh.} A settled job's loaded database is
    retained in memory: [mutate] appends/deletes rows in a named
    relation (applied to its column store at once), and [refresh]
    re-verifies the job against the mutated extension — one
    coordinated pass over the column stores
    ({!Dbre.Refresh.database}), checkpoint invalidation, then the
    verification stages re-run, synchronously in the requesting
    connection's handler. The refreshed artifacts are byte-identical
    to resubmitting the job over the mutated data; [status] reports
    the delta-cache statistics behind them. Jobs adopted from a
    previous process hold no database and reject both requests.

    {b Crash recovery.} With a [state_dir], every job's spec and
    status are persisted (atomic rename), the job runs with a
    per-job checkpoint directory inside the state dir, and a finished
    job's artifacts are written there too. A daemon restarted over the
    same [state_dir] re-adopts settled jobs (status and artifacts
    queryable) and re-enqueues jobs that were queued or running when
    the previous daemon died; re-run stages restore from their
    checkpoints ({!Dbre.Pipeline.run_checked}'s resume contract), so
    the artifacts equal an uninterrupted run's, byte for byte.

    The per-job event log (loading, per-stage progress, [L207]
    diagnostics, settlement) is kept in memory and served by
    [events]/[watch]; it is not persisted — a restarted daemon serves
    a settled job's artifacts, not its history. *)

type t

val max_jobs_cap : int
(** The ceiling (16) on [max_jobs], shared by {!create} and the CLI's
    [--max-jobs] parser: a worker domain per job past that many buys
    only GC-barrier contention on the memory-bound stages. *)

val create :
  ?max_jobs:int -> ?state_dir:string -> socket:string -> unit -> t
(** [max_jobs] (default 2) is the number of jobs in flight, one worker
    domain each; [max_jobs = 0] accepts and persists submissions without
    running them (drained by a restart — also how tests stage a "crashed
    mid-queue" daemon). [state_dir] is created if missing and scanned
    for jobs a previous daemon left behind. Nothing is bound or spawned
    until {!start}.

    @raise Invalid_argument if [max_jobs] is negative or above
    {!max_jobs_cap}. *)

val start : t -> unit
(** Bind the socket (an existing file at the path is replaced), spawn
    the acceptor thread and the [max_jobs] worker domains, and return.
    Re-enqueued jobs from the state dir start running immediately. *)

val stop : t -> unit
(** Stop accepting connections and new work, wait for running jobs to
    settle, close the socket and join every thread and worker domain.
    Queued jobs stay
    queued in the state dir (a later daemon picks them up); without a
    state dir they are lost. Idempotent. *)

val run : t -> unit
(** {!start} then block until a [shutdown] request (or {!stop} from
    another thread) — the CLI entry point. *)

val socket : t -> string
