(** Persistent worker-domain pool with bag-of-tasks scheduling.

    Replaces the spawn-per-call parallelism of the PR 2 IND warm-up:
    workers are spawned once, parked between batches, and claim task
    indices from a shared atomic counter — dynamic load balancing
    without per-task locks. A pool of size 1 (or a 1-task batch) runs
    everything on the caller, in index order, with no domains involved:
    the sequential fallback single-core hosts degrade to.

    {b Determinism contract.} Tasks are identified by index and results
    land by index, so batch output order never depends on the domain
    count or the interleaving. Tasks must only write state owned by
    their own index.

    {b One batch tier.} {!parallel_for} is the hot verify path:
    trusted, finite tasks, no per-task fencing beyond one atomic read
    of the batch's {!Supervise.t}.

    Batches may be submitted from several sys-threads or domains at
    once (the analysis daemon's worker domains share the registry
    pools): an internal lock serializes whole batches, so submitters
    queue and each batch runs exactly as if it were the only one. Nested
    submission from inside a task deadlocks and is not supported. *)

type t

val create : int -> t
(** [create n] spawns [max 1 n - 1] worker domains ([create 1] spawns
    none). *)

val get : int -> t
(** The process-wide shared pool of the given size — spawned on first
    request, reused by every later [get] of the same size, and joined
    at process exit. This is what {!Engine.pool} hands out, so every
    pipeline stage of every engine with the same domain count shares
    one set of workers. *)

val size : t -> int
(** Total parallelism: worker domains plus the submitting caller. *)

val parallel_for : ?supervise:Supervise.t -> t -> int -> (int -> unit) -> unit
(** [parallel_for t n f] runs [f 0 .. f (n-1)] across the pool and
    returns when all have finished. The first task exception (if any)
    is re-raised in the caller after the batch drains. When
    [supervise]'s latched verdict trips mid-batch, the remaining tasks
    are drained without running and [Supervise.Interrupt] is raised —
    the batch never evaluates limits itself (tasks are trusted to be
    finite), it only honors a verdict latched elsewhere. *)

val batches : t -> int
(** Batches served so far (observability for tests and bench logs). *)

val shutdown : t -> unit
(** Stop and join the workers. Idempotent: a second call is a no-op.
    A worker that is mid-task finishes that task first. Registry pools
    are shut down automatically at exit; call this only on pools you
    {!create}d. *)
