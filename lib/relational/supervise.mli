(** Cooperative cancellation, deadlines and heap budgets.

    A {!t} is a latched stop token threaded from [Pipeline.run_checked]
    down to the verification sweeps, CSV ingest chunks and discovery
    loops. Long passes {!poll} it at coarse boundaries (once per group,
    sweep or chunk); the first limit to trip is latched and every later
    poll returns the same {!reason}, so a run degrades at one
    well-defined group boundary instead of racing its own budget.

    {b Determinism contract.} {!poll}/{!check} must only be called from
    sequential driver code — stage loops and batch submission points.
    Pool tasks may read the latched verdict with {!tripped} (one atomic
    load, no limit evaluation) but never poll, so the sequence of
    evaluation points — and therefore the exact group boundary where a
    fuel-tripped run stops — is independent of the domain count. *)

type reason =
  | Cancelled  (** {!cancel} was called (or the fuel ran out) *)
  | Deadline of { limit_s : float; elapsed_s : float }
  | Heap of { limit_words : int; live_words : int }
      (** major-heap words ([Gc.quick_stat]) crossed the budget *)

exception Interrupt of reason
(** Raised by {!check}; stage boundaries catch it and return a typed
    partial result. *)

type t

val unlimited : t
(** The shared never-trips token: {!poll} is one branch, {!cancel} a
    no-op. Default everywhere a caller passes no token. *)

val create :
  ?deadline_s:float -> ?max_heap_words:int -> ?fuel:int -> unit -> t
(** A fresh token. [deadline_s] counts wall-clock seconds from this
    call. [max_heap_words] bounds [Gc.quick_stat].heap_words. [fuel]
    is the deterministic trip used by tests and the fault harness: the
    [fuel]-th {!poll} cancels the token ([fuel = 0] trips the first
    poll). Omitted limits are off; a token with no limits is still
    cancellable (unlike {!unlimited}). *)

val active : t -> bool
(** [false] only for {!unlimited} — callers may skip bookkeeping. *)

val cancel : t -> unit
(** Latch {!Cancelled} (first reason wins). Safe from any domain. *)

val tripped : t -> reason option
(** The latched verdict, without evaluating limits: one atomic load.
    This is the only read pool tasks may perform. *)

val poll : t -> reason option
(** Evaluate limits (fuel, then deadline, then heap), latch the first
    violation, and return the verdict. Sequential driver code only. *)

val check : t -> unit
(** {!poll}, raising {!Interrupt} on a tripped token. *)

val reason_message : reason -> string

val error_of : ?stage:Error.stage -> reason -> Error.t
(** The {!Error.t} ([Resource_exhausted], fatal) a [`Fail]-policy stage
    raises when the token trips. *)
