(** The extension-check engine descriptor.

    Every counting primitive the paper issues against the extension —
    [||r[X]||], [||r_k[A_k] ⋈ r_l[A_l]||], FD satisfaction, key checks —
    has exactly one implementation, over the table's memoized
    {!Column_store}, and runs sequentially. An {!t} value carries only
    what a run may vary around it: its resource {!budget}. It is pure
    data, so the type can sit at the bottom of the dependency stack. *)

type budget = {
  deadline_s : float option;  (** wall-clock budget for the whole run *)
  max_heap_words : int option;  (** [Gc.quick_stat].heap_words ceiling *)
  on_exhausted : [ `Partial | `Fail ];
      (** what a stage does when the budget trips: return a typed
          partial result with an explicit unverified suffix
          ([`Partial], the default), or raise a fatal
          [Error.Resource_exhausted] ([`Fail]) *)
}

type t = { budget : budget }

val make :
  ?deadline_s:float ->
  ?max_heap_words:int ->
  ?on_exhausted:[ `Partial | `Fail ] ->
  ?spill_dir:string ->
  ?resident_budget_words:int ->
  ?segment_rows:int ->
  unit ->
  t
(** Defaults: no deadline, no heap ceiling, [`Partial] — i.e.
    {!default}.

    The out-of-core parameters ([spill_dir], [resident_budget_words],
    [segment_rows]) are the front door to
    {!Ooc.configure}: they adjust the {e process-wide} segment policy
    (the budgeted resource — the heap — is process-wide, and segments
    from every store compete for it) rather than a field of the
    returned record, so job specs round-trip unchanged. Omitted
    parameters leave the current policy alone. *)

val supervisor : t -> Supervise.t
(** A fresh supervision token armed with the engine's budget —
    {!Supervise.unlimited} when no limit is set. Deadlines are anchored
    at this call, so mint one token per run. *)

val fail_on_exhausted : t -> bool
(** [budget.on_exhausted = `Fail]. *)

val default : t
(** No budget: the library-wide default. *)

val pp : Format.formatter -> t -> unit
(** ["unbudgeted"], or the set budget fields joined by ['/'] (e.g.
    ["deadline=2.5s/max-heap=4096w/fail-on-exhausted"]). *)

val to_string : t -> string
