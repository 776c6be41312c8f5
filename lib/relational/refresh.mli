(** Coordinated delta refresh of a whole database's memoized stores.

    After a burst of mutations ({!Database.insert},
    {!Table.delete_rows}, …), {!database} replays every relation's
    mutation log into its stashed {!Column_store} in one coordinated
    pass: each store refreshes incrementally when the delta is within
    {!Column_store.delta_fraction} of its extension (full rebuild
    otherwise), and cross-store
    equi-join memos are patched {e exactly} from the refreshed stores'
    added-key summaries rather than dropped — see
    {!Column_store.refresh_all}.

    Refreshing is never required for correctness: a store handed out by
    [Column_store.of_table] always refreshes itself on demand. The
    database-level pass exists so re-verification after mutation
    ([Pipeline.refresh_checked], the serve [refresh] request) pays one
    coordinated delta pass up front — keeping join memos alive — and so
    the cost can be measured and reported. *)

type outcome = Column_store.refresh_outcome =
  | Store_fresh
  | Store_absorbed of int
  | Store_rebuilt

type report = {
  relations : (string * outcome) list;
      (** relations that had a stashed store, in schema order;
          store-less relations (never verified, or explicitly cleared)
          are absent *)
  fresh : int;
  absorbed : int;  (** stores refreshed incrementally *)
  rebuilt : int;
  rows_applied : int;  (** delta rows absorbed across all stores *)
}

val database : Database.t -> report
(** Refresh every relation's stashed store (see
    {!Column_store.refresh_all}). *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp : Format.formatter -> report -> unit
val to_string : report -> string
