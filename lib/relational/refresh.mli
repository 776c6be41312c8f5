(** Coordinated refresh of a whole database's stores.

    Mutations ({!Database.insert}, {!Table.delete_rows}, …) apply to a
    table's store at once and keep its own memos exact as they go.
    What they set aside is the join counts, which span two stores:
    {!database} closes every relation's mutation window in one
    coordinated pass and patches those {e exactly} from the stores'
    added code tuples rather than dropping them — see
    {!Column_store.refresh_all}. A store whose window passed
    {!Column_store.delta_fraction} of its extension dropped its memos
    instead of patching them, and reports [Store_rebuilt].

    Refreshing is never required for correctness: a dropped join memo
    is recomputed on demand. The database-level pass exists so
    re-verification after mutation ([Pipeline.refresh_checked], the
    serve [refresh] request) keeps join memos alive, and so what the
    mutations cost the memos can be measured and reported. *)

type outcome = Column_store.refresh_outcome =
  | Store_fresh
  | Store_absorbed of int
  | Store_rebuilt

type report = {
  relations : (string * outcome) list;
      (** relations whose store holds or held a memo, in schema
          order; the others (never verified) are absent *)
  fresh : int;
  absorbed : int;  (** stores whose memos were patched *)
  rebuilt : int;
  rows_applied : int;  (** rows appended or deleted across those stores *)
}

val database : Database.t -> report
(** Close every relation's mutation window (see
    {!Column_store.refresh_all}). *)

val pp_outcome : Format.formatter -> outcome -> unit
val pp : Format.formatter -> report -> unit
val to_string : report -> string
