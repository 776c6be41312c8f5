(** Per-table quarantine reports for lenient loading.

    When a caller opts into graceful degradation ([`Quarantine] instead
    of [`Fail]), ill-formed or ill-typed tuples are dropped from the
    extension and recorded here, so dependency discovery can annotate
    which INDs/FDs were tested against a reduced extension. *)

type entry = {
  row : int option;
      (** 0-based data-row index, or [None] for table-level problems
          (e.g. a missing or undeclared column). *)
  error : Error.t;
}

type report = {
  relation : string;
  total_rows : int;  (** data rows present in the input *)
  kept : int;  (** rows that survived into the extension *)
  entries : entry list;
}

val count : report -> int
(** Number of quarantine entries. *)

val is_empty : report -> bool

val pp : Format.formatter -> report -> unit
val to_string : report -> string
