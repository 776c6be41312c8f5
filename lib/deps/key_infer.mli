(** Candidate-key discovery from data.

    The paper assumes [K] can be read from the data dictionary (§4), but
    many legacy systems predate [UNIQUE] declarations. This module
    recovers the {e candidate} keys of a relation from its extension so
    an expert can confirm them before the pipeline runs: a levelwise
    search for minimal attribute sets whose (NULL-free) projection is
    duplicate-free, with superset pruning.

    A data-derived key is only a presumption — the extension is one
    witness, not a proof — which is why the result feeds an expert, not
    the algorithms directly. *)

open Relational

type stats = { sets_tested : int; keys_found : int }

val unique_over : Table.t -> string list -> bool
(** SQL UNIQUE over the extension, answered from the memoized column
    store — repeated probes of the same levelwise search share
    dictionaries and witness counts. *)

val minimal_unique_sets : ?max_size:int -> Table.t -> string list list * stats
(** All minimal attribute sets (size ≤ [max_size], default 3) that are
    unique over the extension, in SQL semantics: rows with a NULL in the
    set are skipped by the uniqueness check, but a set whose projection
    is NULL in {e every} row is not reported. Sets are canonical; the
    result is sorted by size then lexicographically. An empty table has
    no keys. Supersets of a found key are pruned, not tested. *)

val suggest : ?max_size:int -> Database.t -> (string * string list list) list
(** Per relation of the database, the discovered minimal unique sets —
    only for relations with {e no} declared unique constraint (declared
    keys need no suggestion). *)

val apply_suggestions :
  ?max_size:int ->
  confirm:(string -> string list -> bool) ->
  Database.t ->
  int
(** For each suggestion accepted by [confirm rel attrs], declare the
    unique constraint on the relation (in place). Returns the number of
    constraints added. This is the expert-confirmed preamble for
    databases whose dictionary lacks key declarations. *)
