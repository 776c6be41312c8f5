(** Tuples: fixed-width arrays of values, positionally indexed by the
    owning relation's declared attribute order. *)

type t = Value.t array

val of_list : Value.t list -> t
val to_list : t -> Value.t list

val project : int array -> t -> t
(** [project idx tup] picks the components at positions [idx], in order. *)

val project_list : int array -> t -> Value.t list
(** Like {!project} but returns a list (convenient as a hash-table key). *)

val has_null_at : int array -> t -> bool
(** True when any of the given positions holds [Null]. *)

val pp : Format.formatter -> t -> unit
(** Renders as [(v1, v2, ...)]. *)
