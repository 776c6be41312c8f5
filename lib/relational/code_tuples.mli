(** A dense-id table of fixed-width tuples of dictionary codes.

    The column store's distinct code tuples, its FD sweeps' LHS groups
    and the refresh pass's "added since" test all key tuples of codes;
    this is the one table they share. Each new tuple takes the next id,
    so ids run [0 .. length-1] in first-insertion order, and the tuples
    a table gained since it held [n] are exactly the ids [>= n].

    Tuples live in one flat int plane; the lookup slots hold a hash and
    an id, and a hash hit is confirmed against the plane, the way
    {!Dict} keeps its string side. Nothing is ever removed. *)

type t

val create : ?hash:(int array -> int) -> int -> t
(** [create width] is an empty table of [width]-code tuples ([width]
    may be 0: the one empty tuple), which grows as tuples come. [hash]
    only places tuples — equality is always read from the plane — so
    any function is correct; a constant one forces every tuple into one
    probe chain (a test hook). *)

val length : t -> int
(** Tuples held, which is also the id the next new tuple takes. *)

val add : t -> int array -> int
(** The id of the tuple [k.(0 .. width-1)], added with the next id when
    absent. [k] is copied, so callers may reuse it. *)

val find : t -> int array -> int
(** The id of the tuple, or [-1] when absent. *)

val read : t -> int -> int array -> unit
(** [read t id k] writes tuple [id] to [k.(0 .. width-1)]. *)
