(** Deterministic splittable PRNG (SplitMix64).

    All generators in this library take explicit state so that every
    workload is reproducible from its seed, independently of the global
    [Random] state and of evaluation order. *)

type t

val create : int64 -> t
(** Seeded generator. *)

val split : t -> t
(** An independent stream derived from (and advancing) the parent. *)

val int : t -> int -> int
(** [int t bound] — uniform in [\[0, bound)]. Raises [Invalid_argument]
    when [bound ≤ 0]. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] — uniform in [\[lo, hi\]] inclusive. *)

val float : t -> float -> float
(** Uniform in [\[0, bound)]. *)

val bool : t -> bool
val chance : t -> float -> bool
(** [chance t p] is true with probability [p]. *)

val pick : t -> 'a list -> 'a
(** Uniform element; raises [Invalid_argument] on an empty list. *)

val shuffle : t -> 'a list -> 'a list
(** Fisher–Yates. *)

val sample : t -> int -> 'a list -> 'a list
(** [sample t k l] — [k] distinct elements of [l] (all of [l] when
    [k ≥ length l]), order randomized. *)
