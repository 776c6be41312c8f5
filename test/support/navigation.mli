(** The logical navigation graph of an application (§1, §6.1).

    The paper's thesis is that programmers encode the conceptual links of
    the application domain in the access paths their queries take. This
    module materializes that structure: an undirected multigraph whose
    nodes are relations and whose edges are the equi-joins observed in
    the program corpus, weighted by occurrence count. It supports the
    reporting an expert wants before arbitrating NEIs: which relations
    cluster together, which are never navigated, and which joins carry
    the traffic. *)

open Relational
open Sqlx

type edge = { join : Equijoin.t; count : int }

type t

val of_equijoins : (Equijoin.t * int) list -> t
(** Build from counted equi-joins (see {!Equijoin.of_corpus}). *)

val of_corpus : Schema.t -> string list -> t
(** Scan a corpus of SQL scripts and build the graph. *)

val relations : t -> string list
(** Nodes, sorted. Self-joins make a relation a node once. *)

val edges : t -> edge list
(** All edges, most-frequent first. *)

val neighbors : t -> string -> (string * int) list
(** Adjacent relations with the total join count toward each (self-join
    neighbors include the relation itself). *)

val degree : t -> string -> int
(** Total join occurrences touching the relation. *)

val components : t -> string list list
(** Connected components (each sorted; components sorted by size,
    largest first). These are the "islands" of the application domain. *)

val never_navigated : t -> Schema.t -> string list
(** Relations declared in the schema but absent from every equi-join —
    candidates for dead data or purely local lookup tables. *)

val pp : Format.formatter -> t -> unit
(** Edge list with counts, then components, deterministic. *)
