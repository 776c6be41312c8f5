(** Pretty-printers for every artifact of the method, in the paper's
    notation — used by the CLI, the examples, and the experiment
    harness. *)

open Relational
open Deps

val pp_k_set : Format.formatter -> Schema.t -> unit
(** [K = {Person.{id}, HEmployee.{date,no}, ...}]. *)

val pp_n_set : Format.formatter -> Schema.t -> unit

val pp_equijoins : Format.formatter -> Sqlx.Equijoin.t list -> unit

val pp_inds : Format.formatter -> Ind.t list -> unit
val pp_inds_annotated : Schema.t -> Format.formatter -> Ind.t list -> unit
(** Key right-hand sides are suffixed with [*] (the paper underlines). *)

val pp_fds : Format.formatter -> Fd.t list -> unit

val pp_qattrs : Format.formatter -> Attribute.t list -> unit
(** [{HEmployee.no, Department.emp, ...}]. *)

val pp_ind_steps : Format.formatter -> Ind_discovery.step list -> unit
(** Per-equi-join counting trace with the case taken. *)

val pp_rhs_steps : Format.formatter -> Rhs_discovery.step list -> unit

val pp_result : Format.formatter -> Pipeline.result -> unit
(** The full §5–§7 narrative: Q, IND (annotated), LHS, H, F, final H,
    restructured schema, RIC, EER and the expert trace; after Q, the
    skipped program fragments when there are any. *)

val markdown : ?title:string -> Pipeline.result -> string
(** The same narrative as a self-contained Markdown document: summary
    table, the skipped program fragments when there are any, per-step
    sections with tables for the elicited dependency sets, the
    restructured schema with normal forms, the RIC table (with
    redundancy analysis), the EER schema as a fenced block plus
    its Graphviz source, and the expert-decision log. Intended for
    re-engineering project documentation ([dbre analyze --markdown]). *)

val artifacts : Pipeline.result -> (string * string) list
(** The canonical artifact set, one deterministic rendering per name:
    [F] (elicited FDs), [H] (hidden attributes), [IND], [RIC] and
    [EER] (text rendering), plus [skipped] (one line per skipped
    program fragment) when Extract skipped any. The daemon persists and serves exactly
    these strings, and the byte-identity guarantees (serve vs one-shot,
    resume vs unbudgeted) are stated — and tested — over them. *)
