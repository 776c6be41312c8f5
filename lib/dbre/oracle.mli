(** The expert user (§1, §6).

    The paper's method is interactive: a human validates presumptions at
    fixed choice points. This module reifies those choice points as a
    record of callbacks built from a {!mode}, so an "expert" can be a
    script (reproducing a paper run exactly), a policy (thresholds over
    the observed counts), a constant (fully automatic runs for
    benchmarks), or an actual human on stdin. A tracing wrapper records
    every decision. *)

open Relational
open Deps

type nei_context = {
  join : Sqlx.Equijoin.t;  (** the equi-join being processed *)
  counts : Ind.counts;  (** [N_k], [N_l], [N_kl] measured on the extension *)
}
(** What the expert sees when IND-Discovery finds a non-empty
    intersection that is neither projection (§6.1 cases (iv)–(vii)). *)

type nei_decision =
  | Conceptualize of string
      (** create relation [name(A)] for the intersection — case (iv) *)
  | Force_left_in_right  (** case (vi): [R_k[A_k] ≪ R_l[A_l]] *)
  | Force_right_in_left  (** case (v) *)
  | Ignore_nei  (** case (vii) *)

type script = {
  nei_choices : (string * nei_decision) list;
      (** keyed by [Equijoin.to_string] *)
  fd_rejections : string list;  (** [Fd.to_string] of FDs to refuse *)
  fd_enforcements : (string * string) list;
      (** [(rel, attr)] pairs to enforce despite dirty data *)
  hidden_accepted : string list;
      (** [Attribute.to_string] of candidates to conceptualize; others
          are refused *)
  hidden_names : (string * string) list;
      (** [Attribute.to_string → relation name] *)
  fd_names : (string * string) list;  (** [Fd.to_string → relation name] *)
}

(** The one way to name a run's expert: data, so a {!Job_spec.t}
    serializes it and a checkpoint binds it. *)
type mode =
  | Auto
      (** fully non-interactive: NEIs ignored, data-backed FDs
          accepted, dirty FDs never enforced, hidden objects always
          conceptualized, derived names ([Rel_attr] style) *)
  | Skeptical
      (** like [Auto] but refuses hidden objects — the most
          conservative expert; a lower-bound baseline *)
  | Threshold of float
      (** policy expert: on an NEI, if [N_kl / min N_k N_l ≥ ratio]
          treat the extension as corrupted and force the smaller side
          into the larger ((v)/(vi), ties force left), otherwise ignore;
          everything else as [Auto] *)
  | Scripted of script
      (** unscripted decisions: ignore NEI, accept FD, don't enforce,
          refuse hidden objects, derived names *)
  | Interactive  (** prompt on stdin/stdout ({!interactive}) *)

type t = {
  mode : mode;
      (** what a checkpoint binds; [{ o with ... }] keeps [o]'s, so only
          wrappers that keep every decision should derive one *)
  on_nei : nei_context -> nei_decision;
  validate_fd : Fd.t -> bool;
      (** §6.2.2 (iii): accept an FD found in the data? *)
  enforce_fd : rel:string -> lhs:string list -> attr:string -> bool;
      (** §6.2.2 (ii): enforce [lhs -> attr] although the (possibly
          corrupted) extension violates it? *)
  conceptualize_hidden : Attribute.t -> bool;
      (** §6.2.2 (iv): conceptualize a candidate with empty RHS as a
          hidden object? *)
  name_hidden : Attribute.t -> string;
      (** §7: name for the relation materializing a hidden object. *)
  name_fd_relation : Fd.t -> string;
      (** §7: name for the relation carrying a split-off FD. *)
}

val of_mode : mode -> t
(** The expert a mode denotes. *)

val automatic : t
(** [of_mode Auto]. *)

val interactive : ?in_channel:in_channel -> ?out_channel:out_channel -> unit -> t
(** [of_mode Interactive] on the given channels (defaults:
    stdin/stdout). Unparsable answers re-prompt once, then fall back to
    the [Auto] behaviour. *)

(** {2 Decision traces} *)

type event =
  | Nei_decided of nei_context * nei_decision
  | Fd_validated of Fd.t * bool
  | Fd_enforced of string * string list * string * bool
  | Hidden_considered of Attribute.t * bool

val pp_event : Format.formatter -> event -> unit

val traced : t -> t * (unit -> event list)
(** [traced oracle] wraps every callback to record its decision (the
    mode is kept); the second component returns the events observed so
    far (oldest first). *)

val default_hidden_name : Attribute.t -> string
(** The derived-name scheme used by non-scripted oracles:
    ["Hemployee_no"] style (capitalized, attribute-joined). *)

val default_fd_name : Fd.t -> string
