(** Lint diagnostics.

    A diagnostic carries a stable rule code (["L001"], ["L105"], …), a
    severity, a message, and a source span ({!Sqlx.Span.dummy} when the
    finding has no textual anchor, e.g. a verification rule over pipeline
    artifacts). Rendering is either machine-readable JSON or the classic
    human compiler format [name:line:col: severity[CODE]: message] with a
    source excerpt and caret line.

    Rule code families:
    - [L0xx] — schema/dictionary rules ({!Rules_schema});
    - [L1xx] — workload rules over embedded SQL ({!Rules_workload});
    - [L2xx] — verification rules over pipeline artifacts
      ({!Rules_verify}). *)

type severity = Info | Warning | Error

val severity_to_string : severity -> string
val severity_of_string : string -> severity option

val severity_rank : severity -> int
(** [Info] 0, [Warning] 1, [Error] 2. *)

type t = {
  code : string;  (** stable rule code, e.g. ["L101"] *)
  severity : severity;
  message : string;
  span : Sqlx.Span.t;
  source_name : string option;  (** which schema script / program *)
}

val make :
  ?span:Sqlx.Span.t -> ?source_name:string -> code:string -> severity -> string -> t
(** [span] defaults to {!Sqlx.Span.dummy}. *)

val compare : t -> t -> int
(** Orders by source name, then span offset, then code, then message —
    the stable report order. *)

val max_severity : t list -> severity option
(** The worst severity present; [None] on an empty list. *)

val count : severity -> t list -> int

val header : t -> string
(** One-line rendering without excerpt:
    [name:line:col: severity[CODE]: message] (location pieces omitted
    when unknown). *)

val render : ?source:string -> t -> string list
(** {!header} plus, when [source] is given and the span lies inside it,
    the indented two-line excerpt of {!Sqlx.Span.excerpt}. *)

val to_json : t -> string
(** One JSON object:
    [{"code":…,"severity":…,"message":…,"source":…,"span":{…}|null}]. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects, one per line. *)
