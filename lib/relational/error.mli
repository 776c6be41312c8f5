(** Typed errors for the whole DBRE pipeline.

    The paper targets {e legacy} databases: dirty extensions, incomplete
    dictionaries, half-parsable programs. Every failure the system can
    attribute to its input is represented by a structured {!t} — carrying
    an error code, the pipeline stage, the offending relation/attribute
    and a severity — instead of a bare [Failure] string, so callers can
    degrade gracefully (quarantine a tuple, return a partial pipeline
    result) rather than abort.

    This module lives in [relational] so the data layer can raise typed
    errors; the pipeline layers raise the same type. *)

type stage =
  | Load  (** CSV/DDL ingestion *)
  | Extract  (** program scanning / equi-join extraction *)
  | Ind_discovery
  | Lhs_discovery
  | Rhs_discovery
  | Restruct
  | Translate

type code =
  | Csv_syntax  (** malformed CSV text (e.g. unterminated quote) *)
  | Csv_arity  (** row width differs from the header/schema *)
  | Unknown_column  (** CSV header names an undeclared attribute *)
  | Missing_column  (** CSV header misses a declared attribute *)
  | Type_mismatch  (** a cell does not parse in its declared domain *)
  | Sql_parse  (** malformed SQL in a DDL script or program *)
  | Unknown_relation  (** statement references an undeclared relation *)
  | Oracle_failure  (** the expert-user callback failed *)
  | Io_error
  | Checkpoint_corrupt  (** unreadable/mismatched checkpoint artifact *)
  | Resource_exhausted
      (** a supervision budget tripped (deadline, heap, cancellation)
          under the [`Fail] policy — see {!Supervise} *)
  | Invariant  (** internal invariant violation — a bug, not bad input *)
  | Unclassified  (** wrapped foreign exception *)

type severity =
  | Fatal  (** the surrounding computation cannot proceed *)
  | Recoverable  (** a lenient caller may quarantine and continue *)

type t = {
  code : code;
  severity : severity;
  stage : stage option;  (** filled in by the pipeline stage runner *)
  relation : string option;
  attribute : string option;
  message : string;
}

exception Error of t

val make :
  ?stage:stage ->
  ?relation:string ->
  ?attribute:string ->
  ?severity:severity ->
  code ->
  string ->
  t
(** [severity] defaults to [Fatal]. *)

val raise_ :
  ?stage:stage ->
  ?relation:string ->
  ?attribute:string ->
  ?severity:severity ->
  code ->
  string ->
  'a

val raisef :
  ?stage:stage ->
  ?relation:string ->
  ?attribute:string ->
  ?severity:severity ->
  code ->
  ('a, unit, string, 'b) format4 ->
  'a
(** [raise_] with a format string. *)

val invariant : string -> 'a
(** Raise a [Fatal] {!Invariant} error — for states user input cannot
    legally produce. *)

val at_stage : stage -> t -> t
(** Attribute the error to a stage unless already attributed. *)

val of_exn : stage -> exn -> t
(** Classify an arbitrary exception caught at a stage boundary:
    {!Error} payloads pass through (stage filled in), [Failure] maps to
    {!Unclassified}, [Invalid_argument] to {!Invariant}, [Not_found] to
    {!Unknown_relation}, [Sys_error] to {!Io_error}. *)

val stage_to_string : stage -> string
val code_to_string : code -> string
val severity_to_string : severity -> string
val to_string : t -> string
val pp : Format.formatter -> t -> unit
