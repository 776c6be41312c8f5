(** One serializable description of a pipeline run.

    A {!t} gathers everything a run needs — the DDL text, one
    {!Relational.Source.t} per relation's extension, the workload the
    equi-joins come from and whether its dataflow is analyzed, the
    {!Engine.t} (including its resource budget), the oracle mode,
    leniency, and checkpoint options — into a single value with a
    pinned JSON encoding ({!to_string}). The one-shot CLI builds one
    from its flags ({!of_args}); the analysis daemon receives the
    identical JSON over its wire protocol; both hand it to {!Job.run}.
    Anything either front end can express, the other can replay byte
    for byte.

    {b Serialization limits.} Every spec serializes: every source shape
    is data, and {!Relational.Source.In_memory} tables travel as their
    CSV rendering (re-encoding is deterministic). The expert is its
    {!Oracle.mode}, data too: a scripted expert travels as an object.
    Only [Interactive] needs the terminal it runs on, so the daemon
    refuses it ([spec-invalid]). *)

open Relational

type workload =
  | Equijoins of Sqlx.Equijoin.t list  (** the paper's [Q], given directly *)
  | Programs of string list  (** embedded-SQL program texts *)
  | Sql_scripts of string list  (** plain SQL script texts *)

type t = {
  label : string option;  (** display name for logs and job listings *)
  ddl : string;  (** the DDL script text (not a path) *)
  sources : (string * Source.t) list;
      (** extension per relation name; relations without an entry run
          with an empty extension *)
  workload : workload;
  flow : bool;
      (** run the inter-statement dataflow analysis over the workload
          at Extract ({!Pipeline.config}'s [workload_flow]) *)
  engine : Engine.t;
  oracle : Oracle.mode;
  lenient : bool;  (** quarantine bad tuples instead of failing *)
  migrate_data : bool;
  checkpoint_dir : string option;
  resume : bool;  (** reuse fresh checkpoints in [checkpoint_dir] *)
  fuel : int option;
      (** deterministic supervision trip ({!Supervise.create}) — test
          and fault-harness hook, [None] in normal operation *)
}

val make :
  ?label:string ->
  ?sources:(string * Source.t) list ->
  ?flow:bool ->
  ?engine:Engine.t ->
  ?oracle:Oracle.mode ->
  ?lenient:bool ->
  ?migrate_data:bool ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?fuel:int ->
  ddl:string ->
  workload ->
  t
(** Defaults: no label, no sources, flow off, {!Engine.default},
    [Auto], strict, [migrate_data = true], no checkpointing, no fuel. *)

val of_database :
  ?label:string -> ?oracle:Oracle.mode -> Database.t -> workload -> t
(** A spec over an in-memory database: its schema as DDL
    ({!Sqlx.Ddl.create_table_sql}) and each relation's table as an
    {!Relational.Source.In_memory} source (adopted, not copied). *)

val of_args :
  ?label:string ->
  ddl:string ->
  ?data_dir:string ->
  ?programs_dir:string ->
  ?flow:bool ->
  ?oracle:string ->
  ?deadline:float ->
  ?max_heap_mb:int ->
  ?on_exhausted:string ->
  ?lenient:bool ->
  ?checkpoint_dir:string ->
  ?resume:bool ->
  ?migrate_data:bool ->
  ?fuel:int ->
  unit ->
  (t, string) result
(** Fold the CLI's per-run flags into a spec: [ddl] is a path (read
    here, so the spec is self-contained); [data_dir] contributes a
    [Csv_file] source per [<relation>.csv] present; [programs_dir]'s
    files (sorted by name) become a [Programs] workload; [deadline],
    [max_heap_mb] and [on_exhausted] make the engine's budget.
    String-typed flags use the CLI grammars: [oracle] as
    {!oracle_of_string}'s, [on_exhausted] as
    ["partial" | "fail"]. Errors are human-readable messages
    ([--resume] without [--checkpoint-dir], unreadable files,
    unparsable DDL). *)

val supervisor : t -> Supervise.t
(** A fresh supervision token for one run of this spec: the engine's
    budget plus the spec's [fuel]. Always a cancellable
    {!Supervise.create}d token (never {!Supervise.unlimited}), so a
    holder can {!Supervise.cancel} the run even when no limit is set —
    the daemon's [cancel] operation. Deadlines anchor at this call:
    mint one token per run. *)

val oracle_of_string : string -> (Oracle.mode, string) result
(** The CLI grammar of a mode: ["auto" | "skeptical" | "interactive" |
    "threshold:<r>"]. A script has no string form. *)

val oracle_to_json : Oracle.mode -> Json.t
(** The mode's CLI string (a threshold's ratio exact), or a [Scripted]
    mode's object of the script's lists ({!Oracle.script} field names;
    pairs are objects). Canonical: {!Checkpoint.inputs} digests it. *)


val version : int
(** Encoding version stamped into every document (currently 4; v4
    added the scripted oracle object). {!of_json} also accepts
    versions 3, 2 and 1; 2 and 1 have no ["flow"] field (they decode
    flow-off). Version 1's engine object carried
    ["check"] and ["cache"] fields, and engine objects of versions 1–3
    may carry ["domains"] (the IND batch's former domain count); all
    three are ignored, since the artifacts never depended on them, and
    {!to_json} emits none of them. Any other version is an [Error]. *)

val to_json : t -> Json.t
(** Deterministic encoding (field order fixed, version stamped). *)

val of_json : Json.t -> (t, string) result

val to_string : t -> string
(** Compact JSON text: [to_json] rendered by {!Json.to_string}. *)

val of_string : string -> (t, string) result

val equijoin_to_json : Sqlx.Equijoin.t -> Json.t
(** [{"rel1":..,"attrs1":[..],"rel2":..,"attrs2":[..]}] — the encoding
    of an [Equijoins] workload entry, shared by {!Checkpoint}. *)

val equijoin_of_json : Json.t -> (Sqlx.Equijoin.t, string) result

val describe : t -> string
(** One line for logs: label, source count, workload shape, engine. *)
