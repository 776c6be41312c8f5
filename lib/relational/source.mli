(** First-class extension sources.

    The paper assumes the extension [E] is simply given; in practice it
    arrives as CSV files or as tables already in memory. A {!t} says
    where one relation's extension comes from, so the pipeline, the CLI
    and the analysis daemon all load through one seam ({!load}) instead
    of each hard-coding CSV files.

    Three shapes, each of them data (so a {!Dbre.Job_spec} holding
    them always serializes):
    - {!Csv_file} — a path, loaded by the chunked streaming
      {!Csv.load_file} (never whole-file resident);
    - {!Csv_inline} — CSV text already in memory, loaded by {!Csv.load}
      (this is also how in-memory extensions travel over the daemon's
      wire protocol);
    - {!In_memory} — an already-built {!Table.t} (dictionary-encoded
      {!Column_store} and all), adopted as-is after a schema check.

    Loading honors the same [mode]/[supervise] controls as the
    CSV loaders, so every budget and quarantine behavior of the
    one-shot path applies to every source shape. *)

type t =
  | Csv_file of string  (** path to a CSV document *)
  | Csv_inline of string  (** CSV text *)
  | In_memory of Table.t  (** an extension already in columnar form *)

val csv_file : string -> t
val csv_inline : string -> t
val in_memory : Table.t -> t

val describe : t -> string
(** ["csv-file:<path>"], ["csv-inline:<bytes>b"], ["in-memory:<rel>"]. *)

val load :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?supervise:Supervise.t ->
  Relation.t ->
  t ->
  (Table.t * Quarantine.report option, Error.t) result
(** Load [rel]'s extension from the source. CSV shapes behave exactly
    like the {!Csv} loaders they delegate to. [In_memory] checks that
    the table's relation agrees with [rel] — same name, attributes in
    order, domains, uniques and not-null set ({!Relation.not_null_attrs},
    the paper's [N], so a key's implied NOT NULL matches a declared
    one) — and returns it unchanged; otherwise code
    {!Error.Type_mismatch}, with the {!disagreement} as its message. So
    an adopted extension can never silently replace the keys,
    not-nulls or domains the dictionary declared. *)

val disagreement : Relation.t -> Table.t -> string option
(** What the table's relation declares otherwise than [rel] (see
    {!load}): [None] when they agree, else a message naming the
    differing name and attributes, or the differing domains, uniques
    and not-nulls. *)
