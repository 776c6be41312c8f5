(** Minimal RFC-4180-style CSV reader/writer used to load and dump
    database extensions.

    Quoting rules: a field containing a comma, a double quote, or a
    newline is written quoted; embedded quotes are doubled. Empty fields
    load as NULL when typed through a {!Domain.t}.

    Reading is built on one streaming chunk-fed scanner that emits
    each cell as a byte view into the input (or, for a cell with
    escapes or straddling a chunk, into its own scratch). The loaders
    type each cell in place and intern it into a {!Column_store} with
    one probe — no per-cell string, no per-row array, no tuple array:
    the store is the table's only copy of its rows
    ({!Table.of_store}).
    {!fold} and {!fold_reader} are the consumer that copies cells out
    into {!row}s.

    {!parse} raises [Error.Error] with a positioned message;
    {!parse_lenient} drops a torn row and reports it. The loaders
    never raise: they return a [result], and their [~mode] picks
    strict (the first problem is the [Error]) or quarantine (offending
    rows are dropped and reported). *)

type syntax_error = {
  se_row : int;  (** 0-based index among all rows, header included *)
  se_line : int;  (** 1-based line where the offending quote opened *)
  se_col : int;  (** 1-based column of the offending quote *)
  se_message : string;
}

type row = {
  index : int;  (** 0-based index among all rows, header included *)
  line : int;  (** 1-based source line the row starts on *)
  fields : string array;
}

val fold :
  ?supervise:Supervise.t ->
  f:('a -> row -> 'a) ->
  init:'a ->
  string ->
  'a * syntax_error list
(** Stream every complete row of a CSV document through [f], in order,
    without building a row list. The only possible syntax error in this
    grammar — a quote left open at EOF — comes back in the error list
    (at most one), with the torn row dropped. [supervise] is polled
    once per 4096 emitted rows; a trip raises [Supervise.Interrupt]. *)

val fold_reader :
  ?supervise:Supervise.t ->
  f:('a -> row -> 'a) ->
  init:'a ->
  (unit -> string option) ->
  'a * syntax_error list
(** Like {!fold}, but pulls input as chunks from a reader ([None] means
    EOF): the chunk-boundary test seam of the scanner. Chunk boundaries
    may fall anywhere, including inside quoted fields and [\r\n]
    pairs; row indices, lines and columns are identical to a
    single-string {!fold} of the concatenation. *)

val parse : string -> string list list
(** Parse a whole CSV document into rows of raw fields. Handles quoted
    fields with embedded separators, doubled quotes and [\r\n] line
    endings. A trailing newline does not produce an empty row.
    Raises [Error.Error] (code {!Error.Csv_syntax}) with the line/column
    of the opening quote on an unterminated quoted field. *)

val parse_lenient : string -> string list list * syntax_error list
(** Like {!parse} but never raises: a row torn by an unterminated quote
    is dropped and reported. *)

val render : string list list -> string
(** Inverse of {!parse} (up to quoting normalization). *)

val load :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?supervise:Supervise.t ->
  Relation.t ->
  string ->
  (Table.t * Quarantine.report option, Error.t) result
(** [load rel csv] builds a table for [rel] from CSV text. A tripped
    [supervise] token (polled per ingest chunk) comes back as [Error e]
    with code {!Error.Resource_exhausted}, never an exception. Every
    [Error e] is attributed to stage {!Error.Load}. With
    [~header:true] (default) the first row names the columns and they may
    appear in any order; without a header the columns must follow the
    declared attribute order. Fields are parsed through each attribute's
    declared domain ({!Domain.parse}); attributes with domain [Unknown]
    use {!Value.parse}.

    The result is columnar-native: its {!Column_store} is complete when
    [load] returns, and {!Table.rows} decodes tuples only when asked.

    [~mode:`Strict] (default) stops at the first problem: [Error e] with
    code {!Error.Csv_syntax}, {!Error.Unknown_column},
    {!Error.Missing_column}, {!Error.Csv_arity} or
    {!Error.Type_mismatch}; messages carry the 0-based data-row index and
    1-based source line. On success the report is [None].

    [~mode:`Quarantine] degrades gracefully and never fails: rows torn
    by a syntax error, rows of the wrong width, and rows with an
    ill-typed cell are dropped into the {!Quarantine.report} ([Some]
    only when something was actually quarantined); undeclared header
    columns are ignored and missing declared columns filled with NULL,
    each reported as a table-level entry. The surviving extension is
    what dependency discovery will run against. *)

val load_file :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?supervise:Supervise.t ->
  Relation.t ->
  string ->
  (Table.t * Quarantine.report option, Error.t) result
(** {!load} fed from a file path. The file streams through the scanner
    in fixed-size chunks and is never resident as a whole. Open and
    read failures come back as [Error e] with code {!Error.Io_error}
    (never an exception). *)

val load_from_reader :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?supervise:Supervise.t ->
  Relation.t ->
  (unit -> string option) ->
  (Table.t * Quarantine.report option, Error.t) result
(** {!load} fed from a chunk reader ([None] means EOF): the seam the
    chunk-boundary tests drive, running the same loader as {!load} and
    {!load_file}. Chunk boundaries may fall anywhere; the
    result is identical to {!load} of the concatenation. A [Sys_error]
    escaping the reader comes back as [Error e] with code
    {!Error.Io_error}. *)

val dump_table : ?header:bool -> Table.t -> string
(** Render a table's extension as CSV (header row by default). *)
