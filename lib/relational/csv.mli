(** Minimal RFC-4180-style CSV reader/writer used to load and dump
    database extensions.

    Quoting rules: a field containing a comma, a double quote, or a
    newline is written quoted; embedded quotes are doubled. Empty fields
    load as NULL when typed through a {!Domain.t}.

    Reading is built on a streaming chunk-fed scanner ({!fold},
    {!fold_reader}): fields are sliced straight out of the input
    buffer, and the loaders type and dictionary-encode rows directly
    into a {!Column_store} as they stream past — no intermediate
    [string list list] and no eager tuple array (rows materialize
    lazily, see {!Table.create_deferred}).

    Every entry point comes in two flavors: strict (raises
    [Error.Error] with a positioned message) and lenient (drops the
    offending row and reports it, for quarantine-mode loading). *)

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
    EOF). Chunk boundaries may fall anywhere, including inside quoted
    fields and [\r\n] pairs; row indices, lines and columns are
    identical to a single-string {!fold} of the concatenation. *)

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
  ?pool:Domain_pool.t ->
  ?supervise:Supervise.t ->
  ?min_parallel_bytes:int ->
  Relation.t ->
  string ->
  (Table.t * Quarantine.report option, Error.t) result
(** [load rel csv] builds a table for [rel] from CSV text. A tripped
    [supervise] token (polled per ingest chunk) comes back as [Error e]
    with code {!Error.Resource_exhausted}, never an exception. With
    [~header:true] (default) the first row names the columns and they may
    appear in any order; without a header the columns must follow the
    declared attribute order. Fields are parsed through each attribute's
    declared domain ({!Domain.parse}); attributes with domain [Unknown]
    use {!Value.parse}.

    The result is columnar-native: its memoized {!Column_store} is fully
    encoded when [load] returns, and tuples materialize only if
    {!Table.rows} is ever demanded.

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
    what dependency discovery will run against.

    With [~pool] (and at least [~min_parallel_bytes] of input, default
    64 KiB), the document is split at row boundaries and chunks are
    parsed, typed and dictionary-encoded concurrently with chunk-local
    dictionaries, merged afterwards by a code-remap sweep in input
    order. Errors, report contents and dictionaries are identical at
    every domain count; a pool of size 1 is the sequential path. *)

val load_file :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?pool:Domain_pool.t ->
  ?supervise:Supervise.t ->
  ?min_parallel_bytes:int ->
  Relation.t ->
  string ->
  (Table.t * Quarantine.report option, Error.t) result
(** {!load} fed from a file path. Without a pool the file streams
    through the scanner in fixed-size chunks and is never resident as a
    whole; with a pool it is read fully, then chunk-split. Open and
    read failures come back as [Error e] with code {!Error.Io_error}
    (never an exception). *)

val load_from_reader :
  ?header:bool ->
  ?mode:[ `Strict | `Quarantine ] ->
  ?supervise:Supervise.t ->
  Relation.t ->
  (unit -> string option) ->
  (Table.t * Quarantine.report option, Error.t) result
(** {!load} fed from a chunk reader ([None] means EOF) — the streaming
    back end of {!Source.Reader} extensions, where a live database
    cursor plugs in. Chunk boundaries may fall anywhere; the result is
    identical to {!load} of the concatenation. Always sequential (a
    reader has no random access to split on). A [Sys_error] escaping
    the reader comes back as [Error e] with code {!Error.Io_error}. *)

val dump_table : ?header:bool -> Table.t -> string
(** Render a table's extension as CSV (header row by default). *)
