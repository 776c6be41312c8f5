(** Embedded-SQL scanner over host-language application programs.

    Legacy programs (the paper's set [P]: forms, reports, batch files)
    carry their data-manipulation statements either in [EXEC SQL …]
    blocks (COBOL: terminated by [END-EXEC]; C/PLI: terminated by [;])
    or as string literals handed to a dynamic-SQL API. This scanner
    recovers both, parses them, and returns the fragments that do not
    parse beside the statements (legacy sources are full of dialect
    noise — a real extractor must survive them, and say what it
    skipped).

    Every fragment keeps its exact host coordinates, so the parsed AST
    carries spans in host-program coordinates: a diagnostic about an
    embedded query points into the original source file. [EXEC SQL]
    blocks map by a single offset shift; merged multi-literal dynamic-SQL
    strings carry a per-character offset map (quote doubling and literal
    boundaries make the mapping non-affine), so positions past the first
    piece are exact too. *)

type extraction = {
  statements : Ast.statement list;  (** successfully parsed statements *)
  raw_found : int;  (** candidate fragments found before parsing *)
  failures : (string * Span.t) list;
      (** the fragments that failed to parse, in fragment order, with
          their host-program spans *)
}

val scan : string -> extraction
(** Scan one host-program source text. The candidate SQL fragments are
    [EXEC SQL] blocks first (document order), then SQL-looking string
    literals (double- or single-quoted text starting with
    SELECT/INSERT/UPDATE/DELETE/CREATE/ALTER/DECLARE, case-insensitive;
    blocks additionally accept the cursor protocol OPEN/FETCH/CLOSE).
    [DECLARE c CURSOR FOR ...] is kept whole and parsed natively
    ({!Ast.statement.Declare_cursor}). Host-variable markers are
    preserved (the SQL lexer understands [:var]). Adjacent string
    literals separated only by whitespace or [+]/[&] concatenation
    operators are joined, covering multi-line dynamic SQL. Each
    fragment is parsed on its own. *)

val first_line : string -> string
(** A fragment's first line, trimmed: how diagnostics and reports name
    a skipped fragment. *)
