(** Workload rules ([L1xx]) over parsed (embedded) SQL.

    The checks resolve column references through {!Sqlx.Scope.resolve},
    the resolver of equi-join elicitation ({!Sqlx.Equijoin}), so every
    reference that elicitation would silently skip gets a diagnostic
    explaining why. The environment is the schema plus the views the
    earlier statements of the same script or program define: a view is
    a known FROM name, and its columns resolve as {!Sqlx.Dataflow}
    resolves them. L105 and L107 read the statement's one elicitation
    walk ({!Sqlx.Equijoin.pairs}).

    - [L101] (error) — FROM references a table the dictionary does not
      know and no earlier statement defines as a view.

    - [L102] (error) — column reference resolves to no relation in scope
      (unknown qualifier, attribute missing from the qualified relation,
      or unqualified attribute found nowhere). Suppressed when an
      unknown table is in scope (the column may well belong to it).
    - [L103] (warning) — unqualified column is ambiguous: several FROM
      entries provide the attribute, so elicitation drops the predicate.
    - [L104] (warning/info) — duplicate alias inside one FROM (warning);
      alias shadowing an enclosing scope's entry (info).
    - [L105] (warning) — equi-join between attributes of incompatible
      declared domains (an [Int] joined to a [Date] is evidence against
      the elicited dependency, not for it).
    - [L106] (warning) — cartesian product: a multi-relation FROM whose
      entries are not all connected by equality predicates (connectivity
      counts correlated equalities through subqueries).
    - [L107] (info) — the statement navigates several relations but
      contributes no equi-join to the paper's set [Q].
    - [L108] (warning) — an embedded-SQL fragment that was found but
      does not parse, located in the host program.

    The dataflow rules run over a whole program's ordered statements
    ({!Sqlx.Dataflow}); host variables never defined by any SQL
    statement are assumed host-language state and stay silent:

    - [L109] (warning) — a host variable is used before the SQL
      statement that defines it.
    - [L110] (warning) — a host variable is written ([SELECT … INTO] /
      [FETCH]) but never read by a later SQL statement (dead write).
    - [L111] (warning) — a def-use chain carries a value between
      attributes of incompatible declared domains.
    - [L112] (warning) — a cursor is opened but never fetched. *)

open Relational

val check_script :
  ?source_name:string -> Schema.t -> string -> Diagnostic.t list
(** Parse a plain SQL script and check each statement; a parse failure
    yields a single [L108] diagnostic. *)

val check_program :
  ?source_name:string -> Schema.t -> string -> Diagnostic.t list
(** Scan a host program for embedded SQL ({!Sqlx.Embedded}), report
    unparseable fragments as [L108] with host-program spans, and check
    every parsed statement (whose AST spans are host-based too). *)
