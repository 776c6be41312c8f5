(** Rewriting legacy queries onto the restructured schema.

    Restruct moves attributes: an FD split [R : A -> B] relocates the [B]
    attributes into a new relation [R_p(A, B)]. Legacy application
    queries that read a moved attribute (e.g.
    [SELECT skill FROM Department]) no longer parse against the new
    schema. This module rewrites them: every FROM entry of a relation
    that lost attributes which the query still references is augmented
    with a join to the split-off relation through the FD's left-hand
    side, and the moved column references are requalified.

    The rewrite preserves answers: for a query whose results do not
    depend on duplicate multiplicities introduced by the extra join (the
    join is along [R.A ≪ R_p.A] with [A] a key of [R_p], so each source
    row matches at most one [R_p] row and multiplicities are in fact
    preserved; rows with a NULL [A] lose their — all-NULL — [B]
    values, matching SQL join semantics on the migrated data). The
    equivalence is exercised on the §5 example and the scenarios in
    [test/test_rewrite.ml]. *)

type plan
(** What Restruct did to the schema, precomputed for rewriting. *)

val plan : Pipeline.result -> plan
(** Build the rewrite plan from a pipeline result: one entry per FD
    split — source relation, moved attributes, target relation, join
    attributes. Hidden-object and NEI relations need no rewriting
    (no attribute left its relation). *)

val query : plan -> Sqlx.Ast.query -> Sqlx.Ast.query
(** Rewrite a query. Queries that touch no moved attribute are returned
    unchanged (structurally). Subqueries are rewritten recursively;
    columns resolve through {!Sqlx.Scope} over the enclosing frames, so
    a subquery's reference to a moved column of an outer entry gives
    that outer entry the join and is requalified onto it. Fresh aliases
    never repeat an enclosing select's.
    Aliases are generated fresh ([__dbre0], [__dbre1], …) for the joined
    split relations. *)

val statement : plan -> Sqlx.Ast.statement -> Sqlx.Ast.statement
(** Rewrite the query parts of a statement ([Query], [Insert_select]);
    other statements are returned unchanged (DML on moved columns needs
    human attention and is out of scope). *)

val sql : plan -> string -> (string, string) result
(** Parse, rewrite, and re-print a SQL text (single statement);
    [Error msg] when it does not parse ({!Sqlx.Parser.parse_statement}). *)
