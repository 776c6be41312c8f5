(** SQL migration-script generation: from a pipeline result to the DDL /
    DML that turns the {e original} legacy database into the restructured
    3NF one.

    The paper positions the method as a front-end for re-engineering; the
    concrete artifact a re-engineering project needs is the migration
    script. The generated script contains, in execution order:

    + [CREATE TABLE] for every new relation (NEI conceptualizations,
      hidden objects, FD splits), with keys and not-nulls;
    + [INSERT INTO … SELECT DISTINCT …] populating each new relation
      from its provenance — an [INTERSECT] of the two parent projections
      for an NEI relation, a NULL-guarded projection of the source
      relation for hidden objects and FD splits;
    + [ALTER TABLE … DROP COLUMN] for every attribute moved out by an
      FD split;
    + [ALTER TABLE … ADD FOREIGN KEY] for every referential integrity
      constraint in [RIC] — except those the expert {e forced} against a
      corrupted extension (§6.1 (v)/(vi)): the paper notes the obtained
      structure then "no longer matches the database extension", so such
      constraints are emitted as [-- VIOLATED BY THE EXTENSION] comments
      to be enabled after data repair.

    The script round-trips through this repository's own SQL subset:
    replaying it with the reference SQL interpreter of [test/reference]
    on a copy of the original database yields a database extensionally
    identical to [Restruct.result.database] (tested in
    [test/test_migration.ml]). *)

val script : original:Relational.Schema.t -> Pipeline.result -> string
(** [script ~original result] — [original] is the schema {e before} the
    pipeline ran (the pipeline mutates its database by conceptualizing
    NEI relations, so the caller must capture it first, e.g. via
    [Database.schema db] up front). Statements are [';']-terminated,
    one per line group, with comments explaining provenance. *)
