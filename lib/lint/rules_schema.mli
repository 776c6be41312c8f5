(** Schema/dictionary rules ([L0xx]).

    - [L001] (warning) — relation declares no key: it contributes nothing
      to the paper's set [K], so no RIC can ever target it.
    - [L002] (warning) — attribute of a [UNIQUE] constraint not declared
      [NOT NULL]: SQL [UNIQUE] admits NULLs, so the dictionary key the
      paper trusts may not identify tuples.
    - [L003] (error) — duplicate attribute name in a [CREATE TABLE].
    - [L004] (info) — repeated-group smell: several attributes share a
      stem with numeric suffixes ([phone1], [phone2], …), the classic
      denormalized repeated group (§3) that Restruct cannot see without
      expert help.
    - [L005] (error/warning) — malformed [FOREIGN KEY]: width mismatch,
      unknown referenced table or column (errors), or a reference to a
      non-key of the target (warning — the paper's RICs are key-based).
    - [L006] (error) — the DDL script does not parse.
    - [L007] (error) — the dictionary reader ({!Sqlx.Ddl.add_relation})
      refuses the table: a key names an undeclared column, a column
      name is empty, or the table is declared twice; the message is
      [Ddl]'s. A duplicate column is L003's alone. *)

open Relational

val check_script : ?source_name:string -> string -> Diagnostic.t list
(** Parse a DDL script and check its [CREATE TABLE] statements, foreign
    keys resolved against the other statements of the script; a parse
    failure yields a single [L006] diagnostic. *)

val check_schema : Schema.t -> Diagnostic.t list
(** Dictionary-only variant for schemas that did not come from DDL text
    (e.g. loaded from CSV metadata): runs the keyless-relation and
    repeated-group rules with no spans. *)
