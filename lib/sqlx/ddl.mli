(** From [CREATE TABLE] statements to relation schemas.

    This models reading a legacy data dictionary (§4): only UNIQUE /
    PRIMARY KEY (both become keys) and NOT NULL survive into the schema;
    FOREIGN KEY clauses are returned separately — the paper assumes they
    are {e absent} from old systems, but when present they seed the
    discovered IND set. *)

open Relational

val relation_of_create : Ast.create_table -> Relation.t
(** Column types map through {!Domain.of_sql_type}; PRIMARY KEY implies
    UNIQUE + NOT NULL on its columns. Raises [Parser.Error], naming the
    table and the column, when no column is declared, a column name is
    empty or declared twice, or a key names an undeclared column. *)

val foreign_keys_of_create : Ast.create_table -> (string * string list * string * string list) list
(** [(table, cols, referenced table, referenced cols)] per FOREIGN KEY
    clause; an empty referenced-column list means "the primary key". *)

val schema_of_script : string -> Schema.t * (string * string list * string * string list) list
(** Parse a DDL script and build the schema plus declared foreign keys.
    Non-DDL statements in the script are ignored. Raises
    [Parser.Error] on malformed SQL, on a table declared twice and on
    the statements {!relation_of_create} refuses, and nothing else. *)

val sql_type_of_domain : Domain.t -> string
(** [INT] / [FLOAT] / [BOOLEAN] / [DATE] / [VARCHAR(80)] (also for
    [Unknown]). *)

val create_table_sql : Relation.t -> string
(** Render a relation schema back to a [CREATE TABLE] statement (no
    trailing semicolon). Inverse of {!relation_of_create} up to the
    representation of key constraints (all emitted as table-level
    [UNIQUE]). *)

val load_script : string -> Database.t
(** Build a database from a script of [CREATE TABLE] and [INSERT]
    statements (literal values only). Raises [Error.Error] with code
    {!Error.Unknown_relation} for an [INSERT] into an undeclared table
    and {!Error.Sql_parse} for host variables, column references or
    aggregates in [VALUES] and for width mismatches. *)
