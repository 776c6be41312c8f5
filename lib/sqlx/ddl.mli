(** From [CREATE TABLE] statements to relation schemas.

    This models reading a legacy data dictionary (§4): only UNIQUE /
    PRIMARY KEY (both become keys) and NOT NULL survive into the schema;
    FOREIGN KEY clauses are returned separately — the paper assumes they
    are {e absent} from old systems, but when present they seed the
    discovered IND set. *)

open Relational

val relation_of_create : Ast.create_table -> (Relation.t, string) result
(** Column types map through {!Domain.of_sql_type}; PRIMARY KEY implies
    UNIQUE + NOT NULL on its columns. [Error "CREATE TABLE R: …"] names
    the table and the column when no column is declared, a column name
    is empty or declared twice, or a key names an undeclared column. *)

val add_relation : Schema.t -> Ast.create_table -> (Schema.t, string) result
(** Add the table's relation ({!relation_of_create}); [Error "CREATE
    TABLE R: table declared twice"] when the schema already has [R]. *)

val schema_of_script :
  string ->
  (Schema.t * (string * string list * string * string list) list, string) result
(** Parse a DDL script and build the schema plus the declared foreign
    keys, [(table, cols, referenced table, referenced cols)] per FOREIGN
    KEY clause (an empty referenced-column list means "the primary
    key"). Non-DDL statements in the script are ignored. [Error msg] on
    malformed SQL ({!Parser.parse_script}'s message), on a table
    declared twice and on the statements {!relation_of_create}
    refuses. *)

val create_table_sql : Relation.t -> string
(** Render a relation schema back to a [CREATE TABLE] statement (no
    trailing semicolon). Inverse of {!relation_of_create} up to the
    representation of key constraints (all emitted as table-level
    [UNIQUE]). *)
