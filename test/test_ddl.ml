open Relational
open Sqlx

let test_relation_of_create () =
  let ct =
    match
      Helpers.parse_statement
        "CREATE TABLE T (id INT PRIMARY KEY, name VARCHAR(20) NOT NULL, dep \
         INT, UNIQUE (name, dep))"
    with
    | Ast.Create ct -> ct
    | _ -> Alcotest.fail "expected create"
  in
  let r = Helpers.sql_ok (Ddl.relation_of_create ct) in
  Alcotest.(check (list string)) "attrs" [ "id"; "name"; "dep" ] r.Relation.attrs;
  Alcotest.(check bool) "pk is unique" true (Relation.is_key r [ "id" ]);
  Alcotest.(check bool) "table unique" true (Relation.is_key r [ "dep"; "name" ]);
  Alcotest.(check bool) "pk implies not null" true
    (List.mem "id" r.Relation.not_nulls);
  Alcotest.(check bool) "declared not null" true
    (List.mem "name" r.Relation.not_nulls);
  Alcotest.(check bool) "typed" true
    (Domain.equal Domain.Int (Relation.domain_of r "id"))

let test_foreign_keys () =
  let schema, fks =
    Helpers.sql_ok
      (Ddl.schema_of_script
         "CREATE TABLE A (id INT PRIMARY KEY);\n\
          CREATE TABLE B (id INT PRIMARY KEY, a INT, FOREIGN KEY (a) \
          REFERENCES A (id));")
  in
  Alcotest.(check int) "two relations" 2 (Schema.size schema);
  match fks with
  | [ ("B", [ "a" ], "A", [ "id" ]) ] -> ()
  | _ -> Alcotest.fail "foreign key shape"

let test_paper_ddl () =
  (* the §5 schema as stored in this repository *)
  let schema, _ =
    Helpers.sql_ok (Ddl.schema_of_script Workload.Paper_example.ddl)
  in
  Alcotest.(check int) "four relations" 4 (Schema.size schema);
  Alcotest.(check bool) "composite key parsed" true
    (Schema.is_key schema "HEmployee" [ "date"; "no" ]);
  Alcotest.(check bool) "hyphenated attribute" true
    (Relation.has_attr (Schema.find_exn schema "Assignment") "project-name");
  Alcotest.(check bool) "location not null" true
    (Schema.attr_not_null schema "Department" "location")

(* the CREATE TABLE shapes [Relation.make] refuses are parse errors
   naming the table and the column, and a job over them fails typed *)
let test_malformed_create () =
  List.iter
    (fun (script, sub) ->
      match Ddl.schema_of_script script with
      | Ok _ -> Alcotest.failf "%S was accepted" script
      | Error msg ->
          Helpers.check_contains script ~sub:"R" msg;
          Helpers.check_contains script ~sub msg)
    [
      ("CREATE TABLE R (a INT, b INT, UNIQUE (c));", "c");
      ("CREATE TABLE R (a INT, b INT, PRIMARY KEY (a, c));", "c");
      ("CREATE TABLE R (a INT, a INT);", "a");
      ({|CREATE TABLE R ("" INT);|}, "empty");
      ("CREATE TABLE R (a INT); CREATE TABLE R (b INT);", "twice");
    ];
  let spec = Dbre.Job_spec.make ~ddl:"CREATE TABLE R (a INT, a INT);" (Dbre.Job_spec.Programs []) in
  match Dbre.Job.database spec with
  | Ok _ -> Alcotest.fail "the job loaded a malformed schema"
  | Error e ->
      Alcotest.(check string) "typed" (Error.code_to_string Error.Sql_parse)
        (Error.code_to_string e.Error.code)

let ddl_corpus =
  [
    Workload.Paper_example.ddl;
    "CREATE TABLE A (id INT PRIMARY KEY, n VARCHAR(8) NOT NULL);\n\
     CREATE TABLE B (x INT, y INT, a INT, PRIMARY KEY (x, y), UNIQUE (a), \
     FOREIGN KEY (a) REFERENCES A (id));";
  ]

let ddl_tokens =
  [ "CREATE"; "TABLE"; "("; ")"; ","; ";"; "UNIQUE"; "PRIMARY KEY"; "FOREIGN KEY";
    "REFERENCES"; "NOT NULL"; "INT"; "VARCHAR(3)"; "a"; "R"; {|""|}; "'"; "--"; "/*"; " " ]

(* lint builds its dictionary from the DDL alone: a DDL the schema
   refuses lints, it does not raise *)
let lint_ddl script =
  Dbre_lint.Lint.run [ Dbre_lint.Lint.source ~name:"r.sql" Dbre_lint.Lint.Schema_script script ]

let lint_codes script =
  List.map
    (fun (d : Dbre_lint.Diagnostic.t) -> d.Dbre_lint.Diagnostic.code)
    (lint_ddl script).Dbre_lint.Lint.diags

let test_lint_refused_create () =
  Alcotest.(check (list string)) "duplicate column" [ "L001"; "L003" ]
    (lint_codes "CREATE TABLE T (a INT, a INT);");
  Alcotest.(check (list string)) "key on an undeclared column" [ "L007" ]
    (lint_codes "CREATE TABLE R (a INT, UNIQUE (c));")

(* any exception escaping either entry point fails the property *)
let prop_schema_of_script_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"mutated DDL returns Ok or Error and lints"
       (QCheck.make ~print:(Printf.sprintf "%S")
          QCheck.Gen.(oneofl ddl_corpus >>= Helpers.gen_mutated ~tokens:ddl_tokens))
       (fun script ->
         ignore (lint_ddl script);
         match Ddl.schema_of_script script with Ok _ | Error _ -> true))

(* the messages a refused script comes back with, word for word: the
   table rules, the parser's and the lexer's *)
let test_refusal_messages () =
  List.iter
    (fun (script, expected) ->
      match Ddl.schema_of_script script with
      | Ok _ -> Alcotest.failf "%S was accepted" script
      | Error msg -> Alcotest.(check string) script expected msg)
    [
      ( "CREATE TABLE R (a INT, b INT, UNIQUE (c));",
        "CREATE TABLE R: key names undeclared column c" );
      ("CREATE TABLE R (a INT, a INT);", "CREATE TABLE R: column a declared twice");
      ({|CREATE TABLE R ("" INT);|}, "CREATE TABLE R: empty column name");
      ( "CREATE TABLE R (a INT); CREATE TABLE R (b INT);",
        "CREATE TABLE R: table declared twice" );
      ("CREATE TABLE R ();", "expected name (at token ))");
      ("CREATE TABLE R (a INT", "expected ) (at token <eof>)");
      ( "CREATE TABLE R (a INT, 'x);",
        "lexical error at offset 24: unterminated string" );
      ( "CREATE TABLE R (a INT DEFAULT 99999999999999999999);",
        "lexical error at offset 30: integer literal out of range" );
    ]

let suite =
  [
    Alcotest.test_case "relation of create" `Quick test_relation_of_create;
    Alcotest.test_case "foreign keys" `Quick test_foreign_keys;
    Alcotest.test_case "paper ddl" `Quick test_paper_ddl;
    Alcotest.test_case "malformed CREATE TABLE" `Quick test_malformed_create;
    Alcotest.test_case "lint over a refused CREATE TABLE" `Quick
      test_lint_refused_create;
    prop_schema_of_script_total;
    Alcotest.test_case "refusal messages" `Quick test_refusal_messages;
  ]
