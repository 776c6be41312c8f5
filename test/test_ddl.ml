open Relational
open Sqlx

let test_relation_of_create () =
  let ct =
    match
      Parser.parse_statement
        "CREATE TABLE T (id INT PRIMARY KEY, name VARCHAR(20) NOT NULL, dep \
         INT, UNIQUE (name, dep))"
    with
    | Ast.Create ct -> ct
    | _ -> Alcotest.fail "expected create"
  in
  let r = Ddl.relation_of_create ct in
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
    Ddl.schema_of_script
      "CREATE TABLE A (id INT PRIMARY KEY);\n\
       CREATE TABLE B (id INT PRIMARY KEY, a INT, FOREIGN KEY (a) REFERENCES \
       A (id));"
  in
  Alcotest.(check int) "two relations" 2 (Schema.size schema);
  match fks with
  | [ ("B", [ "a" ], "A", [ "id" ]) ] -> ()
  | _ -> Alcotest.fail "foreign key shape"

let test_load_script () =
  let db =
    Ddl.load_script
      "CREATE TABLE T (id INT PRIMARY KEY, v VARCHAR(8));\n\
       INSERT INTO T (id, v) VALUES (1, 'x'), (2, 'y');\n\
       INSERT INTO T VALUES (3, 'z');"
  in
  Alcotest.(check int) "rows" 3 (Database.cardinality db "T");
  Alcotest.(check int) "distinct v" 3 (Database.count_distinct db "T" [ "v" ])

let test_load_partial_columns () =
  let db =
    Ddl.load_script
      "CREATE TABLE T (id INT, v VARCHAR(8));\nINSERT INTO T (id) VALUES (1);"
  in
  let rows = Table.rows (Database.table db "T") in
  Alcotest.(check bool) "missing column null" true (Value.is_null rows.(0).(1))

let test_load_errors () =
  let e =
    Helpers.expect_error "unknown table" Error.Unknown_relation (fun () ->
        Ddl.load_script "CREATE TABLE T (a INT); INSERT INTO U VALUES (1);")
  in
  Alcotest.(check (option string)) "names the table" (Some "U") e.Error.relation;
  ignore
    (Helpers.expect_error "host variable in VALUES" Error.Sql_parse (fun () ->
         Ddl.load_script "CREATE TABLE T (a INT); INSERT INTO T VALUES (:h);"));
  ignore
    (Helpers.expect_error "VALUES width mismatch" Error.Sql_parse (fun () ->
         Ddl.load_script "CREATE TABLE T (a INT); INSERT INTO T VALUES (1, 2);"))

let test_paper_ddl () =
  (* the §5 schema as stored in this repository *)
  let schema, _ = Ddl.schema_of_script Workload.Paper_example.ddl in
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
      | _ -> Alcotest.failf "%S was accepted" script
      | exception Parser.Error msg ->
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

let prop_schema_of_script_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"mutated DDL parses or raises Parser.Error"
       (QCheck.make ~print:(Printf.sprintf "%S")
          QCheck.Gen.(oneofl ddl_corpus >>= Helpers.gen_mutated ~tokens:ddl_tokens))
       (fun script ->
         match Ddl.schema_of_script script with
         | _ -> true
         | exception Parser.Error _ -> true))

let suite =
  [
    Alcotest.test_case "relation of create" `Quick test_relation_of_create;
    Alcotest.test_case "foreign keys" `Quick test_foreign_keys;
    Alcotest.test_case "load script" `Quick test_load_script;
    Alcotest.test_case "partial column insert" `Quick test_load_partial_columns;
    Alcotest.test_case "load errors" `Quick test_load_errors;
    Alcotest.test_case "paper ddl" `Quick test_paper_ddl;
    Alcotest.test_case "malformed CREATE TABLE" `Quick test_malformed_create;
    prop_schema_of_script_total;
  ]
