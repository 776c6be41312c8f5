open Relational
open Helpers
open Sqlx
module Exec = Reference.Exec

(* ---------- statement execution primitives ---------- *)

let small_db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] "T" [ "id"; "v"; "w" ],
        [ [ vi 1; vs "a"; vi 10 ]; [ vi 2; vs "b"; vi 20 ]; [ vi 3; vs "a"; vi 30 ] ]
      );
    ]

let test_exec_create_insert () =
  let db = small_db () in
  Exec.exec_script db
    "CREATE TABLE U (k INT, l VARCHAR(8)); INSERT INTO U VALUES (1, 'x');\n\
     INSERT INTO U (k) VALUES (2);";
  Alcotest.(check int) "rows" 2 (Database.cardinality db "U");
  Alcotest.(check value) "missing column null" vnull
    (Table.rows (Database.table db "U")).(1).(1)

let test_exec_insert_select () =
  let db = small_db () in
  Exec.exec_script db
    "CREATE TABLE V (v VARCHAR(8));\n\
     INSERT INTO V (v) SELECT DISTINCT v FROM T WHERE v IS NOT NULL;";
  Alcotest.(check int) "distinct values copied" 2 (Database.cardinality db "V")

let test_exec_insert_select_width_mismatch () =
  let db = small_db () in
  try
    Exec.exec_script db
      "CREATE TABLE V (v VARCHAR(8)); INSERT INTO V (v) SELECT v, w FROM T;";
    Alcotest.fail "expected width error"
  with Exec.Error _ -> ()

let test_exec_update () =
  let db = small_db () in
  Exec.exec_script db "UPDATE T SET v = 'z' WHERE w > 15;";
  let changed =
    Reference.Counts.select (Database.table db "T") (fun tup -> Value.equal tup.(1) (vs "z"))
  in
  Alcotest.(check int) "two rows updated" 2 (List.length changed);
  Exec.exec_script db "UPDATE T SET w = 0;";
  Alcotest.(check int) "unconditional update" 1
    (Reference.Counts.count_distinct (Database.table db "T") [ "w" ])

let test_exec_delete () =
  let db = small_db () in
  Exec.exec_script db "DELETE FROM T WHERE v = 'a';";
  Alcotest.(check int) "one row left" 1 (Database.cardinality db "T");
  Exec.exec_script db "DELETE FROM T;";
  Alcotest.(check int) "all gone" 0 (Database.cardinality db "T")

let test_exec_drop_column () =
  let db = small_db () in
  Exec.exec_script db "ALTER TABLE T DROP COLUMN v;";
  let rel = Table.schema (Database.table db "T") in
  Alcotest.(check (list string)) "column gone" [ "id"; "w" ] rel.Relation.attrs;
  Alcotest.(check int) "rows kept" 3 (Database.cardinality db "T");
  (try
     Exec.exec_script db "ALTER TABLE T DROP COLUMN ghost;";
     Alcotest.fail "expected unknown-column error"
   with Exec.Error _ -> ())

let test_exec_add_fk () =
  let db =
    database
      [
        ( Relation.make ~uniques:[ [ "id" ] ] "P" [ "id" ],
          [ [ vi 1 ]; [ vi 2 ] ] );
        (Relation.make "C" [ "ref" ], [ [ vi 1 ]; [ vnull ] ]);
        (Relation.make "Bad" [ "ref" ], [ [ vi 9 ] ]);
      ]
  in
  (* satisfied (nulls exempt, FK semantics) *)
  Exec.exec_script db "ALTER TABLE C ADD FOREIGN KEY (ref) REFERENCES P (id);";
  (* referenced columns default to the key *)
  Exec.exec_script db "ALTER TABLE C ADD FOREIGN KEY (ref) REFERENCES P;";
  try
    Exec.exec_script db "ALTER TABLE Bad ADD FOREIGN KEY (ref) REFERENCES P (id);";
    Alcotest.fail "expected FK violation"
  with Exec.Error _ -> ()

let test_alter_parse_print_roundtrip () =
  List.iter
    (fun sql ->
      let stmt = Helpers.parse_statement sql in
      Alcotest.(check string) ("roundtrip " ^ sql) sql
        (Pretty.statement_to_string stmt))
    [
      "ALTER TABLE T DROP COLUMN v";
      "ALTER TABLE T ADD FOREIGN KEY (a, b) REFERENCES S (x, y)";
      "INSERT INTO T (a) SELECT DISTINCT b FROM S WHERE b IS NOT NULL";
    ]

(* ---------- migration round-trips ---------- *)

(* run [input] over [scenario_db], then replay the migration script on
   [fresh]: the script, and whether the replay matches Restruct *)
let roundtrip scenario_db oracle input fresh =
  let original = Database.schema scenario_db in
  let result =
    Helpers.ok
      (Dbre.Job.run (Dbre.Job_spec.of_database ~oracle scenario_db input))
  in
  (Dbre.Migration.script ~original result, migration_replays ~original result fresh)

let test_paper_roundtrip () =
  let sql, replays =
    roundtrip
      (Workload.Paper_example.database ())
      (Scripted Workload.Paper_example.oracle_script)
      (Dbre.Job_spec.Equijoins (Workload.Paper_example.equijoins ()))
      (Workload.Paper_example.database ())
  in
  Alcotest.(check bool) "script nonempty" true (String.length sql > 500);
  Alcotest.(check bool) "extensionally equal" true replays;
  (* every statement of the script parses back *)
  Alcotest.(check bool) "script reparses" true
    (List.length (Helpers.parse_script sql) > 10)

let test_payroll_roundtrip () =
  let s = Workload.Scenarios.payroll in
  Alcotest.(check bool) "extensionally equal" true
    (snd
       (roundtrip
          (s.Workload.Scenarios.database ())
          s.Workload.Scenarios.oracle
          (Dbre.Job_spec.Programs s.Workload.Scenarios.programs)
          (s.Workload.Scenarios.database ())))

let test_synthetic_roundtrip () =
  let g () = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
  let w = g () in
  Alcotest.(check bool) "extensionally equal" true
    (snd
       (roundtrip w.Workload.Gen_schema.db Auto
          (Dbre.Job_spec.Equijoins w.Workload.Gen_schema.equijoins)
          (g ()).Workload.Gen_schema.db))

(* the default generated fixture as `dbre generate` writes it: a DDL
   script, one CSV per relation and the embedded programs *)
let generated () =
  let g = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
  let rels = Schema.relations (Database.schema g.Workload.Gen_schema.db) in
  let source r =
    let t = Database.table g.Workload.Gen_schema.db r.Relation.name in
    (r.Relation.name, Source.csv_inline (Csv.dump_table t))
  in
  ( g,
    Dbre.Job_spec.make
      ~ddl:(String.concat "" (List.map (fun r -> Ddl.create_table_sql r ^ ";\n") rels))
      ~sources:(List.map source rels)
      (Dbre.Job_spec.Programs g.Workload.Gen_schema.programs) )

let load spec =
  match Dbre.Job.database spec with
  | Ok loaded -> loaded
  | Error e -> Alcotest.failf "load: %s" (Error.to_string e)

(* `dbre migrate` over that fixture: the script replayed on a second
   load of the same spec gives Restruct's database *)
let test_generated_csv_roundtrip () =
  let _, spec = generated () in
  let result = Helpers.ok (Dbre.Job.run spec) in
  let original, _ =
    Helpers.sql_ok (Ddl.schema_of_script spec.Dbre.Job_spec.ddl)
  in
  Alcotest.(check bool) "extensionally equal" true
    (migration_replays ~original result (fst (load spec)))

let test_migration_fks_validate () =
  (* applying the script must not raise: every generated FK holds *)
  let original = Workload.Paper_example.schema () in
  let result = Helpers.paper () in
  let sql = Dbre.Migration.script ~original result in
  let fresh = Workload.Paper_example.database () in
  (* would raise Exec.Error on any violated ALTER ... ADD FOREIGN KEY *)
  Exec.exec_script fresh sql;
  Alcotest.(check int) "ten FK statements" 10
    (List.length
       (List.filter
          (function Ast.Alter (_, Ast.Add_foreign_key _) -> true | _ -> false)
          (Helpers.parse_script sql)))

(* analyze with migration on over CSV-loaded sources: the loaded
   tables' rows, decoded from their stores, are the generator's rows
   after the artifacts and the migration script, and stay the reference
   rows through an append and a delete. [Job.run] is [Job.database]
   then [Job.verify]; the two halves are called apart to keep hold of
   the loaded tables. *)
let test_analyze_keeps_rows () =
  let g, spec = generated () in
  let rels = Schema.relations (Database.schema g.Workload.Gen_schema.db) in
  let db, quarantine = load spec in
  let original = Database.schema db in
  let loaded = List.map (fun r -> Database.table db r.Relation.name) rels in
  let result =
    match Dbre.Job.verify ~db ~quarantine spec with
    | Ok r -> r
    | Error p -> Alcotest.failf "run: %s" (Error.to_string p.Dbre.Pipeline.p_error)
  in
  ignore (Dbre.Report.artifacts result);
  ignore (Dbre.Migration.script ~original result);
  let restruct = result.Dbre.Pipeline.restruct_result in
  Alcotest.(check bool) "Restruct moved something" true
    (restruct.Dbre.Restruct.renamings <> []);
  List.iter
    (fun t ->
      let name = (Table.schema t).Relation.name in
      let want = Table.to_lists (Database.table g.Workload.Gen_schema.db name) in
      Alcotest.check value_rows ("loaded " ^ name) want (Table.to_lists t);
      let extra = List.hd want in
      Table.insert t extra;
      Table.delete_rows t [ 0 ];
      Alcotest.check value_rows
        (name ^ " after an append and a delete")
        (List.tl want @ [ extra ])
        (Table.to_lists t))
    loaded

let suite =
  [
    Alcotest.test_case "exec create/insert" `Quick test_exec_create_insert;
    Alcotest.test_case "exec insert-select" `Quick test_exec_insert_select;
    Alcotest.test_case "exec insert-select width" `Quick test_exec_insert_select_width_mismatch;
    Alcotest.test_case "exec update" `Quick test_exec_update;
    Alcotest.test_case "exec delete" `Quick test_exec_delete;
    Alcotest.test_case "exec drop column" `Quick test_exec_drop_column;
    Alcotest.test_case "exec add foreign key" `Quick test_exec_add_fk;
    Alcotest.test_case "alter parse/print" `Quick test_alter_parse_print_roundtrip;
    Alcotest.test_case "paper migration roundtrip" `Quick test_paper_roundtrip;
    Alcotest.test_case "payroll migration roundtrip" `Quick test_payroll_roundtrip;
    Alcotest.test_case "synthetic migration roundtrip" `Quick test_synthetic_roundtrip;
    Alcotest.test_case "migration FKs validate" `Quick test_migration_fks_validate;
    Alcotest.test_case "analyze keeps the loaded rows" `Quick
      test_analyze_keeps_rows;
    Alcotest.test_case "generated CSV migration roundtrip" `Quick
      test_generated_csv_roundtrip;
  ]
