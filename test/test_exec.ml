open Relational
open Helpers
open Sqlx
open Reference

let db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] "Person" [ "id"; "name"; "dept" ],
        [
          [ vi 1; vs "ann"; vs "d1" ];
          [ vi 2; vs "bob"; vs "d1" ];
          [ vi 3; vs "eve"; vs "d2" ];
          [ vi 4; vs "dan"; vnull ];
        ] );
      ( Relation.make ~uniques:[ [ "code" ] ] "Dept" [ "code"; "city" ],
        [ [ vs "d1"; vs "lyon" ]; [ vs "d2"; vs "paris" ]; [ vs "d3"; vs "nice" ] ]
      );
    ]

let run sql = Exec.run_string (db ()) sql

let test_projection () =
  let d = run "SELECT name FROM Person" in
  Alcotest.(check (list string)) "cols" [ "name" ] d.Algebra.cols;
  Alcotest.(check int) "rows" 4 (List.length d.Algebra.rows)

let test_star () =
  let d = run "SELECT * FROM Dept" in
  Alcotest.(check int) "all cols qualified" 2 (List.length d.Algebra.cols);
  Alcotest.(check int) "rows" 3 (List.length d.Algebra.rows)

let test_where () =
  let d = run "SELECT name FROM Person WHERE dept = 'd1'" in
  Alcotest.(check int) "filtered" 2 (List.length d.Algebra.rows);
  (* null dept never matches, even <> *)
  let d2 = run "SELECT name FROM Person WHERE dept <> 'd1'" in
  Alcotest.(check int) "null dropped by <>" 1 (List.length d2.Algebra.rows)

let test_join () =
  let d =
    run
      "SELECT p.name, d.city FROM Person p, Dept d WHERE p.dept = d.code \
       ORDER BY name"
  in
  Alcotest.(check int) "joined rows" 3 (List.length d.Algebra.rows);
  match d.Algebra.rows with
  | [ ann; _; _ ] ->
      Alcotest.(check value) "ordered first" (vs "ann") (List.hd ann)
  | _ -> Alcotest.fail "shape"

let test_distinct () =
  let d = run "SELECT DISTINCT dept FROM Person" in
  (* includes the NULL row: distinct over projections *)
  Alcotest.(check int) "distinct" 3 (List.length d.Algebra.rows)

let test_in_subquery () =
  let d =
    run "SELECT name FROM Person WHERE dept IN (SELECT code FROM Dept WHERE \
         city = 'lyon')"
  in
  Alcotest.(check int) "in" 2 (List.length d.Algebra.rows)

let test_correlated_exists () =
  let d =
    run
      "SELECT code FROM Dept d WHERE EXISTS (SELECT id FROM Person p WHERE \
       p.dept = d.code)"
  in
  Alcotest.(check int) "depts with people" 2 (List.length d.Algebra.rows)

let test_aggregates () =
  let d = run "SELECT COUNT(*) FROM Person" in
  Alcotest.(check (list (list value))) "count" [ [ vi 4 ] ] [ List.concat d.Algebra.rows ];
  let d2 = run "SELECT COUNT(DISTINCT dept) FROM Person" in
  Alcotest.(check (list (list value))) "count distinct skips null"
    [ [ vi 2 ] ] [ List.concat d2.Algebra.rows ];
  let d3 = run "SELECT dept, COUNT(*) FROM Person GROUP BY dept" in
  Alcotest.(check int) "groups incl null group" 3 (List.length d3.Algebra.rows);
  let d4 = run "SELECT MIN(id), MAX(id) FROM Person" in
  Alcotest.(check (list (list value))) "min max" [ [ vi 1; vi 4 ] ]
    [ List.concat d4.Algebra.rows ];
  let d5 = run "SELECT SUM(id) FROM Person WHERE dept = 'd1'" in
  Alcotest.(check (list (list value))) "sum" [ [ vi 3 ] ]
    [ List.concat d5.Algebra.rows ]

let test_having () =
  let d =
    run "SELECT dept, COUNT(*) FROM Person GROUP BY dept HAVING COUNT(*) > 1"
  in
  (* only d1 has two people *)
  Alcotest.(check (list (list value))) "one surviving group"
    [ [ vs "d1"; vi 2 ] ] d.Algebra.rows;
  let d2 =
    run "SELECT dept FROM Person GROUP BY dept HAVING MIN(id) = 3"
  in
  Alcotest.(check (list (list value))) "min filter" [ [ vs "d2" ] ] d2.Algebra.rows;
  (* having can also reference grouped columns *)
  let d3 =
    run "SELECT dept, COUNT(*) FROM Person GROUP BY dept HAVING dept = 'd2'"
  in
  Alcotest.(check int) "grouped column filter" 1 (List.length d3.Algebra.rows);
  try
    ignore (run "SELECT COUNT(*) FROM Person WHERE id = COUNT(*)");
    Alcotest.fail "aggregate in WHERE must fail"
  with Exec.Error _ -> ()

let test_set_ops () =
  let d =
    run "SELECT dept FROM Person WHERE dept IS NOT NULL INTERSECT SELECT \
         code FROM Dept"
  in
  Alcotest.(check int) "intersect distinct" 2 (List.length d.Algebra.rows);
  let d2 = run "SELECT code FROM Dept EXCEPT SELECT dept FROM Person" in
  Alcotest.(check int) "except" 1 (List.length d2.Algebra.rows)

let test_like_between () =
  let d = run "SELECT name FROM Person WHERE name LIKE 'a%'" in
  Alcotest.(check int) "like prefix" 1 (List.length d.Algebra.rows);
  let d2 = run "SELECT name FROM Person WHERE name LIKE '_ob'" in
  Alcotest.(check int) "underscore" 1 (List.length d2.Algebra.rows);
  let d3 = run "SELECT id FROM Person WHERE id BETWEEN 2 AND 3" in
  Alcotest.(check int) "between" 2 (List.length d3.Algebra.rows)

let test_host_variables () =
  let host = function ":target" -> vs "d2" | h -> Alcotest.failf "unexpected %s" h in
  let d =
    Exec.run ~host (db ())
      (Parser.parse_query "SELECT name FROM Person WHERE dept = :target")
  in
  Alcotest.(check int) "bound host var" 1 (List.length d.Algebra.rows);
  try
    ignore (run "SELECT name FROM Person WHERE dept = :unbound");
    Alcotest.fail "expected unbound host failure"
  with Exec.Error _ -> ()

let test_errors () =
  List.iter
    (fun sql ->
      try
        ignore (run sql);
        Alcotest.failf "expected failure: %s" sql
      with Exec.Error _ -> ())
    [
      "SELECT ghost FROM Person";
      "SELECT name FROM Ghost";
      "SELECT id FROM Person, Dept WHERE id IN (SELECT code, city FROM Dept)";
      "SELECT code FROM Dept INTERSECT SELECT id, name FROM Person";
    ]

let test_count_distinct_sql () =
  Alcotest.(check int) "single attr" 2
    (Exec.count_distinct_sql (db ()) "Person" [ "dept" ]);
  Alcotest.(check int) "multi attr" 3
    (Exec.count_distinct_sql (db ()) "Person" [ "name"; "dept" ])

(* agreement with the engine's native counting *)
let test_agreement_with_table () =
  let db = db () in
  List.iter
    (fun (rel, attrs) ->
      Alcotest.(check int)
        (Printf.sprintf "count distinct %s" rel)
        (Database.count_distinct db rel attrs)
        (Exec.count_distinct_sql db rel attrs))
    [ ("Person", [ "dept" ]); ("Person", [ "id" ]); ("Dept", [ "city" ]) ]

(* bad statements raise [Exec.Error] naming the culprit, never a raw
   exception, over R(k unique, v) and S(a, b) *)
let test_statement_errors () =
  let fresh () =
    database
      [
        ( Relation.make ~uniques:[ [ "k" ] ] "R" [ "k"; "v" ],
          [ [ vi 1; vs "x" ]; [ vi 2; vs "y" ] ] );
        (Relation.make "S" [ "a"; "b" ], [ [ vi 1; vs "p" ]; [ vi 2; vs "q" ] ]);
      ]
  in
  List.iter
    (fun (sql, sub) ->
      match Exec.exec_script (fresh ()) sql with
      | () -> Alcotest.failf "%s: expected Exec.Error" sql
      | exception Exec.Error msg -> check_contains sql ~sub msg
      | exception e ->
          Alcotest.failf "%s: raised %s, expected Exec.Error" sql
            (Printexc.to_string e))
    [
      ("ALTER TABLE S ADD FOREIGN KEY (zz) REFERENCES R (k)", "unknown column zz in S");
      ("ALTER TABLE S ADD FOREIGN KEY (a) REFERENCES R (nope)", "unknown column nope in R");
      ("ALTER TABLE Q ADD FOREIGN KEY (a) REFERENCES R (k)", "unknown relation Q");
      ("ALTER TABLE S ADD FOREIGN KEY (a, b) REFERENCES R (k)", "2 columns reference 1 in R");
      ("ALTER TABLE Q DROP COLUMN a", "unknown relation Q");
      ("UPDATE S SET zz = 1", "unknown column zz in S");
      ("UPDATE Q SET a = 1", "unknown relation Q");
      ("DELETE FROM Q", "unknown relation Q");
      ("CREATE TABLE R (x INT)", "R: relation already exists");
      ("INSERT INTO S (zz) VALUES (1)", "unknown column zz in S");
    ]

let suite =
  [
    Alcotest.test_case "projection" `Quick test_projection;
    Alcotest.test_case "star" `Quick test_star;
    Alcotest.test_case "where + null" `Quick test_where;
    Alcotest.test_case "join + order by" `Quick test_join;
    Alcotest.test_case "distinct" `Quick test_distinct;
    Alcotest.test_case "in subquery" `Quick test_in_subquery;
    Alcotest.test_case "correlated exists" `Quick test_correlated_exists;
    Alcotest.test_case "aggregates" `Quick test_aggregates;
    Alcotest.test_case "having" `Quick test_having;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "like / between" `Quick test_like_between;
    Alcotest.test_case "host variables" `Quick test_host_variables;
    Alcotest.test_case "errors" `Quick test_errors;
    Alcotest.test_case "count distinct via sql" `Quick test_count_distinct_sql;
    Alcotest.test_case "agreement with table counts" `Quick test_agreement_with_table;
    Alcotest.test_case "statement errors are Exec.Error" `Quick test_statement_errors;
  ]
