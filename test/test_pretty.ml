open Sqlx

(* parse → print → parse must be a fixpoint *)
let roundtrip input =
  let s1 = Helpers.parse_statement input in
  let printed = Pretty.statement_to_string s1 in
  let s2 =
    match Parser.parse_statement printed with
    | Ok s -> s
    | Error msg -> Alcotest.failf "re-parse of %S failed: %s" printed msg
  in
  Alcotest.(check string) ("stable print of " ^ input) printed
    (Pretty.statement_to_string s2)

let test_roundtrips () =
  List.iter roundtrip
    [
      "SELECT a, b FROM R";
      "SELECT DISTINCT p.a AS x FROM R p, S q WHERE p.a = q.b AND p.c = 1";
      "SELECT a FROM R WHERE a IN (SELECT b FROM S) OR a = 3";
      "SELECT a FROM R WHERE NOT (a = 1) AND b BETWEEN 1 AND 2";
      "SELECT a FROM R WHERE b LIKE 'x%' AND c IS NULL";
      "SELECT a FROM R INTERSECT SELECT b FROM S";
      "SELECT dep, COUNT(DISTINCT emp) AS n FROM R GROUP BY dep ORDER BY dep DESC";
      "SELECT dep, COUNT(*) FROM R GROUP BY dep HAVING COUNT(*) > 2";
      "SELECT dep FROM R GROUP BY dep HAVING SUM(x) BETWEEN 1 AND 9";
      "SELECT a FROM R WHERE EXISTS (SELECT b FROM S WHERE S.b = R.a)";
      "CREATE TABLE T (id INT PRIMARY KEY, v VARCHAR(8) NOT NULL, UNIQUE (v))";
      "INSERT INTO T (a) VALUES (1), (2)";
      "UPDATE T SET a = 2 WHERE a = 1";
      "DELETE FROM T WHERE a IS NOT NULL";
    ]

let test_specific_forms () =
  let q = Helpers.parse_query "select a from R where x = 'it''s'" in
  Alcotest.(check string) "string escaping survives"
    "SELECT a FROM R WHERE x = 'it''s'"
    (Pretty.query_to_string q)

let suite =
  [
    Alcotest.test_case "print/parse roundtrips" `Quick test_roundtrips;
    Alcotest.test_case "specific forms" `Quick test_specific_forms;
  ]
