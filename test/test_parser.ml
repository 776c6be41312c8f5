open Sqlx

let parse = Helpers.parse_statement
let parse_q = Helpers.parse_query

let select_of = function
  | Ast.Select s -> s
  | _ -> Alcotest.fail "expected a plain SELECT"

let test_basic_select () =
  let s = select_of (parse_q "SELECT a, b FROM R") in
  Alcotest.(check int) "projections" 2 (List.length s.Ast.projections);
  Alcotest.(check int) "from" 1 (List.length s.Ast.from);
  Alcotest.(check bool) "no distinct" false s.Ast.distinct

let test_distinct_star () =
  let s = select_of (parse_q "SELECT DISTINCT * FROM R") in
  Alcotest.(check bool) "distinct" true s.Ast.distinct;
  (match s.Ast.projections with
  | [ Ast.Star ] -> ()
  | _ -> Alcotest.fail "expected star")

let test_qualified_and_alias () =
  let s = select_of (parse_q "SELECT p.name AS n FROM Person p, Dept AS d") in
  (match s.Ast.projections with
  | [ Ast.Proj (Ast.Col { tbl = Some "p"; col = "name"; _ }, Some "n") ] -> ()
  | _ -> Alcotest.fail "projection shape");
  match s.Ast.from with
  | [ { Ast.rel = "Person"; alias = Some "p"; _ }; { rel = "Dept"; alias = Some "d"; _ } ]
    -> ()
  | _ -> Alcotest.fail "from shape"

let test_where_conjunction () =
  let s =
    select_of
      (parse_q "SELECT a FROM R, S WHERE R.a = S.b AND R.c = 3 AND S.d = 'x'")
  in
  match s.Ast.where with
  | Some w -> Alcotest.(check int) "three conjuncts" 3 (List.length (Ast.cond_conjuncts w))
  | None -> Alcotest.fail "expected where"

let test_or_precedence () =
  let s = select_of (parse_q "SELECT a FROM R WHERE a = 1 AND b = 2 OR c = 3") in
  (* OR binds looser: (a AND b) OR c *)
  match s.Ast.where with
  | Some (Ast.Or (Ast.And _, Ast.Cmp _)) -> ()
  | _ -> Alcotest.fail "expected (AND) OR shape"

let test_in_subquery () =
  let s =
    select_of
      (parse_q "SELECT a FROM R WHERE a IN (SELECT b FROM S WHERE c > 0)")
  in
  match s.Ast.where with
  | Some (Ast.In (Ast.Col { col = "a"; _ }, Ast.Select _)) -> ()
  | _ -> Alcotest.fail "expected IN subquery"

let test_in_list_not_in () =
  let s = select_of (parse_q "SELECT a FROM R WHERE a IN (1, 2, 3)") in
  (match s.Ast.where with
  | Some (Ast.In_list (_, items)) ->
      Alcotest.(check int) "items" 3 (List.length items)
  | _ -> Alcotest.fail "expected IN list");
  let s2 = select_of (parse_q "SELECT a FROM R WHERE a NOT IN (1)") in
  match s2.Ast.where with
  | Some (Ast.Not (Ast.In_list _)) -> ()
  | _ -> Alcotest.fail "expected NOT IN"

let test_exists_correlated () =
  let s =
    select_of
      (parse_q
         "SELECT a FROM R WHERE EXISTS (SELECT 1 FROM S WHERE S.k = R.a)")
  in
  match s.Ast.where with
  | Some (Ast.Exists (Ast.Select _)) -> ()
  | _ -> Alcotest.fail "expected EXISTS"

let test_between_like_is_null () =
  let s =
    select_of
      (parse_q
         "SELECT a FROM R WHERE a BETWEEN 1 AND 9 AND b LIKE 'x%' AND c IS \
          NOT NULL")
  in
  match Option.map Ast.cond_conjuncts s.Ast.where with
  | Some [ Ast.Between _; Ast.Like _; Ast.Is_null (_, false) ] -> ()
  | _ -> Alcotest.fail "expected between/like/is-not-null"

let test_set_operations () =
  (match parse_q "SELECT a FROM R INTERSECT SELECT b FROM S" with
  | Ast.Intersect (Ast.Select _, Ast.Select _) -> ()
  | _ -> Alcotest.fail "intersect");
  (match parse_q "SELECT a FROM R UNION ALL SELECT b FROM S" with
  | Ast.Union _ -> ()
  | _ -> Alcotest.fail "union");
  match parse_q "SELECT a FROM R MINUS SELECT b FROM S" with
  | Ast.Except _ -> ()
  | _ -> Alcotest.fail "minus"

let test_join_on_normalized () =
  let s =
    select_of
      (parse_q "SELECT a FROM R INNER JOIN S ON R.a = S.b WHERE R.c = 1")
  in
  Alcotest.(check int) "both relations in from" 2 (List.length s.Ast.from);
  match s.Ast.where with
  | Some w -> Alcotest.(check int) "on folded into where" 2
      (List.length (Ast.cond_conjuncts w))
  | None -> Alcotest.fail "expected where"

let test_aggregates_group_order () =
  let s =
    select_of
      (parse_q
         "SELECT dep, COUNT(DISTINCT emp) FROM R GROUP BY dep ORDER BY dep \
          DESC")
  in
  (match s.Ast.projections with
  | [ Ast.Proj _; Ast.Agg (Ast.Count (true, { col = "emp"; _ }), None) ] -> ()
  | _ -> Alcotest.fail "agg shape");
  Alcotest.(check int) "group by" 1 (List.length s.Ast.group_by);
  match s.Ast.order_by with
  | [ (_, `Desc) ] -> ()
  | _ -> Alcotest.fail "order by desc"

let test_host_variable () =
  let s = select_of (parse_q "SELECT a FROM R WHERE a = :w-emp") in
  match s.Ast.where with
  | Some (Ast.Cmp (Ast.Eq, _, Ast.Host (":w-emp", _))) -> ()
  | _ -> Alcotest.fail "expected host variable"

let test_create_table () =
  match
    parse
      "CREATE TABLE T (id INT PRIMARY KEY, name VARCHAR(10) NOT NULL, dep \
       INT REFERENCES D(id), UNIQUE (name), FOREIGN KEY (dep) REFERENCES D \
       (id))"
  with
  | Ast.Create ct ->
      Alcotest.(check string) "name" "T" ct.Ast.ct_name;
      Alcotest.(check int) "columns" 3 (List.length ct.Ast.columns);
      Alcotest.(check int) "constraints" 2 (List.length ct.Ast.constraints)
  | _ -> Alcotest.fail "expected create"

let test_insert_update_delete () =
  (match parse "INSERT INTO T (a, b) VALUES (1, 'x'), (2, 'y')" with
  | Ast.Insert ("T", Some [ "a"; "b" ], rows) ->
      Alcotest.(check int) "two rows" 2 (List.length rows)
  | _ -> Alcotest.fail "insert");
  (match parse "UPDATE T SET a = 1 WHERE b = 2" with
  | Ast.Update ("T", [ ("a", Ast.Lit _) ], Some _) -> ()
  | _ -> Alcotest.fail "update");
  match parse "DELETE FROM T WHERE a = 1" with
  | Ast.Delete ("T", Some _) -> ()
  | _ -> Alcotest.fail "delete"

let test_script () =
  let stmts = Helpers.parse_script "SELECT a FROM R; ; SELECT b FROM S;" in
  Alcotest.(check int) "two statements" 2 (List.length stmts)

let test_errors () =
  List.iter
    (fun input ->
      match Parser.parse_statement input with
      | Ok _ -> Alcotest.failf "expected parse error for %S" input
      | Error _ -> ())
    [
      "SELECT FROM R";
      "SELECT a FROM";
      "SELECT a FROM R WHERE";
      "SELECT a FROM R extra garbage )";
      "CREATE TABLE (x INT)";
    ]

let test_keyword_as_name () =
  (* legacy schemas use reserved-ish words as column names *)
  let s = select_of (parse_q "SELECT no, date FROM HEmployee") in
  Alcotest.(check int) "projections" 2 (List.length s.Ast.projections)

let suite =
  [
    Alcotest.test_case "basic select" `Quick test_basic_select;
    Alcotest.test_case "distinct star" `Quick test_distinct_star;
    Alcotest.test_case "qualified cols and aliases" `Quick test_qualified_and_alias;
    Alcotest.test_case "where conjunction" `Quick test_where_conjunction;
    Alcotest.test_case "or precedence" `Quick test_or_precedence;
    Alcotest.test_case "in subquery" `Quick test_in_subquery;
    Alcotest.test_case "in list / not in" `Quick test_in_list_not_in;
    Alcotest.test_case "exists" `Quick test_exists_correlated;
    Alcotest.test_case "between like is-null" `Quick test_between_like_is_null;
    Alcotest.test_case "set operations" `Quick test_set_operations;
    Alcotest.test_case "join-on normalization" `Quick test_join_on_normalized;
    Alcotest.test_case "aggregates group order" `Quick test_aggregates_group_order;
    Alcotest.test_case "host variables" `Quick test_host_variable;
    Alcotest.test_case "create table" `Quick test_create_table;
    Alcotest.test_case "insert update delete" `Quick test_insert_update_delete;
    Alcotest.test_case "script" `Quick test_script;
    Alcotest.test_case "parse errors" `Quick test_errors;
    Alcotest.test_case "keywords as names" `Quick test_keyword_as_name;
  ]
