open Relational
open Helpers
open Reference

let db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] "R" [ "id"; "v" ],
        [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 3; vs "a" ] ] );
      ( Relation.make ~uniques:[ [ "k" ] ] "S" [ "k"; "w" ],
        [ [ vi 2; vs "x" ]; [ vi 3; vs "y" ]; [ vi 4; vs "z" ] ] );
    ]

let rows e = (Algebra.eval (db ()) e).Algebra.rows
let cols e = (Algebra.eval (db ()) e).Algebra.cols

let test_rel_project () =
  Alcotest.(check int) "base rows" 3 (List.length (rows (Algebra.Rel "R")));
  let p = Algebra.Project ([ "v" ], Algebra.Rel "R") in
  Alcotest.(check (list string)) "cols" [ "v" ] (cols p);
  Alcotest.(check int) "bag semantics keeps dups" 3 (List.length (rows p));
  Alcotest.(check int) "distinct" 2
    (List.length (rows (Algebra.Distinct p)))

let test_select () =
  let e =
    Algebra.Select
      ( Algebra.Cmp (Algebra.Eq, Algebra.Col "v", Algebra.Const (vs "a")),
        Algebra.Rel "R" )
  in
  Alcotest.(check int) "matching rows" 2 (List.length (rows e));
  let gt =
    Algebra.Select
      ( Algebra.Cmp (Algebra.Gt, Algebra.Col "id", Algebra.Const (vi 1)),
        Algebra.Rel "R" )
  in
  Alcotest.(check int) "gt" 2 (List.length (rows gt))

let test_null_comparisons () =
  let dbn =
    database
      [ (Relation.make "N" [ "a" ], [ [ vnull ]; [ vi 1 ] ]) ]
  in
  let eval e = (Algebra.eval dbn e).Algebra.rows in
  let eq_null =
    Algebra.Select
      ( Algebra.Cmp (Algebra.Eq, Algebra.Col "a", Algebra.Const vnull),
        Algebra.Rel "N" )
  in
  Alcotest.(check int) "= NULL never matches" 0 (List.length (eval eq_null));
  let is_null = Algebra.Select (Algebra.Is_null (Algebra.Col "a"), Algebra.Rel "N") in
  Alcotest.(check int) "IS NULL matches" 1 (List.length (eval is_null))

let test_equijoin () =
  let j = Algebra.Equijoin ([ ("id", "k") ], Algebra.Rel "R", Algebra.Rel "S") in
  Alcotest.(check (list string)) "right join col dropped" [ "id"; "v"; "w" ] (cols j);
  Alcotest.(check int) "matches" 2 (List.length (rows j))

let test_product_clash () =
  Alcotest.(check int) "product size" 9
    (List.length (rows (Algebra.Product (Algebra.Rel "R", Algebra.Rel "S"))));
  ignore
    (Helpers.expect_error "self product clashes" Error.Invariant (fun () ->
         rows (Algebra.Product (Algebra.Rel "R", Algebra.Rel "R"))));
  (* rename resolves the clash *)
  let renamed =
    Algebra.Product
      ( Algebra.Rel "R",
        Algebra.Rename ([ ("id", "id2"); ("v", "v2") ], Algebra.Rel "R") )
  in
  Alcotest.(check int) "self product via rename" 9 (List.length (rows renamed))

let test_set_ops () =
  let p1 = Algebra.Project ([ "id" ], Algebra.Rel "R") in
  let p2 = Algebra.Project ([ "k" ], Algebra.Rel "S") in
  Alcotest.(check int) "inter" 2 (List.length (rows (Algebra.Inter (p1, p2))));
  Alcotest.(check int) "union" 4 (List.length (rows (Algebra.Union (p1, p2))));
  Alcotest.(check int) "diff" 1 (List.length (rows (Algebra.Diff (p1, p2))));
  ignore
    (Helpers.expect_error "set-op arity mismatch" Error.Invariant (fun () ->
         rows (Algebra.Inter (Algebra.Rel "R", p2))))

let test_unknown () =
  let e =
    Helpers.expect_error "unknown relation" Error.Unknown_relation (fun () ->
        rows (Algebra.Rel "Ghost"))
  in
  Alcotest.(check (option string)) "names the relation" (Some "Ghost")
    e.Error.relation;
  let e =
    Helpers.expect_error "unknown column" Error.Unknown_column (fun () ->
        rows (Algebra.Project ([ "ghost" ], Algebra.Rel "R")))
  in
  Alcotest.(check (option string)) "names the column" (Some "ghost")
    e.Error.attribute

let test_join_null_semantics () =
  let dbn =
    database
      [
        (Relation.make "A" [ "x" ], [ [ vnull ]; [ vi 1 ] ]);
        (Relation.make "B" [ "y" ], [ [ vnull ]; [ vi 1 ] ]);
      ]
  in
  let j = Algebra.Equijoin ([ ("x", "y") ], Algebra.Rel "A", Algebra.Rel "B") in
  Alcotest.(check int) "null never joins" 1
    (List.length (Algebra.eval dbn j).Algebra.rows)

let suite =
  [
    Alcotest.test_case "rel, project, distinct" `Quick test_rel_project;
    Alcotest.test_case "select" `Quick test_select;
    Alcotest.test_case "null comparisons" `Quick test_null_comparisons;
    Alcotest.test_case "equijoin" `Quick test_equijoin;
    Alcotest.test_case "product and clash" `Quick test_product_clash;
    Alcotest.test_case "set operations" `Quick test_set_ops;
    Alcotest.test_case "unknown names" `Quick test_unknown;
    Alcotest.test_case "join null semantics" `Quick test_join_null_semantics;
  ]
