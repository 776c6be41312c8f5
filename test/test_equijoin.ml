open Relational
open Helpers
open Sqlx

let schema () =
  Schema.of_relations
    [
      Relation.make ~uniques:[ [ "id" ] ] "Person" [ "id"; "name"; "zip" ];
      Relation.make ~uniques:[ [ "no"; "date" ] ] "HEmployee"
        [ "no"; "date"; "salary" ];
      Relation.make ~uniques:[ [ "dep" ] ] "Department" [ "dep"; "emp"; "proj" ];
      Relation.make
        ~uniques:[ [ "emp"; "dep"; "proj" ] ]
        "Assignment" [ "emp"; "dep"; "proj"; "date" ];
    ]

let extract sql =
  Equijoin.dedupe
    (List.concat_map (Equijoin.of_statement (schema ())) (parse_script sql))

let ej l r = Equijoin.make l r

let check = Alcotest.(check (list equijoin_t))

let test_where_equality () =
  check "qualified where equality"
    [ ej ("HEmployee", [ "no" ]) ("Person", [ "id" ]) ]
    (extract
       "SELECT name FROM Person, HEmployee WHERE HEmployee.no = Person.id")

let test_unqualified_resolution () =
  (* 'no' only lives in HEmployee, 'id' only in Person *)
  check "unqualified columns resolved through schema"
    [ ej ("HEmployee", [ "no" ]) ("Person", [ "id" ]) ]
    (extract "SELECT name FROM Person, HEmployee WHERE no = id")

let test_aliases () =
  check "alias resolution"
    [ ej ("Department", [ "emp" ]) ("HEmployee", [ "no" ]) ]
    (extract "SELECT d.dep FROM Department d, HEmployee h WHERE d.emp = h.no")

let test_multi_attribute_merge () =
  check "several equalities between same pair merge"
    [ ej ("Assignment", [ "dep"; "emp" ]) ("Department", [ "dep"; "emp" ]) ]
    (extract
       "SELECT * FROM Assignment a, Department t WHERE a.emp = t.emp AND \
        a.dep = t.dep")

let test_constant_filters_ignored () =
  check "constants and host vars are not joins" []
    (extract "SELECT name FROM Person WHERE id = 3 AND name = :h")

let test_in_subquery () =
  check "IN subquery"
    [ ej ("Assignment", [ "emp" ]) ("HEmployee", [ "no" ]) ]
    (extract
       "SELECT emp FROM Assignment WHERE emp IN (SELECT no FROM HEmployee \
        WHERE salary > 100)")

let test_exists_correlated () =
  check "correlated EXISTS"
    [ ej ("Assignment", [ "dep" ]) ("Department", [ "dep" ]) ]
    (extract
       "SELECT emp FROM Assignment a WHERE EXISTS (SELECT dep FROM \
        Department d WHERE d.dep = a.dep)")

let test_intersect () =
  check "INTERSECT"
    [ ej ("Department", [ "proj" ]) ("Assignment", [ "proj" ]) ]
    (extract "SELECT proj FROM Department INTERSECT SELECT proj FROM Assignment")

let test_or_not_skipped () =
  check "equalities under OR are skipped" []
    (extract
       "SELECT name FROM Person, HEmployee WHERE HEmployee.no = Person.id OR \
        Person.id = 3");
  (* the IN pair under NOT expresses exclusion, not navigation: no join is
     elicited there, but equalities inside the subquery itself are *)
  check "negated IN elicits nothing at the outer level" []
    (extract
       "SELECT emp FROM Assignment WHERE NOT (emp IN (SELECT no FROM \
        HEmployee))");
  check "join inside a negated subquery is still elicited"
    [ ej ("HEmployee", [ "no" ]) ("Person", [ "id" ]) ]
    (extract
       "SELECT emp FROM Assignment WHERE NOT (emp IN (SELECT no FROM \
        HEmployee, Person WHERE HEmployee.no = Person.id))")

let test_self_join () =
  check "self join distinct instances"
    [ ej ("Department", [ "proj" ]) ("Department", [ "proj" ]) ]
    (extract
       "SELECT d1.dep FROM Department d1, Department d2 WHERE d1.proj = \
        d2.proj AND d1.dep <> d2.dep")

(* the attribute pairs of a self-join are sorted before the side order
   is chosen: in order of appearance this would read
   Department[emp,proj] |X| Department[proj,dep] *)
let test_self_join_multi_attribute () =
  check "self join, several attributes"
    [ ej ("Department", [ "dep"; "proj" ]) ("Department", [ "proj"; "emp" ]) ]
    (extract
       "SELECT d1.dep FROM Department d1, Department d2 WHERE d1.dep = \
        d2.proj AND d1.proj = d2.emp")

let test_same_instance_equality_skipped () =
  check "equality within one instance is not a join" []
    (extract "SELECT dep FROM Department d WHERE d.emp = d.proj")

let test_unknown_relations_skipped () =
  check "unknown relation skipped" []
    (extract "SELECT x FROM Ghost g, Person p WHERE g.x = p.ghost_id")

let test_update_delete () =
  check "delete with correlated subquery"
    [ ej ("Assignment", [ "emp" ]) ("HEmployee", [ "no" ]) ]
    (extract
       "DELETE FROM Assignment WHERE emp IN (SELECT no FROM HEmployee)")

let test_canonical_equal () =
  Alcotest.(check equijoin_t)
    "orientation is canonical"
    (ej ("Person", [ "id" ]) ("HEmployee", [ "no" ]))
    (ej ("HEmployee", [ "no" ]) ("Person", [ "id" ]));
  Alcotest.(check equijoin_t)
    "pair order is canonical"
    (ej ("A", [ "x"; "y" ]) ("B", [ "u"; "v" ]))
    (ej ("B", [ "v"; "u" ]) ("A", [ "y"; "x" ]))

let test_corpus_counts () =
  let q = "SELECT name FROM Person, HEmployee WHERE HEmployee.no = Person.id" in
  let counted =
    Support.Navigation.count (schema ())
      (List.concat_map parse_script [ q; q; "SELECT name FROM Person" ])
  in
  match counted with
  | [ (j, 2) ] ->
      Alcotest.(check equijoin_t) "join" (ej ("HEmployee", [ "no" ]) ("Person", [ "id" ])) j
  | _ -> Alcotest.fail "expected one join counted twice"

let test_make_validation () =
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Equijoin.make: width mismatch") (fun () ->
      ignore (ej ("A", [ "x" ]) ("B", [ "u"; "v" ])));
  Alcotest.check_raises "empty side"
    (Invalid_argument "Equijoin.make: empty side") (fun () ->
      ignore (ej ("A", []) ("B", [])))

let suite =
  [
    Alcotest.test_case "where equality" `Quick test_where_equality;
    Alcotest.test_case "unqualified resolution" `Quick test_unqualified_resolution;
    Alcotest.test_case "aliases" `Quick test_aliases;
    Alcotest.test_case "multi-attribute merge" `Quick test_multi_attribute_merge;
    Alcotest.test_case "constants ignored" `Quick test_constant_filters_ignored;
    Alcotest.test_case "IN subquery" `Quick test_in_subquery;
    Alcotest.test_case "correlated EXISTS" `Quick test_exists_correlated;
    Alcotest.test_case "INTERSECT" `Quick test_intersect;
    Alcotest.test_case "OR/NOT handling" `Quick test_or_not_skipped;
    Alcotest.test_case "self join" `Quick test_self_join;
    Alcotest.test_case "same-instance equality" `Quick test_same_instance_equality_skipped;
    Alcotest.test_case "unknown relations" `Quick test_unknown_relations_skipped;
    Alcotest.test_case "update/delete statements" `Quick test_update_delete;
    Alcotest.test_case "canonical form" `Quick test_canonical_equal;
    Alcotest.test_case "corpus counting" `Quick test_corpus_counts;
    Alcotest.test_case "make validation" `Quick test_make_validation;
    Alcotest.test_case "self join, several attributes" `Quick
      test_self_join_multi_attribute;
  ]
