(* Legacy-query rewriting: queries over the 1NF schema keep their answers
   when rewritten against the restructured 3NF schema and run on the
   migrated data. *)

open Relational
open Dbre

let setup () =
  let result = Helpers.paper () in
  let plan = Rewrite.plan result in
  let migrated = Option.get result.Pipeline.restruct_result.Restruct.database in
  (plan, migrated)

let state = lazy (setup ())

let rewrite plan sql = Helpers.sql_ok (Rewrite.sql plan sql)

let rows_of db sql = (Reference.Exec.run_string db sql).Reference.Algebra.rows

(* answers over the ORIGINAL database vs the rewritten query over the
   MIGRATED database must agree as multisets *)
let check_equivalent ?(only_non_null_lhs = false) name sql =
  let plan, migrated = Lazy.force state in
  let original_db = Workload.Paper_example.database () in
  let rewritten = rewrite plan sql in
  let before = List.sort compare (rows_of original_db sql) in
  let after = List.sort compare (rows_of migrated rewritten) in
  let before =
    (* rows whose split-join key was NULL lose their (all-NULL) moved
       values after the rewrite: drop all-null rows when asked *)
    if only_non_null_lhs then
      List.filter (fun row -> not (List.for_all Value.is_null row)) before
    else before
  in
  Alcotest.(check int) (name ^ ": cardinality") (List.length before)
    (List.length after);
  Alcotest.(check bool) (name ^ ": same rows") true (before = after)

let test_untouched_query_unchanged () =
  let plan, _ = Lazy.force state in
  let sql = "SELECT name FROM Person WHERE id = 3" in
  Alcotest.(check string) "no change" sql (rewrite plan sql)

let test_moved_projection () =
  let plan, _ = Lazy.force state in
  let rewritten = rewrite plan "SELECT skill FROM Department" in
  Alcotest.(check string) "join added"
    "SELECT __dbre0.skill FROM Department, Manager __dbre0 WHERE \
     Department.emp = __dbre0.emp"
    rewritten

let test_moved_in_where () =
  let plan, _ = Lazy.force state in
  let rewritten =
    rewrite plan "SELECT dep FROM Department WHERE proj = 'pr001'"
  in
  Alcotest.(check string) "where requalified"
    "SELECT Department.dep FROM Department, Manager __dbre0 WHERE \
     __dbre0.proj = 'pr001' AND Department.emp = __dbre0.emp"
    rewritten

let test_equivalence_projection () =
  (* departments 151..180 have NULL emp and hence NULL skill: they drop
     out after the rewrite, as a join would in any SQL engine *)
  check_equivalent ~only_non_null_lhs:true "skill projection"
    "SELECT skill FROM Department"

let test_equivalence_where () =
  check_equivalent "filter on moved attr"
    "SELECT dep FROM Department WHERE proj = 'pr001' ORDER BY dep"

let test_equivalence_mixed_columns () =
  check_equivalent "moved + kept columns"
    "SELECT dep, skill FROM Department WHERE emp = 7"

let test_equivalence_project_name () =
  check_equivalent "assignment project names"
    "SELECT DISTINCT project-name FROM Assignment WHERE emp = 12"

let test_equivalence_join_query () =
  check_equivalent "legacy join still works"
    "SELECT name FROM Person, HEmployee WHERE HEmployee.no = Person.id AND \
     HEmployee.salary > 1400 ORDER BY name"

let test_subquery_rewritten () =
  let plan, _ = Lazy.force state in
  let rewritten =
    rewrite plan
      "SELECT name FROM Person WHERE id IN (SELECT emp FROM Department \
       WHERE skill = 'sk-7')"
  in
  Alcotest.(check bool) "subquery gained the join" true
    (let needle = "Manager __dbre0" in
     let nl = String.length needle and l = String.length rewritten in
     let rec go i = i + nl <= l && (String.sub rewritten i nl = needle || go (i + 1)) in
     go 0)

let test_equivalence_subquery () =
  check_equivalent "subquery on moved attr"
    "SELECT name FROM Person WHERE id IN (SELECT emp FROM Department WHERE \
     skill = 'sk-7')"

(* a subquery's reference to a moved column of an outer FROM entry
   requalifies onto the join the outer select gains *)
let test_correlated_rewritten () =
  let plan, _ = Lazy.force state in
  Alcotest.(check string) "outer entry gained the join"
    "SELECT d.dep FROM Department d, Manager __dbre0 WHERE EXISTS (SELECT * \
     FROM Person p WHERE p.id = d.emp AND __dbre0.skill = 'sk-7') AND \
     d.emp = __dbre0.emp"
    (rewrite plan
       "SELECT d.dep FROM Department d WHERE EXISTS (SELECT * FROM Person p \
        WHERE p.id = d.emp AND d.skill = 'sk-7')")

let test_equivalence_correlated_exists () =
  check_equivalent "correlated EXISTS on moved attr"
    "SELECT d.dep FROM Department d WHERE EXISTS (SELECT * FROM Person p \
     WHERE p.id = d.emp AND d.skill = 'sk-7')"

let test_equivalence_correlated_in () =
  check_equivalent "correlated IN on moved attr"
    "SELECT d.dep FROM Department d WHERE d.emp IN (SELECT p.id FROM Person \
     p WHERE p.name = d.skill)"

let test_aggregate_rewrite () =
  check_equivalent "aggregate over moved attr"
    "SELECT COUNT(DISTINCT skill) FROM Department"

let test_alias_respected () =
  let plan, _ = Lazy.force state in
  let rewritten =
    rewrite plan "SELECT d.skill FROM Department d WHERE d.dep = 'd001'"
  in
  Alcotest.(check string) "user alias preserved"
    "SELECT __dbre0.skill FROM Department d, Manager __dbre0 WHERE d.dep = \
     'd001' AND d.emp = __dbre0.emp"
    rewritten

let suite =
  [
    Alcotest.test_case "untouched query unchanged" `Quick test_untouched_query_unchanged;
    Alcotest.test_case "moved projection" `Quick test_moved_projection;
    Alcotest.test_case "moved in where" `Quick test_moved_in_where;
    Alcotest.test_case "equivalence: projection" `Quick test_equivalence_projection;
    Alcotest.test_case "equivalence: where" `Quick test_equivalence_where;
    Alcotest.test_case "equivalence: mixed columns" `Quick test_equivalence_mixed_columns;
    Alcotest.test_case "equivalence: project-name" `Quick test_equivalence_project_name;
    Alcotest.test_case "equivalence: legacy join" `Quick test_equivalence_join_query;
    Alcotest.test_case "subquery rewritten" `Quick test_subquery_rewritten;
    Alcotest.test_case "equivalence: subquery" `Quick test_equivalence_subquery;
    Alcotest.test_case "aggregate" `Quick test_aggregate_rewrite;
    Alcotest.test_case "alias respected" `Quick test_alias_respected;
    Alcotest.test_case "correlated reference rewritten" `Quick test_correlated_rewritten;
    Alcotest.test_case "equivalence: correlated EXISTS" `Quick
      test_equivalence_correlated_exists;
    Alcotest.test_case "equivalence: correlated IN" `Quick test_equivalence_correlated_in;
  ]
