open Relational
open Helpers
open Sqlx
open Support

let schema () =
  Schema.of_relations
    [
      Relation.make ~uniques:[ [ "id" ] ] "P" [ "id" ];
      Relation.make "E" [ "no"; "x" ];
      Relation.make "A" [ "emp"; "dep" ];
      Relation.make "Lonely" [ "z" ];
      Relation.make "Island1" [ "k" ];
      Relation.make "Island2" [ "k" ];
    ]

let corpus =
  [
    "SELECT id FROM P, E WHERE E.no = P.id;";
    "SELECT id FROM P, E WHERE E.no = P.id;";
    "SELECT emp FROM A, E WHERE A.emp = E.no;";
    "SELECT k FROM Island1 i1, Island2 i2 WHERE i1.k = i2.k;";
  ]

let graph () = Navigation.of_corpus (schema ()) corpus

let test_nodes_edges () =
  let g = graph () in
  Alcotest.(check (list string)) "nodes"
    [ "A"; "E"; "Island1"; "Island2"; "P" ]
    (Navigation.relations g);
  match Navigation.edges g with
  | [ e1; e2; e3 ] ->
      Alcotest.(check int) "most frequent first" 2 e1.Navigation.count;
      Alcotest.(check equijoin_t) "its join"
        (Equijoin.make ("E", [ "no" ]) ("P", [ "id" ]))
        e1.Navigation.join;
      Alcotest.(check int) "others once" 1 e2.Navigation.count;
      Alcotest.(check int) "others once" 1 e3.Navigation.count
  | es -> Alcotest.failf "expected 3 edges, got %d" (List.length es)

let test_neighbors_degree () =
  let g = graph () in
  Alcotest.(check (list (pair string int))) "E's neighbors by weight"
    [ ("P", 2); ("A", 1) ]
    (Navigation.neighbors g "E");
  Alcotest.(check int) "degree" 3 (Navigation.degree g "E");
  Alcotest.(check int) "absent relation" 0 (Navigation.degree g "Lonely")

let test_components () =
  Alcotest.(check (list (list string))) "two islands"
    [ [ "A"; "E"; "P" ]; [ "Island1"; "Island2" ] ]
    (Navigation.components (graph ()))

let test_never_navigated () =
  Alcotest.(check (list string)) "lonely relation" [ "Lonely" ]
    (Navigation.never_navigated (graph ()) (schema ()))

let test_self_join () =
  let g =
    Navigation.of_corpus (schema ())
      [ "SELECT e1.no FROM E e1, E e2 WHERE e1.x = e2.x;" ]
  in
  Alcotest.(check (list string)) "one node" [ "E" ] (Navigation.relations g);
  Alcotest.(check (list (pair string int))) "self neighbor"
    [ ("E", 1) ]
    (Navigation.neighbors g "E");
  Alcotest.(check (list (list string))) "single component" [ [ "E" ] ]
    (Navigation.components g)

let test_pp () =
  let s = Format.asprintf "%a" Navigation.pp (graph ()) in
  Alcotest.(check bool) "mentions counts" true
    (String.length s > 0
    &&
    let needle = "2x" in
    let nl = String.length needle and l = String.length s in
    let rec go i = i + nl <= l && (String.sub s i nl = needle || go (i + 1)) in
    go 0)

let suite =
  [
    Alcotest.test_case "nodes and edges" `Quick test_nodes_edges;
    Alcotest.test_case "neighbors and degree" `Quick test_neighbors_degree;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "never navigated" `Quick test_never_navigated;
    Alcotest.test_case "self join" `Quick test_self_join;
    Alcotest.test_case "pretty printing" `Quick test_pp;
  ]
