open Relational
open Helpers
open Dbre

let schema () =
  Schema.of_relations
    [
      Relation.make ~uniques:[ [ "id" ] ] "P" [ "id"; "v" ];
      Relation.make ~uniques:[ [ "no"; "d" ] ] "E" [ "no"; "d"; "s" ];
      Relation.make "S0" [ "k" ];
      Relation.make ~uniques:[ [ "dep" ] ] "D" [ "dep"; "x" ];
    ]

let run inds = Lhs_discovery.run ~schema:(schema ()) ~s_names:[ "S0" ] inds

let test_non_key_sides_become_lhs () =
  let r = run [ ind ("E", [ "no" ]) ("P", [ "id" ]) ] in
  Alcotest.(check (list attr)) "lhs" [ Attribute.single "E" "no" ] r.Lhs_discovery.lhs;
  Alcotest.(check (list attr)) "no hidden" [] r.Lhs_discovery.hidden

let test_key_sides_skipped () =
  let r = run [ ind ("P", [ "id" ]) ("D", [ "dep" ]) ] in
  Alcotest.(check (list attr)) "both keys: nothing" [] r.Lhs_discovery.lhs

let test_part_of_key_is_non_key () =
  (* E.no is part of the composite key {no, d}: still a candidate *)
  let r = run [ ind ("E", [ "no" ]) ("D", [ "dep" ]) ] in
  Alcotest.(check (list attr)) "part of key" [ Attribute.single "E" "no" ]
    r.Lhs_discovery.lhs

let test_s_relation_feeds_hidden () =
  let r =
    run
      [
        ind ("S0", [ "k" ]) ("E", [ "no" ]);
        ind ("S0", [ "k" ]) ("D", [ "dep" ]);
      ]
  in
  Alcotest.(check (list attr)) "non-key rhs becomes hidden"
    [ Attribute.single "E" "no" ]
    r.Lhs_discovery.hidden;
  Alcotest.(check (list attr)) "key rhs skipped, S side never lhs" []
    r.Lhs_discovery.lhs

let test_hidden_wins_over_lhs () =
  let r =
    run
      [
        ind ("E", [ "no" ]) ("P", [ "id" ]);
        ind ("S0", [ "k" ]) ("E", [ "no" ]);
      ]
  in
  Alcotest.(check (list attr)) "kept in hidden only"
    [ Attribute.single "E" "no" ]
    r.Lhs_discovery.hidden;
  Alcotest.(check (list attr)) "removed from lhs" [] r.Lhs_discovery.lhs

let test_dedup () =
  let r =
    run [ ind ("E", [ "no" ]) ("P", [ "id" ]); ind ("E", [ "no" ]) ("D", [ "dep" ]) ]
  in
  Alcotest.(check int) "once" 1 (List.length r.Lhs_discovery.lhs)

let test_paper_sets () =
  (* the §6.2.1 worked result *)
  let result = Helpers.paper () in
  let lhs_strs =
    List.map Attribute.to_string result.Pipeline.lhs_result.Lhs_discovery.lhs
  in
  Alcotest.(check (list string)) "LHS"
    [
      "HEmployee.no"; "Department.emp"; "Assignment.emp"; "Department.proj";
      "Assignment.proj";
    ]
    lhs_strs;
  Alcotest.(check (list string)) "H"
    [ "Assignment.dep" ]
    (List.map Attribute.to_string
       result.Pipeline.lhs_result.Lhs_discovery.hidden)

let suite =
  [
    Alcotest.test_case "non-key sides" `Quick test_non_key_sides_become_lhs;
    Alcotest.test_case "key sides skipped" `Quick test_key_sides_skipped;
    Alcotest.test_case "part of key qualifies" `Quick test_part_of_key_is_non_key;
    Alcotest.test_case "S relations feed H" `Quick test_s_relation_feeds_hidden;
    Alcotest.test_case "hidden wins over lhs" `Quick test_hidden_wins_over_lhs;
    Alcotest.test_case "dedup" `Quick test_dedup;
    Alcotest.test_case "paper worked sets" `Quick test_paper_sets;
  ]
