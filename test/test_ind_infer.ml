open Relational
open Helpers
open Deps

let db () =
  database
    [
      ( Relation.make
          ~domains:[ ("id", Domain.Int); ("name", Domain.String) ]
          ~uniques:[ [ "id" ] ] "P" [ "id"; "name" ],
        [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 3; vs "c" ] ] );
      ( Relation.make ~domains:[ ("no", Domain.Int) ] "E" [ "no" ],
        [ [ vi 1 ]; [ vi 2 ] ] );
      ( Relation.make ~domains:[ ("tag", Domain.String) ] "T" [ "tag" ],
        [ [ vs "a" ] ] );
    ]

let test_discover_unary () =
  let inds, stats = Ind_infer.discover_unary (db ()) in
  (* expected: E.no << P.id, T.tag << P.name *)
  check_sorted_inds "found"
    [ ind ("E", [ "no" ]) ("P", [ "id" ]); ind ("T", [ "tag" ]) ("P", [ "name" ]) ]
    inds;
  Alcotest.(check int) "pairs considered" 12 stats.Ind_infer.pairs_considered;
  (* domain filter prunes int/string pairs *)
  Alcotest.(check bool) "domain filter prunes" true
    (stats.Ind_infer.pairs_tested < stats.Ind_infer.pairs_considered)

(* sizes that allow inclusions the values refute: each left column's
   first dictionary value is missing on the right *)
let near_misses () =
  database
    [
      ( Relation.make ~domains:[ ("x", Domain.Int); ("s", Domain.String) ] "A"
          [ "x"; "s" ],
        [ [ vi 7; vs "1" ]; [ vi 1; vs "b" ] ] );
      ( Relation.make ~domains:[ ("y", Domain.Int); ("t", Domain.String) ] "B"
          [ "y"; "t" ],
        [ [ vi 1; vs "b" ]; [ vi 2; vs "c" ]; [ vi 3; vnull ] ] );
    ]

let test_agrees_with_brute () =
  List.iter
    (fun db ->
      let fast, _ = Ind_infer.discover_unary db in
      let brute = Reference.Counts.discover_unary_brute db in
      check_sorted_inds "agreement" brute fast)
    [ db (); near_misses () ]

let test_empty_attr_not_included () =
  (* an attribute with only NULLs has an empty value set: no vacuous INDs *)
  let db =
    database
      [
        (Relation.make ~domains:[ ("a", Domain.Int) ] "A" [ "a" ], [ [ vnull ] ]);
        (Relation.make ~domains:[ ("b", Domain.Int) ] "B" [ "b" ], [ [ vi 1 ] ]);
      ]
  in
  let inds, _ = Ind_infer.discover_unary db in
  Alcotest.(check (list ind_t)) "no vacuous INDs" [] inds

let test_guidance_saving () =
  (* the B2 claim: query-guided testing touches far fewer pairs *)
  let g = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
  let _, stats = Ind_infer.discover_unary g.Workload.Gen_schema.db in
  let guided = List.length g.Workload.Gen_schema.equijoins in
  Alcotest.(check bool) "guided << exhaustive" true
    (guided * 10 < stats.Ind_infer.pairs_tested)

let suite =
  [
    Alcotest.test_case "discover unary" `Quick test_discover_unary;
    Alcotest.test_case "agrees with brute force" `Quick test_agrees_with_brute;
    Alcotest.test_case "null-only attribute" `Quick test_empty_attr_not_included;
    Alcotest.test_case "guidance saving" `Quick test_guidance_saving;
  ]
