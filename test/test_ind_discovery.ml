open Relational
open Helpers
open Deps
open Dbre

(* a small world: E.no ⊆ P.id; A.k and B.k overlap partially *)
let db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] "P" [ "id" ],
        [ [ vi 1 ]; [ vi 2 ]; [ vi 3 ] ] );
      (Relation.make "E" [ "no" ], [ [ vi 1 ]; [ vi 2 ] ]);
      (Relation.make "A" [ "k" ], [ [ vi 1 ]; [ vi 5 ] ]);
      (Relation.make "B" [ "k" ], [ [ vi 1 ]; [ vi 6 ] ]);
      (Relation.make "Z" [ "w" ], [ [ vi 100 ] ]);
    ]

let ej l r = Sqlx.Equijoin.make l r

let test_inclusion_case () =
  let r = Ind_discovery.run Oracle.automatic (db ()) [ ej ("E", [ "no" ]) ("P", [ "id" ]) ] in
  check_sorted_inds "one ind" [ ind ("E", [ "no" ]) ("P", [ "id" ]) ]
    r.Ind_discovery.inds;
  match r.Ind_discovery.steps with
  | [ { Ind_discovery.case = Ind_discovery.Included [ _ ]; counts; _ } ] ->
      Alcotest.(check int) "n_join" 2 counts.Ind.n_join
  | _ -> Alcotest.fail "expected one included step"

let test_equal_sets_both_directions () =
  let db =
    database
      [
        (Relation.make "X" [ "a" ], [ [ vi 1 ]; [ vi 2 ] ]);
        (Relation.make "Y" [ "b" ], [ [ vi 1 ]; [ vi 2 ] ]);
      ]
  in
  let r = Ind_discovery.run Oracle.automatic db [ ej ("X", [ "a" ]) ("Y", [ "b" ]) ] in
  check_sorted_inds "both directions"
    [ ind ("X", [ "a" ]) ("Y", [ "b" ]); ind ("Y", [ "b" ]) ("X", [ "a" ]) ]
    r.Ind_discovery.inds

let test_empty_intersection () =
  let r =
    Ind_discovery.run Oracle.automatic (db ())
      [ ej ("Z", [ "w" ]) ("P", [ "id" ]) ]
  in
  Alcotest.(check (list ind_t)) "nothing" [] r.Ind_discovery.inds;
  match r.Ind_discovery.steps with
  | [ { Ind_discovery.case = Ind_discovery.Empty_intersection; _ } ] -> ()
  | _ -> Alcotest.fail "expected empty-intersection case"

let test_nei_ignored () =
  let r =
    Ind_discovery.run Oracle.automatic (db ()) [ ej ("A", [ "k" ]) ("B", [ "k" ]) ]
  in
  Alcotest.(check (list ind_t)) "ignored" [] r.Ind_discovery.inds

let test_nei_forced () =
  let o = { Oracle.automatic with Oracle.on_nei = (fun _ -> Oracle.Force_left_in_right) } in
  let r = Ind_discovery.run o (db ()) [ ej ("A", [ "k" ]) ("B", [ "k" ]) ] in
  check_sorted_inds "forced" [ ind ("A", [ "k" ]) ("B", [ "k" ]) ] r.Ind_discovery.inds

let test_nei_conceptualized () =
  let o = { Oracle.automatic with Oracle.on_nei = (fun _ -> Oracle.Conceptualize "AB") } in
  let db = db () in
  let r = Ind_discovery.run o db [ ej ("A", [ "k" ]) ("B", [ "k" ]) ] in
  (match r.Ind_discovery.new_relations with
  | [ rel ] ->
      Alcotest.(check string) "name" "AB" rel.Relation.name;
      Alcotest.(check bool) "registered in schema" true
        (Schema.mem (Database.schema db) "AB");
      (* extension is the intersection {1} *)
      Alcotest.(check int) "materialized intersection" 1
        (Database.cardinality db "AB");
      Alcotest.(check bool) "full attr set is key" true
        (Relation.is_key rel [ "k" ])
  | _ -> Alcotest.fail "expected one new relation");
  check_sorted_inds "two INDs"
    [ ind ("AB", [ "k" ]) ("A", [ "k" ]); ind ("AB", [ "k" ]) ("B", [ "k" ]) ]
    r.Ind_discovery.inds;
  (* both new INDs hold on the materialized extension *)
  List.iter
    (fun i ->
      Alcotest.(check bool) (Ind.to_string i ^ " holds") true (Ind.satisfied db i))
    r.Ind_discovery.inds

let test_name_collision_resolved () =
  let o = { Oracle.automatic with Oracle.on_nei = (fun _ -> Oracle.Conceptualize "P") } in
  let db = db () in
  let r = Ind_discovery.run o db [ ej ("A", [ "k" ]) ("B", [ "k" ]) ] in
  match r.Ind_discovery.new_relations with
  | [ rel ] ->
      Alcotest.(check string) "fresh name" "P_1" rel.Relation.name
  | _ -> Alcotest.fail "expected one new relation"

let test_unknown_relation_skipped () =
  let r =
    Ind_discovery.run Oracle.automatic (db ())
      [ ej ("Ghost", [ "g" ]) ("P", [ "id" ]) ]
  in
  Alcotest.(check (list ind_t)) "skipped" [] r.Ind_discovery.inds;
  Alcotest.(check int) "recorded as step" 1 (List.length r.Ind_discovery.steps)

let test_duplicate_joins_deduped () =
  let q = ej ("E", [ "no" ]) ("P", [ "id" ]) in
  let r = Ind_discovery.run Oracle.automatic (db ()) [ q; q ] in
  Alcotest.(check int) "one ind" 1 (List.length r.Ind_discovery.inds);
  Alcotest.(check int) "two steps" 2 (List.length r.Ind_discovery.steps)

let test_paper_counts () =
  (* the §6.1 worked numbers *)
  let db = Workload.Paper_example.database () in
  let r =
    Ind_discovery.run
      (Oracle.of_mode (Scripted Workload.Paper_example.oracle_script))
      db (Workload.Paper_example.equijoins ())
  in
  match r.Ind_discovery.steps with
  | { Ind_discovery.counts = c1; _ } :: _ ->
      Alcotest.(check int) "||HEmployee[no]||" 1550 c1.Ind.n_left;
      Alcotest.(check int) "||Person[id]||" 2200 c1.Ind.n_right;
      Alcotest.(check int) "join" 1550 c1.Ind.n_join
  | [] -> Alcotest.fail "no steps"

let suite =
  [
    Alcotest.test_case "inclusion elicited" `Quick test_inclusion_case;
    Alcotest.test_case "equal sets both directions" `Quick test_equal_sets_both_directions;
    Alcotest.test_case "empty intersection" `Quick test_empty_intersection;
    Alcotest.test_case "NEI ignored" `Quick test_nei_ignored;
    Alcotest.test_case "NEI forced" `Quick test_nei_forced;
    Alcotest.test_case "NEI conceptualized" `Quick test_nei_conceptualized;
    Alcotest.test_case "name collision" `Quick test_name_collision_resolved;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation_skipped;
    Alcotest.test_case "duplicates deduped" `Quick test_duplicate_joins_deduped;
    Alcotest.test_case "paper worked counts" `Quick test_paper_counts;
  ]
