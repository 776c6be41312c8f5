open Relational
open Helpers
open Deps

let sample () =
  table "T" [ "a"; "b"; "c" ]
    [
      [ vi 1; vs "x"; vi 1 ];
      [ vi 2; vs "x"; vi 1 ];
      [ vi 3; vs "y"; vi 2 ];
      [ vi 4; vs "y"; vi 2 ];
    ]

let test_minimal_unique_sets () =
  (* a unique; (b,c) not unique; b,c alone not unique; bc not unique *)
  let keys, stats = Key_infer.minimal_unique_sets (sample ()) in
  Alcotest.(check (list names)) "only a" [ [ "a" ] ] keys;
  Alcotest.(check bool) "pruning skipped supersets of a" true
    (stats.Key_infer.sets_tested < 7)

let test_composite_key () =
  let t =
    table "T" [ "a"; "b" ]
      [ [ vi 1; vs "x" ]; [ vi 1; vs "y" ]; [ vi 2; vs "x" ] ]
  in
  let keys, _ = Key_infer.minimal_unique_sets t in
  Alcotest.(check (list names)) "composite only" [ [ "a"; "b" ] ] keys

let test_null_semantics () =
  (* NULL rows skipped by SQL UNIQUE; an all-null column is no key *)
  let t =
    table "T" [ "a"; "b" ]
      [ [ vnull; vs "x" ]; [ vnull; vs "y" ]; [ vi 1; vs "z" ] ]
  in
  let keys, _ = Key_infer.minimal_unique_sets ~max_size:1 t in
  Alcotest.(check (list names)) "a unique over non-nulls, b unique"
    [ [ "a" ]; [ "b" ] ] keys;
  let all_null = table "N" [ "a" ] [ [ vnull ]; [ vnull ] ] in
  let keys, _ = Key_infer.minimal_unique_sets all_null in
  Alcotest.(check (list names)) "all-null column is no key" [] keys

let test_empty_table () =
  let t = table "E" [ "a" ] [] in
  let keys, _ = Key_infer.minimal_unique_sets t in
  Alcotest.(check (list names)) "no keys on empty" [] keys

let test_suggest_skips_declared () =
  let db =
    database
      [
        ( Relation.make ~uniques:[ [ "id" ] ] "Declared" [ "id" ],
          [ [ vi 1 ]; [ vi 2 ] ] );
        (Relation.make "Bare" [ "k"; "v" ], [ [ vi 1; vs "x" ]; [ vi 2; vs "x" ] ]);
      ]
  in
  match Key_infer.suggest db with
  | [ ("Bare", [ [ "k" ] ]) ] -> ()
  | other ->
      Alcotest.failf "unexpected suggestions (%d entries)" (List.length other)

let test_apply_suggestions () =
  let db =
    database
      [ (Relation.make "Bare" [ "k"; "v" ], [ [ vi 1; vs "x" ]; [ vi 2; vs "x" ] ]) ]
  in
  let added =
    Key_infer.apply_suggestions ~confirm:(fun rel key -> rel = "Bare" && key = [ "k" ]) db
  in
  Alcotest.(check int) "one added" 1 added;
  Alcotest.(check bool) "declared now" true
    (Schema.is_key (Database.schema db) "Bare" [ "k" ]);
  Alcotest.(check int) "rows preserved" 2 (Database.cardinality db "Bare")

let test_pipeline_on_undeclared_keys () =
  (* strip the declared keys from the paper database, re-infer them, and
     check the pipeline recovers the same INDs *)
  let db = Workload.Paper_example.database () in
  let stripped = Database.create
      (Schema.of_relations
         (List.map
            (fun rel ->
              Relation.make ~domains:rel.Relation.domains
                ~not_nulls:rel.Relation.not_nulls rel.Relation.name
                rel.Relation.attrs)
            (Schema.relations (Database.schema db))))
  in
  List.iter
    (fun rel ->
      Array.iter
        (fun tup -> Table.insert_tuple (Database.table stripped rel.Relation.name) tup)
        (Table.rows (Database.table db rel.Relation.name)))
    (Schema.relations (Database.schema db));
  (* an expert confirming one key per relation. Note Assignment: the
     extension happens to be unique already on (dep, emp) — a proper
     subset of the paper's declared (emp, dep, proj) — and minimal-key
     discovery correctly reports the smaller set; the declared key is a
     design-time statement the data alone cannot recover. *)
  let paper_keys =
    [
      ("Person", [ "id" ]);
      ("HEmployee", [ "date"; "no" ]);
      ("Department", [ "dep" ]);
      ("Assignment", [ "dep"; "emp" ]);
    ]
  in
  let added =
    Key_infer.apply_suggestions
      ~confirm:(fun rel key -> List.mem (rel, key) paper_keys)
      stripped
  in
  Alcotest.(check int) "four keys confirmed" 4 added;
  let r =
    Helpers.ok
      (Dbre.Job.run
         (Dbre.Job_spec.of_database
            ~oracle:(Scripted Workload.Paper_example.oracle_script)
            stripped
            (Dbre.Job_spec.Equijoins (Workload.Paper_example.equijoins ()))))
  in
  Alcotest.(check int) "six INDs as with declared keys" 6
    (List.length r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds)

let suite =
  [
    Alcotest.test_case "minimal unique sets" `Quick test_minimal_unique_sets;
    Alcotest.test_case "composite key" `Quick test_composite_key;
    Alcotest.test_case "null semantics" `Quick test_null_semantics;
    Alcotest.test_case "empty table" `Quick test_empty_table;
    Alcotest.test_case "suggest skips declared" `Quick test_suggest_skips_declared;
    Alcotest.test_case "apply suggestions" `Quick test_apply_suggestions;
    Alcotest.test_case "pipeline on undeclared keys" `Quick test_pipeline_on_undeclared_keys;
  ]
