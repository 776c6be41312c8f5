open Relational
open Helpers

let sample () =
  table "T" ~uniques:[ [ "id" ] ]
    [ "id"; "city"; "pop" ]
    [
      [ vi 1; vs "lyon"; vi 500 ];
      [ vi 2; vs "paris"; vi 2000 ];
      [ vi 3; vs "lyon"; vi 500 ];
      [ vi 4; vnull; vi 100 ];
    ]

let test_insert_arity () =
  let t = sample () in
  Alcotest.(check int) "cardinality" 4 (Table.cardinality t);
  Alcotest.check_raises "arity mismatch"
    (Invalid_argument "Table.insert(T): arity mismatch (2, expected 3)")
    (fun () -> Table.insert t [ vi 9; vs "x" ])

(* rows decode from the store on each call: after a load, an append and
   a delete they are the reference row list *)
let test_rows_decode () =
  let t = sample () in
  let want =
    [
      [ vi 1; vs "lyon"; vi 500 ];
      [ vi 2; vs "paris"; vi 2000 ];
      [ vi 3; vs "lyon"; vi 500 ];
      [ vi 4; vnull; vi 100 ];
    ]
  in
  Alcotest.check value_rows "after the inserts" want (Table.to_lists t);
  Table.insert t [ vi 5; vs "nice"; vi 300 ];
  Table.delete_rows t [ 1; 2 ];
  let want = [ List.nth want 0; List.nth want 3; [ vi 5; vs "nice"; vi 300 ] ] in
  Alcotest.check value_rows "after an append and a delete" want (Table.to_lists t);
  Alcotest.(check bool) "a fresh array per call" true (Table.rows t != Table.rows t)

(* a view under a constraint-only schema (what Key_infer installs)
   shares its table's store: a mutation through either is seen by both *)
let test_view_shares_mutations () =
  let t = sample () in
  let view = Table.with_schema t (Relation.add_unique (Table.schema t) [ "city"; "pop" ]) in
  let same msg =
    Alcotest.check value_rows (msg ^ ": rows") (Table.to_lists t) (Table.to_lists view);
    Alcotest.(check int) (msg ^ ": cardinality") (Table.cardinality t) (Table.cardinality view);
    Alcotest.(check int) (msg ^ ": version") (Table.version t) (Table.version view);
    Alcotest.(check int)
      (msg ^ ": distinct cities")
      (Column_store.count_distinct (Table.store t) [ "city" ])
      (Column_store.count_distinct (Table.store view) [ "city" ])
  in
  Table.insert view [ vi 5; vs "nice"; vi 300 ];
  same "insert through the view";
  Alcotest.(check int) "the table sees it" 5 (Table.cardinality t);
  Table.delete_rows t [ 0; 4 ];
  same "delete through the table";
  Alcotest.(check int) "the view sees it" 3 (Table.cardinality view);
  Alcotest.(check int) "distinct cities" 2
    (Column_store.count_distinct (Table.store view) [ "city" ])

let test_count_distinct () =
  let t = sample () in
  Alcotest.(check int) "distinct ids" 4 (Reference.Counts.count_distinct t [ "id" ]);
  Alcotest.(check int) "distinct cities exclude null" 2
    (Reference.Counts.count_distinct t [ "city" ]);
  Alcotest.(check int) "multi-attr" 2
    (Reference.Counts.count_distinct t [ "city"; "pop" ]);
  Alcotest.(check int) "null row excluded from multi" 3
    (Reference.Counts.count_distinct t [ "id"; "city" ])

let test_project_distinct () =
  let t = sample () in
  let cities = List.sort compare (Reference.Counts.project_distinct t [ "city" ]) in
  Alcotest.(check int) "two cities" 2 (List.length cities)

let test_equijoin_count () =
  let t1 = sample () in
  let t2 =
    table "S" [ "town" ]
      [ [ vs "paris" ]; [ vs "lyon" ]; [ vs "berlin" ]; [ vnull ] ]
  in
  let s1 = Table.store t1 and s2 = Table.store t2 in
  Alcotest.(check int) "intersection" 2
    (Column_store.equijoin_distinct_count s1 [ "city" ] s2 [ "town" ]);
  Alcotest.(check int) "symmetric" 2
    (Column_store.equijoin_distinct_count s2 [ "town" ] s1 [ "city" ]);
  Alcotest.(check int) "reference agrees" 2
    (Reference.Counts.equijoin_distinct_count t1 [ "city" ] t2 [ "town" ]);
  Alcotest.check_raises "width mismatch"
    (Invalid_argument "Column_store.equijoin_distinct_count: width mismatch")
    (fun () ->
      ignore
        (Column_store.equijoin_distinct_count s1 [ "city"; "pop" ] s2
           [ "town" ]))

let test_group_rows () =
  let t = sample () in
  let g = Reference.Counts.group_rows t [ "city" ] in
  Alcotest.(check int) "three groups incl null" 3 (Hashtbl.length g);
  Alcotest.(check int) "lyon group" 2
    (List.length (Hashtbl.find g [ vs "lyon" ]))

let test_unique_checks () =
  let t = sample () in
  Alcotest.(check bool) "id unique" true (Reference.Counts.check_unique t [ "id" ]);
  Alcotest.(check bool) "city not unique" false (Reference.Counts.check_unique t [ "city" ]);
  Alcotest.(check bool) "city+pop not unique" false
    (Reference.Counts.check_unique t [ "city"; "pop" ]);
  (* null rows are skipped by SQL UNIQUE *)
  let t2 = table "U" [ "a" ] [ [ vnull ]; [ vnull ] ] in
  Alcotest.(check bool) "nulls don't violate unique" true
    (Reference.Counts.check_unique t2 [ "a" ])

let test_check_constraints () =
  let ok = sample () in
  Alcotest.(check bool) "constraints hold" true
    (Result.is_ok (Reference.Counts.check_constraints ok));
  let bad =
    table "B" ~uniques:[ [ "id" ] ] [ "id" ] [ [ vi 1 ]; [ vi 1 ] ]
  in
  (match Reference.Counts.check_constraints bad with
  | Error [ msg ] ->
      Alcotest.(check string) "violation message" "B: unique(id) violated" msg
  | _ -> Alcotest.fail "expected one violation");
  let null_key =
    table "N" ~uniques:[ [ "id" ] ] [ "id" ] [ [ vnull ] ]
  in
  Alcotest.(check bool) "null in key violates implied not-null" true
    (Result.is_error (Reference.Counts.check_constraints null_key))

let test_select () =
  let t = sample () in
  let rows = Reference.Counts.select t (fun tup -> Value.equal tup.(1) (vs "lyon")) in
  Alcotest.(check int) "selected" 2 (List.length rows)

let suite =
  [
    Alcotest.test_case "insert and arity" `Quick test_insert_arity;
    Alcotest.test_case "rows decode from the store" `Quick test_rows_decode;
    Alcotest.test_case "a view shares its table's mutations" `Quick
      test_view_shares_mutations;
    Alcotest.test_case "count distinct" `Quick test_count_distinct;
    Alcotest.test_case "project distinct" `Quick test_project_distinct;
    Alcotest.test_case "equijoin distinct count" `Quick test_equijoin_count;
    Alcotest.test_case "group rows" `Quick test_group_rows;
    Alcotest.test_case "unique checks" `Quick test_unique_checks;
    Alcotest.test_case "constraint checking" `Quick test_check_constraints;
    Alcotest.test_case "select" `Quick test_select;
  ]
