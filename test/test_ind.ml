open Relational
open Helpers
open Deps

let db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] "P" [ "id"; "v" ],
        [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 3; vs "c" ] ] );
      ( Relation.make "E" [ "no"; "w" ],
        [ [ vi 1; vs "x" ]; [ vi 2; vs "y" ]; [ vnull; vs "z" ] ] );
      ( Relation.make "X" [ "k" ], [ [ vi 7 ]; [ vi 1 ] ] );
    ]

let test_make () =
  Alcotest.check_raises "width"
    (Invalid_argument "Ind.make: width mismatch") (fun () ->
      ignore (ind ("A", [ "x" ]) ("B", [ "u"; "v" ])));
  Alcotest.check_raises "duplicate attr"
    (Invalid_argument "Ind.make: duplicate attribute in A side") (fun () ->
      ignore (ind ("A", [ "x"; "x" ]) ("B", [ "u"; "v" ])))

let test_print_parse () =
  let i = ind ("HEmployee", [ "no" ]) ("Person", [ "id" ]) in
  Alcotest.(check string) "print" "HEmployee[no] << Person[id]" (Ind.to_string i);
  Alcotest.(check ind_t) "parse" i (Ind.parse "HEmployee[no] << Person[id]");
  let multi = ind ("A", [ "x"; "y" ]) ("B", [ "u"; "v" ]) in
  Alcotest.(check ind_t) "multi parse" multi (Ind.parse "A[x,y] << B[u,v]");
  List.iter
    (fun s ->
      try
        ignore (Ind.parse s);
        Alcotest.failf "expected failure: %s" s
      with Failure _ -> ())
    [ "no brackets << B[x]"; "A[] << B[x]"; "A[x] B[x]" ]

let test_side_order_preserved () =
  (* unlike FDs, IND attribute order is positional and must be kept *)
  let i = ind ("A", [ "y"; "x" ]) ("B", [ "u"; "v" ]) in
  Alcotest.(check (list string)) "lhs order" [ "y"; "x" ] i.Ind.lhs_attrs

let test_counts_satisfied () =
  let db = db () in
  let i = ind ("E", [ "no" ]) ("P", [ "id" ]) in
  let c = Ind.counts db i in
  Alcotest.(check int) "n_left excludes null" 2 c.Ind.n_left;
  Alcotest.(check int) "n_right" 3 c.Ind.n_right;
  Alcotest.(check int) "n_join" 2 c.Ind.n_join;
  Alcotest.(check bool) "satisfied" true (Ind.satisfied db i);
  Alcotest.(check bool) "materialized agrees" true
    (Reference.Counts.ind_satisfied db i);
  let rev = ind ("P", [ "id" ]) ("E", [ "no" ]) in
  Alcotest.(check bool) "reverse fails" false (Ind.satisfied db rev);
  Alcotest.(check bool) "reverse materialized agrees" false
    (Reference.Counts.ind_satisfied db rev);
  let partial = ind ("X", [ "k" ]) ("P", [ "id" ]) in
  Alcotest.(check bool) "partial overlap fails" false (Ind.satisfied db partial)

let test_key_based () =
  let db = db () in
  let schema = Database.schema db in
  Alcotest.(check bool) "rhs key" true
    (Ind.key_based schema (ind ("E", [ "no" ]) ("P", [ "id" ])));
  Alcotest.(check bool) "rhs not key" false
    (Ind.key_based schema (ind ("P", [ "id" ]) ("E", [ "no" ])))

let test_lhs_rhs_accessors () =
  let i = ind ("A", [ "y"; "x" ]) ("B", [ "u"; "v" ]) in
  Alcotest.(check attr) "lhs qualified" (Attribute.make "A" [ "x"; "y" ]) (Ind.lhs i);
  Alcotest.(check attr) "rhs qualified" (Attribute.make "B" [ "u"; "v" ]) (Ind.rhs i)

(* Join counts run on dictionary codes: a value crosses to the other
   column through its intern table, which must partition exactly as
   the reference's hashtables do. *)
let test_code_level_equality () =
  let m = min_int in
  let cases =
    [
      ("Int 1 vs Float 1.0", [ vi 1; vi 2 ], [ Value.Float 1.0; vi 2 ]);
      ("Int min_int both sides", [ vi m; vi 0; vi m ], [ vi m; vi 5 ]);
      ("String \"1\" vs Int 1", [ vs "1"; vs "2" ], [ vi 1; vs "2" ]);
      ("all-NULL column", [ vnull; vnull ], [ vi 1; vnull ]);
      ("empty side", [], [ vi 1; vs "1" ]);
      ( "mixed constructors",
        [ vi 3; Value.Float 2.5; vs "x"; vnull; Value.Bool true; vi m ],
        [ Value.Float 2.5; vs "x"; vi 3; Value.Bool true; Value.Float 3.0 ] );
    ]
  in
  List.iter
    (fun (msg, left, right) ->
      let l =
        table "L" [ "x"; "y" ]
          (List.mapi (fun i v -> [ v; (if i mod 2 = 0 then v else vs "y") ]) left)
      in
      let r = table "R" [ "x" ] (List.map (fun v -> [ v ]) right) in
      check_join_counts msg (l, [ "x" ]) (r, [ "x" ]);
      check_join_counts (msg ^ ", reversed") (r, [ "x" ]) (l, [ "x" ]);
      check_join_counts (msg ^ ", self-join") (l, [ "x" ]) (l, [ "y" ]);
      check_join_counts (msg ^ ", same column") (l, [ "x" ]) (l, [ "x" ]))
    cases

let suite =
  [
    Alcotest.test_case "make validation" `Quick test_make;
    Alcotest.test_case "print/parse" `Quick test_print_parse;
    Alcotest.test_case "side order preserved" `Quick test_side_order_preserved;
    Alcotest.test_case "counts and satisfaction" `Quick test_counts_satisfied;
    Alcotest.test_case "key-based" `Quick test_key_based;
    Alcotest.test_case "accessors" `Quick test_lhs_rhs_accessors;
    Alcotest.test_case "join counts: value equality on codes" `Quick
      test_code_level_equality;
  ]
