open Helpers
open Deps

let test_reflexivity () =
  Alcotest.(check bool) "trivial always implied" true
    (Ind_closure.implied [] (ind ("R", [ "a" ]) ("R", [ "a" ])))

let test_transitivity () =
  let given =
    [ ind ("A", [ "x" ]) ("B", [ "y" ]); ind ("B", [ "y" ]) ("C", [ "z" ]) ]
  in
  Alcotest.(check bool) "chain" true
    (Ind_closure.implied given (ind ("A", [ "x" ]) ("C", [ "z" ])));
  Alcotest.(check bool) "reverse not implied" false
    (Ind_closure.implied given (ind ("C", [ "z" ]) ("A", [ "x" ])));
  Alcotest.(check bool) "unrelated not implied" false
    (Ind_closure.implied given (ind ("A", [ "x" ]) ("D", [ "w" ])))

let test_projection_permutation () =
  let given = [ ind ("A", [ "x"; "y" ]) ("B", [ "u"; "v" ]) ] in
  Alcotest.(check bool) "projection" true
    (Ind_closure.implied given (ind ("A", [ "x" ]) ("B", [ "u" ])));
  Alcotest.(check bool) "second component" true
    (Ind_closure.implied given (ind ("A", [ "y" ]) ("B", [ "v" ])));
  Alcotest.(check bool) "permutation" true
    (Ind_closure.implied given (ind ("A", [ "y"; "x" ]) ("B", [ "v"; "u" ])));
  Alcotest.(check bool) "crossed components not implied" false
    (Ind_closure.implied given (ind ("A", [ "x" ]) ("B", [ "v" ])))

let test_projection_then_transitivity () =
  let given =
    [
      ind ("A", [ "x"; "y" ]) ("B", [ "u"; "v" ]);
      ind ("B", [ "u" ]) ("C", [ "w" ]);
    ]
  in
  Alcotest.(check bool) "project then chain" true
    (Ind_closure.implied given (ind ("A", [ "x" ]) ("C", [ "w" ])))

let test_minimal_cover () =
  let a_b = ind ("A", [ "x" ]) ("B", [ "y" ]) in
  let b_c = ind ("B", [ "y" ]) ("C", [ "z" ]) in
  let a_c = ind ("A", [ "x" ]) ("C", [ "z" ]) in
  let cover = Ind_closure.minimal_cover [ a_b; b_c; a_c ] in
  check_sorted_inds "transitive edge dropped" [ a_b; b_c ] cover;
  check_sorted_inds "redundant reported" [ a_c ]
    (Ind_closure.redundant [ a_b; b_c; a_c ]);
  (* trivial INDs always pruned *)
  let trivial = ind ("A", [ "x" ]) ("A", [ "x" ]) in
  check_sorted_inds "trivial pruned" [ a_b ]
    (Ind_closure.minimal_cover [ trivial; a_b ]);
  (* duplicates collapse *)
  check_sorted_inds "duplicates collapse" [ a_b ]
    (Ind_closure.minimal_cover [ a_b; a_b ])

let test_cover_preserves_semantics () =
  let inds =
    [
      ind ("A", [ "x" ]) ("B", [ "y" ]);
      ind ("B", [ "y" ]) ("C", [ "z" ]);
      ind ("A", [ "x" ]) ("C", [ "z" ]);
      ind ("C", [ "z" ]) ("D", [ "w" ]);
      ind ("A", [ "x" ]) ("D", [ "w" ]);
    ]
  in
  let cover = Ind_closure.minimal_cover inds in
  List.iter
    (fun i ->
      Alcotest.(check bool)
        (Ind.to_string i ^ " still implied")
        true
        (Ind_closure.implied cover i))
    inds;
  Alcotest.(check int) "two dropped" 3 (List.length cover)

let test_closure_unary () =
  let given =
    [ ind ("A", [ "x" ]) ("B", [ "y" ]); ind ("B", [ "y" ]) ("C", [ "z" ]) ]
  in
  check_sorted_inds "derives the transitive edge"
    [
      ind ("A", [ "x" ]) ("B", [ "y" ]);
      ind ("A", [ "x" ]) ("C", [ "z" ]);
      ind ("B", [ "y" ]) ("C", [ "z" ]);
    ]
    (Ind_closure.closure_unary given)

let test_paper_ric_irredundant () =
  (* the §7 RIC set contains no redundant constraint *)
  let result = Helpers.paper () in
  let ric = result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric in
  Alcotest.(check (list ind_t)) "no redundancy" []
    (Ind_closure.redundant ric)

let suite =
  [
    Alcotest.test_case "reflexivity" `Quick test_reflexivity;
    Alcotest.test_case "transitivity" `Quick test_transitivity;
    Alcotest.test_case "projection/permutation" `Quick test_projection_permutation;
    Alcotest.test_case "projection then transitivity" `Quick test_projection_then_transitivity;
    Alcotest.test_case "minimal cover" `Quick test_minimal_cover;
    Alcotest.test_case "cover preserves semantics" `Quick test_cover_preserves_semantics;
    Alcotest.test_case "unary closure" `Quick test_closure_unary;
    Alcotest.test_case "paper RIC irredundant" `Quick test_paper_ric_irredundant;
  ]
