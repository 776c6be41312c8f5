(* The reference stripped partitions (TANE machinery) the FD checks
   are compared against. *)

open Helpers
module Partition = Reference.Partition

let sample () =
  table "T" [ "a"; "b"; "c" ]
    [
      [ vi 1; vs "x"; vi 10 ];
      [ vi 1; vs "x"; vi 20 ];
      [ vi 1; vs "y"; vi 30 ];
      [ vi 2; vs "z"; vi 40 ];
      [ vi 2; vs "z"; vi 50 ];
      [ vi 3; vs "w"; vi 60 ];
    ]

let test_of_table () =
  let t = sample () in
  let p = Partition.of_table t [ "a" ] in
  (* stripped: groups of size >= 2 only: {1,1,1} and {2,2} *)
  Alcotest.(check int) "groups" 2 (Partition.num_groups p);
  Alcotest.(check int) "error" 3 (Partition.error p);
  Alcotest.(check int) "rank = distinct count" 3 (Partition.rank p)

let test_key_partition () =
  let t = sample () in
  let p = Partition.of_table t [ "c" ] in
  Alcotest.(check int) "unique column: no groups" 0 (Partition.num_groups p);
  Alcotest.(check int) "error 0" 0 (Partition.error p)

let test_product () =
  let t = sample () in
  let pa = Partition.of_table t [ "a" ] in
  let pb = Partition.of_table t [ "b" ] in
  let pab = Partition.product pa pb in
  let direct = Partition.of_table t [ "a"; "b" ] in
  Alcotest.(check int) "product groups = direct groups"
    (Partition.num_groups direct) (Partition.num_groups pab);
  Alcotest.(check int) "product error = direct error"
    (Partition.error direct) (Partition.error pab)

let test_fd_criterion () =
  let t = sample () in
  (* b -> a holds (x⇒1, y⇒1, z⇒2, w⇒3); a -> b fails (1 ⇒ x,y) *)
  let check_fd lhs rhs expected =
    let p_l = Partition.of_table t lhs in
    let p_lr = Partition.of_table t (Relational.Attribute.Names.union lhs rhs) in
    Alcotest.(check bool)
      (Printf.sprintf "%s -> %s" (String.concat "," lhs) (String.concat "," rhs))
      expected
      (Partition.fd_holds ~lhs:p_l ~lhs_rhs:p_lr)
  in
  check_fd [ "b" ] [ "a" ] true;
  check_fd [ "a" ] [ "b" ] false;
  check_fd [ "a"; "b" ] [ "a" ] true;
  check_fd [ "c" ] [ "a"; "b" ] true

let test_keep_filter () =
  let t =
    table "T" [ "a"; "b" ]
      [ [ vnull; vs "x" ]; [ vnull; vs "y" ]; [ vi 1; vs "z" ] ]
  in
  let idx = Relational.Table.positions t [ "a" ] in
  let keep tup = not (Relational.Tuple.has_null_at idx tup) in
  let p = Partition.of_table ~keep t [ "a" ] in
  Alcotest.(check int) "null rows filtered" 0 (Partition.num_groups p);
  let unfiltered = Partition.of_table t [ "a" ] in
  Alcotest.(check int) "unfiltered groups nulls" 1
    (Partition.num_groups unfiltered)

let test_empty_table () =
  let t = table "T" [ "a" ] [] in
  let p = Partition.of_table t [ "a" ] in
  Alcotest.(check int) "no groups" 0 (Partition.num_groups p);
  Alcotest.(check int) "rank 0" 0 (Partition.rank p)

let suite =
  [
    Alcotest.test_case "of_table" `Quick test_of_table;
    Alcotest.test_case "key partition" `Quick test_key_partition;
    Alcotest.test_case "product" `Quick test_product;
    Alcotest.test_case "fd criterion" `Quick test_fd_criterion;
    Alcotest.test_case "keep filter" `Quick test_keep_filter;
    Alcotest.test_case "empty table" `Quick test_empty_table;
  ]
