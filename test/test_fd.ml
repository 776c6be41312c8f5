open Helpers
open Deps

let test_make () =
  let f = fd "R" [ "b"; "a" ] [ "c"; "a" ] in
  Alcotest.(check names) "lhs canonical" [ "a"; "b" ] f.Fd.lhs;
  Alcotest.(check names) "rhs minus lhs" [ "c" ] f.Fd.rhs;
  Alcotest.check_raises "empty lhs"
    (Invalid_argument "Fd.make: empty left-hand side") (fun () ->
      ignore (fd "R" [] [ "a" ]));
  Alcotest.check_raises "trivial"
    (Invalid_argument "Fd.make: empty (or trivial) right-hand side") (fun () ->
      ignore (fd "R" [ "a" ] [ "a" ]))

let test_split_combine () =
  let f = fd "R" [ "a" ] [ "b"; "c" ] in
  Alcotest.(check int) "split" 2 (List.length (Fd.split_rhs f));
  check_sorted_fds "combine inverse" [ f ] (Fd.combine (Fd.split_rhs f));
  check_sorted_fds "combine groups by rel+lhs"
    [ fd "R" [ "a" ] [ "b"; "c" ]; fd "S" [ "a" ] [ "b" ] ]
    (Fd.combine [ fd "R" [ "a" ] [ "b" ]; fd "S" [ "a" ] [ "b" ]; fd "R" [ "a" ] [ "c" ] ])

let test_parse_print () =
  let f = fd "Department" [ "emp" ] [ "skill"; "proj" ] in
  Alcotest.(check string) "print" "Department: emp -> proj,skill"
    (Fd.to_string f);
  Alcotest.(check fd_t) "parse inverse" f (Fd.parse (Fd.to_string f));
  Alcotest.(check fd_t) "parse spacing" f
    (Fd.parse "Department :  emp ->proj , skill");
  List.iter
    (fun s ->
      try
        ignore (Fd.parse s);
        Alcotest.failf "expected parse failure: %s" s
      with Failure _ -> ())
    [ "no colon -> x"; "R: a"; "R: -> b"; "R: a ->" ]

let test_satisfied_by () =
  let t =
    table "T" [ "a"; "b"; "c" ]
      [
        [ vi 1; vs "x"; vi 10 ];
        [ vi 1; vs "x"; vi 20 ];
        [ vi 2; vs "y"; vi 30 ];
      ]
  in
  Alcotest.(check bool) "a -> b holds" true (Reference.Fd_infer.satisfied_by t (fd "T" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "a -> c fails" false (Reference.Fd_infer.satisfied_by t (fd "T" [ "a" ] [ "c" ]));
  Alcotest.(check bool) "b -> a holds" true (Reference.Fd_infer.satisfied_by t (fd "T" [ "b" ] [ "a" ]));
  Alcotest.(check bool) "ab -> c fails" false
    (Reference.Fd_infer.satisfied_by t (fd "T" [ "a"; "b" ] [ "c" ]))

let test_null_lhs_exempt () =
  let t =
    table "T" [ "a"; "b" ]
      [ [ vnull; vs "x" ]; [ vnull; vs "y" ]; [ vi 1; vs "z" ] ]
  in
  Alcotest.(check bool) "null identifiers never contradict" true
    (Reference.Fd_infer.satisfied_by t (fd "T" [ "a" ] [ "b" ]))

let test_null_rhs_grouped () =
  let t = table "T" [ "a"; "b" ] [ [ vi 1; vnull ]; [ vi 1; vnull ] ] in
  Alcotest.(check bool) "null rhs equal to itself" true
    (Reference.Fd_infer.satisfied_by t (fd "T" [ "a" ] [ "b" ]));
  let t2 = table "T" [ "a"; "b" ] [ [ vi 1; vnull ]; [ vi 1; vs "x" ] ] in
  Alcotest.(check bool) "null vs value differs" false
    (Reference.Fd_infer.satisfied_by t2 (fd "T" [ "a" ] [ "b" ]))

let test_violations () =
  let t =
    table "T" [ "a"; "b" ]
      [ [ vi 1; vs "x" ]; [ vi 1; vs "y" ]; [ vi 2; vs "z" ] ]
  in
  match Reference.Fd_infer.violations t (fd "T" [ "a" ] [ "b" ]) with
  | [ ((l, r1), (l', r2)) ] ->
      Alcotest.(check (list value)) "lhs" [ vi 1 ] l;
      Alcotest.(check (list value)) "lhs same" [ vi 1 ] l';
      Alcotest.(check bool) "rhs differ" false (r1 = r2)
  | v -> Alcotest.failf "expected one witness, got %d" (List.length v)

let suite =
  [
    Alcotest.test_case "make" `Quick test_make;
    Alcotest.test_case "split/combine" `Quick test_split_combine;
    Alcotest.test_case "parse/print" `Quick test_parse_print;
    Alcotest.test_case "satisfied_by" `Quick test_satisfied_by;
    Alcotest.test_case "null lhs exempt" `Quick test_null_lhs_exempt;
    Alcotest.test_case "null rhs grouped" `Quick test_null_rhs_grouped;
    Alcotest.test_case "violations" `Quick test_violations;
  ]
