open Helpers
open Deps

let sample () =
  table "T" [ "a"; "b"; "c"; "d" ]
    [
      [ vi 1; vs "x"; vi 10; vs "p" ];
      [ vi 1; vs "x"; vi 20; vs "p" ];
      [ vi 2; vs "y"; vi 30; vs "p" ];
      [ vi 3; vs "y"; vi 40; vs "q" ];
    ]

(* holds: a->b, a->d (1⇒p,2⇒p,3⇒q ok), c->everything (unique), b->nothing
   (y ⇒ 2,3); fails: a->c, b->a, b->d *)

let test_engines_agree () =
  let t = sample () in
  let fds_to_try =
    [
      fd "T" [ "a" ] [ "b" ];
      fd "T" [ "a" ] [ "c" ];
      fd "T" [ "a" ] [ "d" ];
      fd "T" [ "b" ] [ "a" ];
      fd "T" [ "b" ] [ "d" ];
      fd "T" [ "c" ] [ "a"; "b"; "d" ];
      fd "T" [ "a"; "b" ] [ "d" ];
    ]
  in
  List.iter
    (fun f ->
      let naive = Reference.Fd_infer.holds_naive t f in
      let part = Reference.Fd_infer.holds_partition t f in
      let spec = Reference.Fd_infer.satisfied_by t f in
      Alcotest.(check bool)
        (Printf.sprintf "%s naive=spec" (Fd.to_string f))
        spec naive;
      Alcotest.(check bool)
        (Printf.sprintf "%s partition=spec" (Fd.to_string f))
        spec part;
      Alcotest.(check bool)
        (Printf.sprintf "%s holds=spec" (Fd.to_string f))
        spec (Fd_infer.holds t f))
    fds_to_try

let test_holds_results () =
  let t = sample () in
  Alcotest.(check bool) "a->b" true (Fd_infer.holds t (fd "T" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "a->c" false (Fd_infer.holds t (fd "T" [ "a" ] [ "c" ]));
  Alcotest.(check bool) "c unique determines all" true
    (Fd_infer.holds t (fd "T" [ "c" ] [ "a"; "b"; "d" ]))

let test_error_rate () =
  let t = sample () in
  Alcotest.(check (float 1e-9)) "holding fd has zero error" 0.0
    (Reference.Fd_infer.error_rate t (fd "T" [ "a" ] [ "b" ]));
  (* a->c: group a=1 keeps 1 of 2 rows; one removal / 4 rows *)
  Alcotest.(check (float 1e-9)) "g3 error" 0.25
    (Reference.Fd_infer.error_rate t (fd "T" [ "a" ] [ "c" ]));
  let empty = table "E" [ "a"; "b" ] [] in
  Alcotest.(check (float 1e-9)) "empty table" 0.0
    (Reference.Fd_infer.error_rate empty (fd "E" [ "a" ] [ "b" ]))

let test_discover () =
  let t = sample () in
  let fds, stats = Fd_infer.discover ~max_lhs:2 ~rel:"T" t in
  (* all discovered FDs actually hold *)
  List.iter
    (fun f ->
      Alcotest.(check bool)
        (Fd.to_string f ^ " holds")
        true (Reference.Fd_infer.satisfied_by t f))
    fds;
  (* the known minimal FDs are found *)
  let has lhs rhs_attr =
    List.exists
      (fun (f : Fd.t) ->
        Relational.Attribute.Names.equal f.Fd.lhs
          (Relational.Attribute.Names.normalize lhs)
        && List.mem rhs_attr f.Fd.rhs)
      fds
  in
  Alcotest.(check bool) "a->b found" true (has [ "a" ] "b");
  Alcotest.(check bool) "a->d found" true (has [ "a" ] "d");
  Alcotest.(check bool) "c->a found (key)" true (has [ "c" ] "a");
  (* minimality: no a,b -> d since a -> d already holds *)
  Alcotest.(check bool) "no superset lhs" false (has [ "a"; "b" ] "d");
  Alcotest.(check bool) "stats sane" true (stats.Fd_infer.candidates_tested > 0)

let test_discover_for_lhs () =
  let t = sample () in
  (match Fd_infer.discover_for_lhs ~rel:"T" t [ "a" ] with
  | Some f -> Alcotest.(check names) "maximal rhs" [ "b"; "d" ] f.Fd.rhs
  | None -> Alcotest.fail "expected FD");
  match Fd_infer.discover_for_lhs ~rel:"T" t [ "b" ] with
  | Some f -> Alcotest.failf "expected nothing, got %s" (Fd.to_string f)
  | None -> ()

let test_discover_key_pruning () =
  (* once {c} is known unique, {c,x} candidates are skipped *)
  let t = sample () in
  let _, stats1 = Fd_infer.discover ~max_lhs:1 ~rel:"T" t in
  let _, stats3 = Fd_infer.discover ~max_lhs:3 ~rel:"T" t in
  Alcotest.(check bool) "pruning keeps growth sublinear" true
    (stats3.Fd_infer.candidates_tested < 4 * stats1.Fd_infer.candidates_tested * 4)

let test_tane_agrees_with_discover () =
  (* NULL-free table: both engines return the same minimal FDs *)
  let t = sample () in
  let via_discover, _ = Fd_infer.discover ~max_lhs:3 ~rel:"T" t in
  let via_tane, _ = Reference.Fd_infer.discover_tane ~max_lhs:3 ~rel:"T" t in
  check_sorted_fds "same FDs" via_discover via_tane

let test_tane_on_armstrong () =
  (* TANE over an Armstrong relation recovers exactly the cover's closure *)
  let fds = [ fd "R" [ "a" ] [ "b" ]; fd "R" [ "b" ] [ "c" ] ] in
  let t = Armstrong.relation ~rel:"R" fds ~attrs:[ "a"; "b"; "c" ] in
  let found, _ = Reference.Fd_infer.discover_tane ~max_lhs:2 ~rel:"R" t in
  List.iter
    (fun (f : Fd.t) ->
      Alcotest.(check bool)
        (Fd.to_string f ^ " implied by cover")
        true (Closure.implies fds f))
    found;
  List.iter
    (fun (f : Fd.t) ->
      Alcotest.(check bool)
        (Fd.to_string f ^ " found")
        true
        (List.exists
           (fun (g : Fd.t) ->
             Relational.Attribute.Names.equal g.Fd.lhs f.Fd.lhs
             && Relational.Attribute.Names.subset f.Fd.rhs g.Fd.rhs)
           found))
    fds

let test_null_lhs () =
  let t =
    table "T" [ "a"; "b" ]
      [ [ vnull; vs "x" ]; [ vnull; vs "y" ]; [ vi 1; vs "z" ] ]
  in
  Alcotest.(check bool) "holds skips null lhs" true
    (Fd_infer.holds t (fd "T" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "naive skips null lhs" true
    (Reference.Fd_infer.holds_naive t (fd "T" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "partition skips null lhs" true
    (Reference.Fd_infer.holds_partition t (fd "T" [ "a" ] [ "b" ]))

let suite =
  [
    Alcotest.test_case "engines agree with spec" `Quick test_engines_agree;
    Alcotest.test_case "holds" `Quick test_holds_results;
    Alcotest.test_case "error rate" `Quick test_error_rate;
    Alcotest.test_case "levelwise discover" `Quick test_discover;
    Alcotest.test_case "discover for lhs" `Quick test_discover_for_lhs;
    Alcotest.test_case "key pruning" `Quick test_discover_key_pruning;
    Alcotest.test_case "tane agrees with discover" `Quick test_tane_agrees_with_discover;
    Alcotest.test_case "tane on armstrong relation" `Quick test_tane_on_armstrong;
    Alcotest.test_case "null lhs" `Quick test_null_lhs;
  ]
