open Relational
open Helpers
open Deps
open Dbre

let nei_ctx n_left n_right n_join =
  {
    Oracle.join = Sqlx.Equijoin.make ("A", [ "x" ]) ("B", [ "y" ]);
    counts = { Ind.n_left; n_right; n_join };
  }

let test_automatic () =
  let o = Oracle.automatic in
  Alcotest.(check bool) "nei ignored" true
    (o.Oracle.on_nei (nei_ctx 10 10 5) = Oracle.Ignore_nei);
  Alcotest.(check bool) "fd accepted" true
    (o.Oracle.validate_fd (fd "R" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "no enforcement" false
    (o.Oracle.enforce_fd ~rel:"R" ~lhs:[ "a" ] ~attr:"b");
  Alcotest.(check bool) "hidden accepted" true
    (o.Oracle.conceptualize_hidden (Attribute.single "R" "a"))

let test_skeptical () =
  Alcotest.(check bool) "hidden refused" false
    ((Oracle.of_mode Skeptical).Oracle.conceptualize_hidden (Attribute.single "R" "a"))

let test_threshold () =
  let o = Oracle.of_mode (Threshold 0.8) in
  Alcotest.(check bool) "high overlap forced" true
    (o.Oracle.on_nei (nei_ctx 10 100 9) = Oracle.Force_left_in_right);
  Alcotest.(check bool) "forced toward larger side" true
    (o.Oracle.on_nei (nei_ctx 100 10 9) = Oracle.Force_right_in_left);
  Alcotest.(check bool) "low overlap ignored" true
    (o.Oracle.on_nei (nei_ctx 10 100 2) = Oracle.Ignore_nei);
  Alcotest.(check bool) "empty side ignored" true
    (o.Oracle.on_nei (nei_ctx 0 100 0) = Oracle.Ignore_nei)

let test_scripted () =
  let o =
    Oracle.of_mode @@ Oracle.Scripted
      {
        Oracle.nei_choices = [ ("A[x] |X| B[y]", Oracle.Conceptualize "AB") ];
        fd_rejections = [ "R: a -> b" ];
        fd_enforcements = [ ("R", "c") ];
        hidden_accepted = [ "R.a" ];
        hidden_names = [ ("R.a", "Thing") ];
        fd_names = [ ("R: a -> b", "Named") ];
      }
  in
  Alcotest.(check bool) "scripted nei" true
    (o.Oracle.on_nei (nei_ctx 1 1 1) = Oracle.Conceptualize "AB");
  Alcotest.(check bool) "scripted rejection" false
    (o.Oracle.validate_fd (fd "R" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "unscripted fd accepted" true
    (o.Oracle.validate_fd (fd "R" [ "a" ] [ "c" ]));
  Alcotest.(check bool) "scripted enforcement" true
    (o.Oracle.enforce_fd ~rel:"R" ~lhs:[ "a" ] ~attr:"c");
  Alcotest.(check bool) "scripted hidden" true
    (o.Oracle.conceptualize_hidden (Attribute.single "R" "a"));
  Alcotest.(check bool) "unscripted hidden refused" false
    (o.Oracle.conceptualize_hidden (Attribute.single "R" "z"));
  Alcotest.(check string) "scripted name" "Thing"
    (o.Oracle.name_hidden (Attribute.single "R" "a"));
  Alcotest.(check string) "derived name fallback" "S_z"
    (o.Oracle.name_hidden (Attribute.single "S" "z"))

let test_traced () =
  let o, events = Oracle.traced Oracle.automatic in
  ignore (o.Oracle.on_nei (nei_ctx 5 5 2));
  ignore (o.Oracle.validate_fd (fd "R" [ "a" ] [ "b" ]));
  ignore (o.Oracle.conceptualize_hidden (Attribute.single "R" "a"));
  let evs = events () in
  Alcotest.(check int) "three events" 3 (List.length evs);
  match evs with
  | [ Oracle.Nei_decided _; Oracle.Fd_validated _; Oracle.Hidden_considered _ ]
    -> ()
  | _ -> Alcotest.fail "event order"

let test_interactive () =
  (* feed scripted answers through a pipe-backed channel *)
  let answers = "i\ny\nn\nMyName\n" in
  let tmp = Filename.temp_file "oracle" ".txt" in
  let oc = open_out tmp in
  output_string oc answers;
  close_out oc;
  let ic = open_in tmp in
  let dev_null = open_out (if Sys.win32 then "NUL" else "/dev/null") in
  let o = Oracle.interactive ~in_channel:ic ~out_channel:dev_null () in
  Alcotest.(check bool) "nei ignored per answer" true
    (o.Oracle.on_nei (nei_ctx 3 3 1) = Oracle.Ignore_nei);
  Alcotest.(check bool) "fd accepted per answer" true
    (o.Oracle.validate_fd (fd "R" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "hidden refused per answer" false
    (o.Oracle.conceptualize_hidden (Attribute.single "R" "a"));
  Alcotest.(check string) "name read" "MyName"
    (o.Oracle.name_hidden (Attribute.single "R" "a"));
  (* EOF falls back to defaults *)
  Alcotest.(check bool) "eof fallback" true
    (o.Oracle.validate_fd (fd "R" [ "a" ] [ "b" ]));
  close_in ic;
  close_out dev_null;
  Sys.remove tmp

let test_default_names () =
  Alcotest.(check string) "hidden name" "HEmployee_no"
    (Oracle.default_hidden_name (Attribute.single "HEmployee" "no"));
  Alcotest.(check string) "fd name" "Department_emp"
    (Oracle.default_fd_name (fd "Department" [ "emp" ] [ "skill" ]))

let suite =
  [
    Alcotest.test_case "automatic" `Quick test_automatic;
    Alcotest.test_case "skeptical" `Quick test_skeptical;
    Alcotest.test_case "threshold" `Quick test_threshold;
    Alcotest.test_case "scripted" `Quick test_scripted;
    Alcotest.test_case "traced" `Quick test_traced;
    Alcotest.test_case "interactive" `Quick test_interactive;
    Alcotest.test_case "default names" `Quick test_default_names;
  ]
