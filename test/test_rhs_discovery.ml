open Relational
open Helpers
open Dbre

(* W(id key, ref, payload, extra, strict): ref -> payload holds,
   ref -> extra fails, strict is NOT NULL while ref is nullable *)
let db () =
  database
    [
      ( Relation.make ~uniques:[ [ "id" ] ] ~not_nulls:[ "strict" ] "W"
          [ "id"; "ref"; "payload"; "extra"; "strict" ],
        [
          [ vi 1; vi 10; vs "p10"; vs "a"; vs "s" ];
          [ vi 2; vi 20; vs "p20"; vs "a"; vs "s" ];
          [ vi 3; vi 10; vs "p10"; vs "b"; vs "s" ];
          [ vi 4; vnull; vnull; vs "b"; vs "s" ];
        ] );
    ]

let cand rel a = Attribute.single rel a

let test_fd_elicited_with_pruning () =
  let r =
    Rhs_discovery.run Oracle.automatic (db ()) ~lhs:[ cand "W" "ref" ] ~hidden:[]
  in
  check_sorted_fds "fd found" [ fd "W" [ "ref" ] [ "payload" ] ]
    r.Rhs_discovery.fds;
  match r.Rhs_discovery.steps with
  | [ { Rhs_discovery.pruned_rhs; _ } ] ->
      (* id (key) removed, strict (not null vs nullable lhs) removed *)
      Alcotest.(check (list string)) "tested T" [ "payload"; "extra" ] pruned_rhs
  | _ -> Alcotest.fail "one step expected"

let test_not_null_kept_when_lhs_total () =
  (* make ref not-null: strict stays in T *)
  let db =
    database
      [
        ( Relation.make ~uniques:[ [ "id" ] ] ~not_nulls:[ "ref"; "strict" ] "W"
            [ "id"; "ref"; "strict" ],
          [ [ vi 1; vi 10; vs "s10" ]; [ vi 2; vi 10; vs "s10" ] ] );
      ]
  in
  let r = Rhs_discovery.run Oracle.automatic db ~lhs:[ cand "W" "ref" ] ~hidden:[] in
  match r.Rhs_discovery.steps with
  | [ { Rhs_discovery.pruned_rhs = [ "strict" ]; outcome = Rhs_discovery.Fd_elicited _; _ } ] -> ()
  | _ -> Alcotest.fail "expected strict tested and FD found"

let test_empty_rhs_becomes_hidden () =
  let r =
    Rhs_discovery.run Oracle.automatic (db ()) ~lhs:[ cand "W" "extra" ] ~hidden:[]
  in
  Alcotest.(check (list fd_t)) "no fd" [] r.Rhs_discovery.fds;
  Alcotest.(check (list attr)) "became hidden" [ cand "W" "extra" ]
    r.Rhs_discovery.hidden

let test_empty_rhs_refused () =
  let r =
    Rhs_discovery.run (Oracle.of_mode Skeptical) (db ()) ~lhs:[ cand "W" "extra" ] ~hidden:[]
  in
  Alcotest.(check (list attr)) "dropped" [] r.Rhs_discovery.hidden;
  match r.Rhs_discovery.steps with
  | [ { Rhs_discovery.outcome = Rhs_discovery.Dropped; _ } ] -> ()
  | _ -> Alcotest.fail "expected dropped"

let test_hidden_with_fd_leaves_h () =
  let r =
    Rhs_discovery.run Oracle.automatic (db ()) ~lhs:[] ~hidden:[ cand "W" "ref" ]
  in
  check_sorted_fds "fd found" [ fd "W" [ "ref" ] [ "payload" ] ] r.Rhs_discovery.fds;
  Alcotest.(check (list attr)) "left H" [] r.Rhs_discovery.hidden

let test_hidden_without_fd_stays () =
  let r =
    Rhs_discovery.run Oracle.automatic (db ()) ~lhs:[] ~hidden:[ cand "W" "extra" ]
  in
  Alcotest.(check (list attr)) "stays" [ cand "W" "extra" ] r.Rhs_discovery.hidden;
  match r.Rhs_discovery.steps with
  | [ { Rhs_discovery.outcome = Rhs_discovery.Already_hidden; _ } ] -> ()
  | _ -> Alcotest.fail "expected already-hidden"

let test_enforcement () =
  (* expert enforces ref -> extra although the data violates it *)
  let o =
    {
      Oracle.automatic with
      Oracle.enforce_fd = (fun ~rel:_ ~lhs:_ ~attr -> attr = "extra");
    }
  in
  let r = Rhs_discovery.run o (db ()) ~lhs:[ cand "W" "ref" ] ~hidden:[] in
  check_sorted_fds "enforced rhs included"
    [ fd "W" [ "ref" ] [ "extra"; "payload" ] ]
    r.Rhs_discovery.fds

let test_validation_rejection () =
  let o = { Oracle.automatic with Oracle.validate_fd = (fun _ -> false) } in
  let r = Rhs_discovery.run o (db ()) ~lhs:[ cand "W" "ref" ] ~hidden:[] in
  Alcotest.(check (list fd_t)) "rejected" [] r.Rhs_discovery.fds;
  match r.Rhs_discovery.steps with
  | [ { Rhs_discovery.outcome = Rhs_discovery.Dropped; _ } ] -> ()
  | _ -> Alcotest.fail "expected dropped after rejection"

let test_unknown_relation () =
  let r =
    Rhs_discovery.run Oracle.automatic (db ()) ~lhs:[ cand "Ghost" "x" ] ~hidden:[]
  in
  Alcotest.(check (list fd_t)) "nothing" [] r.Rhs_discovery.fds

let test_multi_attr_candidate () =
  let db =
    database
      [
        ( Relation.make ~uniques:[ [ "id" ] ] "M" [ "id"; "x"; "y"; "v" ],
          [
            [ vi 1; vi 1; vi 1; vs "a" ];
            [ vi 2; vi 1; vi 1; vs "a" ];
            [ vi 3; vi 1; vi 2; vs "b" ];
          ] );
      ]
  in
  let r =
    Rhs_discovery.run Oracle.automatic db
      ~lhs:[ Attribute.make "M" [ "x"; "y" ] ]
      ~hidden:[]
  in
  check_sorted_fds "composite lhs" [ fd "M" [ "x"; "y" ] [ "v" ] ] r.Rhs_discovery.fds

let test_engines_agree () =
  let db = db () in
  let r =
    Rhs_discovery.run Oracle.automatic db ~lhs:[ cand "W" "ref" ] ~hidden:[]
  in
  check_rhs_steps_reference "steps = reference" db r

let suite =
  [
    Alcotest.test_case "fd elicited with pruning" `Quick test_fd_elicited_with_pruning;
    Alcotest.test_case "not-null kept for total lhs" `Quick test_not_null_kept_when_lhs_total;
    Alcotest.test_case "empty rhs becomes hidden" `Quick test_empty_rhs_becomes_hidden;
    Alcotest.test_case "empty rhs refused" `Quick test_empty_rhs_refused;
    Alcotest.test_case "hidden with fd leaves H" `Quick test_hidden_with_fd_leaves_h;
    Alcotest.test_case "hidden without fd stays" `Quick test_hidden_without_fd_stays;
    Alcotest.test_case "expert enforcement" `Quick test_enforcement;
    Alcotest.test_case "expert rejection" `Quick test_validation_rejection;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "composite candidate" `Quick test_multi_attr_candidate;
    Alcotest.test_case "engines agree" `Quick test_engines_agree;
  ]
