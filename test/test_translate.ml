open Relational
open Helpers
open Dbre

let translate schema ric = Translate.run ~schema ric

let test_isa () =
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "id" ] ] "Sub" [ "id"; "a" ];
        Relation.make ~uniques:[ [ "pid" ] ] "Super" [ "pid"; "b" ];
      ]
  in
  let r = translate schema [ ind ("Sub", [ "id" ]) ("Super", [ "pid" ]) ] in
  match r.Translate.eer.Er.Eer.isas with
  | [ { Er.Eer.isa_sub = "Sub"; isa_super = "Super" } ] -> ()
  | _ -> Alcotest.fail "expected one is-a"

let test_weak_entity () =
  (* key {no, date}; only no covered by a RIC ⇒ weak entity *)
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "no"; "date" ] ] "H" [ "no"; "date"; "sal" ];
        Relation.make ~uniques:[ [ "no" ] ] "E" [ "no" ];
      ]
  in
  let r = translate schema [ ind ("H", [ "no" ]) ("E", [ "no" ]) ] in
  let h = Option.get (Er.Eer.find_entity r.Translate.eer "H") in
  Alcotest.(check (option string)) "weak of" (Some "E") h.Er.Eer.e_weak_of;
  Alcotest.(check (list string)) "discriminator" [ "date" ] h.Er.Eer.e_key;
  Alcotest.(check (list string)) "attrs keep sal only" [ "sal" ] h.Er.Eer.e_attrs

let test_mn_relationship () =
  (* key {e, p} fully covered ⇒ binary m:n relationship with attribute q *)
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "e"; "p" ] ] "Link" [ "e"; "p"; "q" ];
        Relation.make ~uniques:[ [ "id" ] ] "E" [ "id" ];
        Relation.make ~uniques:[ [ "id" ] ] "P" [ "id" ];
      ]
  in
  let r =
    translate schema
      [ ind ("Link", [ "e" ]) ("E", [ "id" ]); ind ("Link", [ "p" ]) ("P", [ "id" ]) ]
  in
  Alcotest.(check bool) "Link is not an entity" true
    (Er.Eer.find_entity r.Translate.eer "Link" = None);
  match Er.Eer.find_relationship r.Translate.eer "Link" with
  | Some rel ->
      Alcotest.(check int) "two roles" 2 (List.length rel.Er.Eer.r_roles);
      Alcotest.(check (list string)) "attribute q" [ "q" ] rel.Er.Eer.r_attrs
  | None -> Alcotest.fail "expected relationship Link"

let test_binary_relationship () =
  (* non-key attribute reference ⇒ binary relationship, attr leaves entity *)
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "dep" ] ] "D" [ "dep"; "mgr"; "loc" ];
        Relation.make ~uniques:[ [ "id" ] ] "M" [ "id" ];
      ]
  in
  let r = translate schema [ ind ("D", [ "mgr" ]) ("M", [ "id" ]) ] in
  let d = Option.get (Er.Eer.find_entity r.Translate.eer "D") in
  Alcotest.(check (list string)) "mgr left the entity" [ "loc" ] d.Er.Eer.e_attrs;
  match r.Translate.eer.Er.Eer.relationships with
  | [ { Er.Eer.r_name = "D_M"; r_roles = [ l; rr ]; _ } ] ->
      Alcotest.(check string) "left role" "D" l.Er.Eer.role_entity;
      Alcotest.(check string) "right role" "M" rr.Er.Eer.role_entity
  | _ -> Alcotest.fail "expected binary relationship D_M"

let test_isa_cycle_guard () =
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "a" ] ] "X" [ "a" ];
        Relation.make ~uniques:[ [ "b" ] ] "Y" [ "b" ];
      ]
  in
  let r =
    translate schema
      [ ind ("X", [ "a" ]) ("Y", [ "b" ]); ind ("Y", [ "b" ]) ("X", [ "a" ]) ]
  in
  Alcotest.(check int) "only one direction kept" 1
    (List.length r.Translate.eer.Er.Eer.isas);
  Alcotest.(check bool) "result validates" true
    (Result.is_ok (Er.Validate.check r.Translate.eer))

let test_standalone_entities () =
  let schema =
    Schema.of_relations [ Relation.make ~uniques:[ [ "k" ] ] "Solo" [ "k"; "v" ] ]
  in
  let r = translate schema [] in
  match r.Translate.eer.Er.Eer.entities with
  | [ e ] ->
      Alcotest.(check string) "entity" "Solo" e.Er.Eer.e_name;
      Alcotest.(check (list string)) "key" [ "k" ] e.Er.Eer.e_key
  | _ -> Alcotest.fail "expected one entity"

(* ------- the paper's Figure 1 ------- *)

let figure1 () =
  let result = Helpers.paper () in
  result.Pipeline.translate_result.Translate.eer

let test_figure1_entities () =
  let eer = figure1 () in
  Alcotest.(check (list string)) "entity types"
    (sorted_strings
       [
         "Person"; "HEmployee"; "Department"; "Ass-Dept"; "Employee";
         "Other-Dept"; "Manager"; "Project";
       ])
    (sorted_strings (Er.Eer.entity_names eer));
  Alcotest.(check bool) "Assignment is not an entity" true
    (Er.Eer.find_entity eer "Assignment" = None)

let test_figure1_isa () =
  let eer = figure1 () in
  let links =
    sorted_strings
      (List.map
         (fun (l : Er.Eer.isa) -> l.Er.Eer.isa_sub ^ ">" ^ l.Er.Eer.isa_super)
         eer.Er.Eer.isas)
  in
  Alcotest.(check (list string)) "four is-a links"
    (sorted_strings
       [
         "Employee>Person"; "Manager>Employee"; "Ass-Dept>Other-Dept";
         "Ass-Dept>Department";
       ])
    links

let test_figure1_assignment_ternary () =
  let eer = figure1 () in
  match Er.Eer.find_relationship eer "Assignment" with
  | Some r ->
      Alcotest.(check (list string)) "three roles"
        (sorted_strings [ "Employee"; "Other-Dept"; "Project" ])
        (sorted_strings
           (List.map (fun (ro : Er.Eer.role) -> ro.Er.Eer.role_entity) r.Er.Eer.r_roles));
      Alcotest.(check (list string)) "date attribute" [ "date" ] r.Er.Eer.r_attrs
  | None -> Alcotest.fail "expected ternary Assignment relationship"

let test_figure1_weak_hemployee () =
  let eer = figure1 () in
  let h = Option.get (Er.Eer.find_entity eer "HEmployee") in
  Alcotest.(check (option string)) "weak of Employee" (Some "Employee")
    h.Er.Eer.e_weak_of;
  Alcotest.(check (list string)) "discriminated by date" [ "date" ] h.Er.Eer.e_key;
  Alcotest.(check (list string)) "salary attribute" [ "salary" ] h.Er.Eer.e_attrs

let test_figure1_binary_relationships () =
  let eer = figure1 () in
  let binaries =
    List.filter
      (fun (r : Er.Eer.relationship) -> r.Er.Eer.r_name <> "Assignment")
      eer.Er.Eer.relationships
  in
  Alcotest.(check (list string)) "two binary diamonds"
    (sorted_strings [ "Department_Manager"; "Manager_Project" ])
    (sorted_strings (List.map (fun (r : Er.Eer.relationship) -> r.Er.Eer.r_name) binaries))

let test_figure1_cardinalities () =
  let eer = figure1 () in
  let card_of rel_name entity =
    match Er.Eer.find_relationship eer rel_name with
    | Some r ->
        (List.find
           (fun (ro : Er.Eer.role) -> String.equal ro.Er.Eer.role_entity entity)
           r.Er.Eer.r_roles)
          .Er.Eer.role_card
    | None -> None
  in
  (* ternary Assignment: every leg participates many times *)
  List.iter
    (fun e ->
      Alcotest.(check bool)
        (e ^ " is Many in Assignment")
        true
        (card_of "Assignment" e = Some Er.Eer.Many))
    [ "Employee"; "Other-Dept"; "Project" ];
  (* a manager has one project; several managers share one *)
  Alcotest.(check bool) "Manager side is One" true
    (card_of "Manager_Project" "Manager" = Some Er.Eer.One);
  Alcotest.(check bool) "Project side is Many" true
    (card_of "Manager_Project" "Project" = Some Er.Eer.Many);
  (* each manager manages exactly one department in the data *)
  Alcotest.(check bool) "Department 1:1 Manager" true
    (card_of "Department_Manager" "Manager" = Some Er.Eer.One)

let test_no_db_no_cards () =
  let schema =
    Schema.of_relations
      [
        Relation.make ~uniques:[ [ "dep" ] ] "D" [ "dep"; "mgr" ];
        Relation.make ~uniques:[ [ "id" ] ] "M" [ "id" ];
      ]
  in
  let r = translate schema [ ind ("D", [ "mgr" ]) ("M", [ "id" ]) ] in
  match r.Translate.eer.Er.Eer.relationships with
  | [ { Er.Eer.r_roles; _ } ] ->
      Alcotest.(check bool) "no cardinalities without data" true
        (List.for_all (fun (ro : Er.Eer.role) -> ro.Er.Eer.role_card = None) r_roles)
  | _ -> Alcotest.fail "expected one relationship"

let test_figure1_validates () =
  Alcotest.(check (result unit (list string))) "well-formed EER" (Ok ())
    (Er.Validate.check (figure1 ()))

let suite =
  [
    Alcotest.test_case "is-a" `Quick test_isa;
    Alcotest.test_case "weak entity" `Quick test_weak_entity;
    Alcotest.test_case "m:n relationship" `Quick test_mn_relationship;
    Alcotest.test_case "binary relationship" `Quick test_binary_relationship;
    Alcotest.test_case "is-a cycle guard" `Quick test_isa_cycle_guard;
    Alcotest.test_case "standalone entity" `Quick test_standalone_entities;
    Alcotest.test_case "figure 1: entities" `Quick test_figure1_entities;
    Alcotest.test_case "figure 1: is-a links" `Quick test_figure1_isa;
    Alcotest.test_case "figure 1: ternary assignment" `Quick test_figure1_assignment_ternary;
    Alcotest.test_case "figure 1: weak HEmployee" `Quick test_figure1_weak_hemployee;
    Alcotest.test_case "figure 1: binary diamonds" `Quick test_figure1_binary_relationships;
    Alcotest.test_case "figure 1: cardinalities" `Quick test_figure1_cardinalities;
    Alcotest.test_case "no data, no cardinalities" `Quick test_no_db_no_cards;
    Alcotest.test_case "figure 1: validates" `Quick test_figure1_validates;
  ]
