(* The forward mapping (EER → relational) and its round-trip against the
   paper's restructured schema: mapping the Figure 1 EER schema forward
   must reproduce the §7 relational schema (up to attribute order). *)

open Relational
open Helpers
open Er
open Support

let entity ?(attrs = []) ?(key = []) ?weak_of name =
  { Eer.e_name = name; e_attrs = attrs; e_key = key; e_weak_of = weak_of }

let test_regular_entity () =
  let eer = Eer.add_entity Eer.empty (entity ~key:[ "id" ] ~attrs:[ "v" ] "E") in
  let r = To_relational.map eer in
  let rel = Schema.find_exn r.To_relational.schema "E" in
  Alcotest.(check (list string)) "attrs" [ "id"; "v" ] rel.Relation.attrs;
  Alcotest.(check bool) "key" true (Relation.is_key rel [ "id" ]);
  Alcotest.(check int) "no refs" 0 (List.length r.To_relational.refs)

let test_weak_entity_borrows_key () =
  let eer =
    Eer.empty
    |> Fun.flip Eer.add_entity (entity ~key:[ "no" ] "Owner")
    |> Fun.flip Eer.add_entity
         (entity ~key:[ "date" ] ~attrs:[ "v" ] ~weak_of:"Owner" "Weak")
  in
  let r = To_relational.map eer in
  let rel = Schema.find_exn r.To_relational.schema "Weak" in
  Alcotest.(check bool) "borrowed composite key" true
    (Relation.is_key rel [ "date"; "no" ]);
  match r.To_relational.refs with
  | [ ("Weak", [ "no" ], "Owner", [ "no" ]) ] -> ()
  | _ -> Alcotest.fail "expected one owner reference"

let test_isa_reference () =
  let eer =
    Eer.empty
    |> Fun.flip Eer.add_entity (entity ~key:[ "id" ] "Super")
    |> Fun.flip Eer.add_entity (entity ~key:[ "sid" ] "Sub")
    |> fun t -> Eer.add_isa t ~sub:"Sub" ~super:"Super"
  in
  let r = To_relational.map eer in
  match r.To_relational.refs with
  | [ ("Sub", [ "sid" ], "Super", [ "id" ]) ] -> ()
  | _ -> Alcotest.fail "expected one is-a reference"

let test_mn_junction () =
  let eer =
    Eer.empty
    |> Fun.flip Eer.add_entity (entity ~key:[ "a" ] "A")
    |> Fun.flip Eer.add_entity (entity ~key:[ "b" ] "B")
    |> Fun.flip Eer.add_relationship
         {
           Eer.r_name = "Link";
           r_roles =
             [ Eer.role ~card:Eer.Many "A" [ "a" ]; Eer.role ~card:Eer.Many "B" [ "b" ] ];
           r_attrs = [ "when" ];
         }
  in
  let r = To_relational.map eer in
  let rel = Schema.find_exn r.To_relational.schema "Link" in
  Alcotest.(check (list string)) "attrs" [ "a"; "b"; "when" ] rel.Relation.attrs;
  Alcotest.(check bool) "key is role union" true (Relation.is_key rel [ "a"; "b" ]);
  Alcotest.(check int) "two refs" 2 (List.length r.To_relational.refs)

let test_one_leg_folded () =
  let eer =
    Eer.empty
    |> Fun.flip Eer.add_entity (entity ~key:[ "d" ] ~attrs:[ "loc" ] "Dept")
    |> Fun.flip Eer.add_entity (entity ~key:[ "m" ] "Mgr")
    |> Fun.flip Eer.add_relationship
         {
           Eer.r_name = "manages";
           r_roles =
             [ Eer.role ~card:Eer.One "Dept" [ "mgr_id" ]; Eer.role ~card:Eer.Many "Mgr" [ "m" ] ];
           r_attrs = [];
         }
  in
  let r = To_relational.map eer in
  Alcotest.(check bool) "no junction relation" false
    (Schema.mem r.To_relational.schema "manages");
  let dept = Schema.find_exn r.To_relational.schema "Dept" in
  Alcotest.(check (list string)) "fk folded into Dept" [ "d"; "loc"; "mgr_id" ]
    dept.Relation.attrs;
  match r.To_relational.refs with
  | [ ("Dept", [ "mgr_id" ], "Mgr", [ "m" ]) ] -> ()
  | _ -> Alcotest.fail "expected folded reference"

let test_rejects_invalid () =
  let bad = Eer.add_entity Eer.empty (entity "NoKey") in
  try
    ignore (To_relational.map bad);
    Alcotest.fail "expected Invalid_argument"
  with Invalid_argument _ -> ()

(* ---------- the round-trip on the paper example ---------- *)

let test_paper_roundtrip () =
  let result = Helpers.paper () in
  let restructured = result.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema in
  let forward =
    To_relational.map result.Dbre.Pipeline.translate_result.Dbre.Translate.eer
  in
  (* same relations *)
  Alcotest.(check (list string)) "same relation names"
    (sorted_strings
       (List.map (fun r -> r.Relation.name) (Schema.relations restructured)))
    (sorted_strings
       (List.map (fun r -> r.Relation.name)
          (Schema.relations forward.To_relational.schema)));
  (* same attribute sets and keys, relation by relation *)
  List.iter
    (fun rel ->
      let name = rel.Relation.name in
      let fwd = Schema.find_exn forward.To_relational.schema name in
      Alcotest.(check names)
        (name ^ ": attribute set")
        (Relational.Attribute.Names.normalize rel.Relation.attrs)
        (Relational.Attribute.Names.normalize fwd.Relation.attrs);
      match rel.Relation.uniques with
      | key :: _ ->
          Alcotest.(check bool) (name ^ ": key preserved") true
            (Relation.is_key fwd key)
      | [] -> ())
    (Schema.relations restructured);
  (* the forward references are exactly the RICs *)
  let normalize_ref (r, a, t, ta) =
    (r, Relational.Attribute.Names.normalize a, t, Relational.Attribute.Names.normalize ta)
  in
  let forward_refs =
    List.sort_uniq compare (List.map normalize_ref forward.To_relational.refs)
  in
  let rics =
    List.sort_uniq compare
      (List.map
         (fun (i : Deps.Ind.t) ->
           normalize_ref (i.Deps.Ind.lhs_rel, i.Deps.Ind.lhs_attrs, i.Deps.Ind.rhs_rel, i.Deps.Ind.rhs_attrs))
         result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric)
  in
  Alcotest.(check int) "same number of references" (List.length rics)
    (List.length forward_refs);
  Alcotest.(check bool) "same references" true (forward_refs = rics)

let test_hospital_roundtrip_names () =
  let s = Workload.Scenarios.hospital in
  let result = Helpers.ok (Dbre.Job.run (Workload.Scenarios.spec s)) in
  let restructured = result.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema in
  let forward =
    To_relational.map result.Dbre.Pipeline.translate_result.Dbre.Translate.eer
  in
  Alcotest.(check (list string)) "hospital: same relation names"
    (sorted_strings
       (List.map (fun r -> r.Relation.name) (Schema.relations restructured)))
    (sorted_strings
       (List.map (fun r -> r.Relation.name)
          (Schema.relations forward.To_relational.schema)))

let suite =
  [
    Alcotest.test_case "regular entity" `Quick test_regular_entity;
    Alcotest.test_case "weak entity" `Quick test_weak_entity_borrows_key;
    Alcotest.test_case "is-a reference" `Quick test_isa_reference;
    Alcotest.test_case "m:n junction" `Quick test_mn_junction;
    Alcotest.test_case "one-leg folding" `Quick test_one_leg_folded;
    Alcotest.test_case "rejects invalid EER" `Quick test_rejects_invalid;
    Alcotest.test_case "paper round-trip" `Quick test_paper_roundtrip;
    Alcotest.test_case "hospital round-trip (names)" `Quick test_hospital_roundtrip_names;
  ]
