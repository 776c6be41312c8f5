(* Golden tests for the hospital scenario: composite identifiers,
   multi-attribute INDs, forced NEI, and the Treatment m:n relationship. *)

open Relational
open Helpers
open Deps
open Dbre

let run () = Helpers.ok (Job.run (Workload.Scenarios.spec Workload.Scenarios.hospital))

let result = lazy (run ())

let test_multi_attribute_inds () =
  let r = Lazy.force result in
  let inds = r.Pipeline.ind_result.Ind_discovery.inds in
  Alcotest.(check bool) "composite patient IND" true
    (List.exists
       (Ind.equal
          (ind
             ("Admission", [ "hosp_code"; "pat_no" ])
             ("Patient", [ "hosp_code"; "pat_no" ])))
       inds);
  Alcotest.(check bool) "three-attribute IND" true
    (List.exists
       (Ind.equal
          (ind
             ("Treatment", [ "adm_date"; "hosp_code"; "pat_no" ])
             ("Admission", [ "adm_date"; "hosp_code"; "pat_no" ])))
       inds);
  (* proper subset: only one direction for Admission/Patient *)
  Alcotest.(check bool) "no reverse patient IND" false
    (List.exists
       (Ind.equal
          (ind
             ("Patient", [ "hosp_code"; "pat_no" ])
             ("Admission", [ "hosp_code"; "pat_no" ])))
       inds)

let test_forced_nei () =
  let r = Lazy.force result in
  Alcotest.(check bool) "forced Treatment << Formulary" true
    (List.exists
       (Ind.equal (ind ("Treatment", [ "drug_code" ]) ("Formulary", [ "drug_code" ])))
       r.Pipeline.ind_result.Ind_discovery.inds);
  (* the force came from an NEI decision, not from inclusion *)
  Alcotest.(check bool) "recorded as a forced NEI" true
    (List.exists
       (function
         | Oracle.Nei_decided (_, Oracle.Force_right_in_left) -> true
         | _ -> false)
       r.Pipeline.events)

let test_fds () =
  let r = Lazy.force result in
  check_sorted_fds "two FDs"
    [
      fd "Staff" [ "ward_code" ] [ "ward_name" ];
      fd "Treatment" [ "drug_code" ] [ "drug_name" ];
    ]
    r.Pipeline.rhs_result.Rhs_discovery.fds

let test_eer_shape () =
  let r = Lazy.force result in
  let eer = r.Pipeline.translate_result.Translate.eer in
  (* Admission: weak entity of Patient, discriminated by adm_date *)
  (match Er.Eer.find_entity eer "Admission" with
  | Some e ->
      Alcotest.(check (option string)) "weak of Patient" (Some "Patient")
        e.Er.Eer.e_weak_of;
      Alcotest.(check (list string)) "discriminator" [ "adm_date" ] e.Er.Eer.e_key
  | None -> Alcotest.fail "Admission entity missing");
  (* Treatment: m:n relationship Admission -- Drug carrying dose *)
  (match Er.Eer.find_relationship eer "Treatment" with
  | Some rel ->
      Alcotest.(check (list string)) "roles"
        [ "Admission"; "Drug" ]
        (sorted_strings
           (List.map (fun (ro : Er.Eer.role) -> ro.Er.Eer.role_entity) rel.Er.Eer.r_roles));
      Alcotest.(check (list string)) "dose attribute" [ "dose" ] rel.Er.Eer.r_attrs;
      Alcotest.(check bool) "both legs Many" true
        (List.for_all
           (fun (ro : Er.Eer.role) -> ro.Er.Eer.role_card = Some Er.Eer.Many)
           rel.Er.Eer.r_roles)
  | None -> Alcotest.fail "Treatment relationship missing");
  (* Drug is-a Formulary from the forced IND *)
  Alcotest.(check bool) "Drug is-a Formulary" true
    (List.exists
       (fun (l : Er.Eer.isa) ->
         l.Er.Eer.isa_sub = "Drug" && l.Er.Eer.isa_super = "Formulary")
       eer.Er.Eer.isas);
  Alcotest.(check (result unit (list string))) "validates" (Ok ())
    (Er.Validate.check eer)

let test_3nf_and_constraints () =
  let r = Lazy.force result in
  List.iter
    (fun (name, nf) ->
      Alcotest.(check bool)
        (name ^ " >= 3NF")
        true
        (match nf with
        | Normal_forms.Nf3 | Normal_forms.Bcnf -> true
        | Normal_forms.Nf1 | Normal_forms.Nf2 -> false))
    (Pipeline.nf_report r);
  match r.Pipeline.restruct_result.Restruct.database with
  | Some db ->
      (* the Drug << Formulary constraint was FORCED by the expert against
         dirty data: the paper itself warns that "the obtained data
         structure no longer matches the database extension" — every other
         RIC must hold *)
      let forced = ind ("Drug", [ "drug_code" ]) ("Formulary", [ "drug_code" ]) in
      List.iter
        (fun i ->
          let expected = not (Ind.equal i forced) in
          Alcotest.(check bool) (Ind.to_string i) expected (Ind.satisfied db i))
        r.Pipeline.restruct_result.Restruct.ric
  | None -> Alcotest.fail "expected migrated database"

let test_migration_roundtrip () =
  let s = Workload.Scenarios.hospital in
  let original = Database.schema (s.Workload.Scenarios.database ()) in
  let r = Helpers.ok (Job.run (Workload.Scenarios.spec s)) in
  Alcotest.(check bool) "extensionally equal" true
    (migration_replays ~original r (s.Workload.Scenarios.database ()))

let suite =
  [
    Alcotest.test_case "multi-attribute INDs" `Quick test_multi_attribute_inds;
    Alcotest.test_case "forced NEI" `Quick test_forced_nei;
    Alcotest.test_case "elicited FDs" `Quick test_fds;
    Alcotest.test_case "EER shape" `Quick test_eer_shape;
    Alcotest.test_case "3NF and constraints" `Quick test_3nf_and_constraints;
    Alcotest.test_case "migration roundtrip" `Quick test_migration_roundtrip;
  ]
