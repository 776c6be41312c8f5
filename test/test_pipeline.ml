open Relational
open Helpers
open Deps
open Dbre

(* ---------- the paper's running example, end to end (E1-F1) ---------- *)

let test_paper_q_from_programs () =
  (* the front-end recovers exactly the §5 set Q from program sources *)
  let r = Workload.Paper_example.run_from_programs () in
  Alcotest.(check (list equijoin_t)) "Q"
    (Workload.Paper_example.equijoins ())
    r.Pipeline.equijoins

let test_paper_ind_set () =
  let r = Workload.Paper_example.run () in
  check_sorted_inds "the six §6.1 INDs"
    [
      ind ("HEmployee", [ "no" ]) ("Person", [ "id" ]);
      ind ("Department", [ "emp" ]) ("HEmployee", [ "no" ]);
      ind ("Assignment", [ "emp" ]) ("HEmployee", [ "no" ]);
      ind ("Ass-Dept", [ "dep" ]) ("Assignment", [ "dep" ]);
      ind ("Ass-Dept", [ "dep" ]) ("Department", [ "dep" ]);
      ind ("Department", [ "proj" ]) ("Assignment", [ "proj" ]);
    ]
    r.Pipeline.ind_result.Ind_discovery.inds;
  match r.Pipeline.ind_result.Ind_discovery.new_relations with
  | [ rel ] -> Alcotest.(check string) "S = {Ass-Dept}" "Ass-Dept" rel.Relation.name
  | _ -> Alcotest.fail "expected exactly one conceptualized relation"

let test_paper_f_set () =
  let r = Workload.Paper_example.run () in
  check_sorted_fds "the two §6.2.2 FDs"
    [
      fd "Department" [ "emp" ] [ "skill"; "proj" ];
      fd "Assignment" [ "proj" ] [ "project-name" ];
    ]
    r.Pipeline.rhs_result.Rhs_discovery.fds;
  Alcotest.(check (list string)) "final H"
    [ "HEmployee.no"; "Assignment.dep" ]
    (List.map Attribute.to_string r.Pipeline.rhs_result.Rhs_discovery.hidden)

let test_paper_3nf () =
  let r = Workload.Paper_example.run () in
  List.iter
    (fun (name, nf) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s at least 3NF" name)
        true
        (match nf with
        | Normal_forms.Nf3 | Normal_forms.Bcnf -> true
        | Normal_forms.Nf1 | Normal_forms.Nf2 -> false))
    (Pipeline.nf_report r)

let test_paper_zipcode_not_elicited () =
  (* zip-code -> state holds in the data but is never elicited: no program
     navigates it (the paper's point about irrelevant FDs) *)
  let db = Workload.Paper_example.database () in
  Alcotest.(check bool) "holds in data" true
    (Reference.Fd_infer.satisfied_by (Database.table db "Person")
       (fd "Person" [ "zip-code" ] [ "state" ]));
  let r = Workload.Paper_example.run () in
  Alcotest.(check bool) "never elicited" false
    (List.exists
       (fun (f : Fd.t) -> f.Fd.rel = "Person")
       r.Pipeline.rhs_result.Rhs_discovery.fds)

let test_paper_events () =
  let r = Workload.Paper_example.run () in
  let conceptualizations =
    List.filter
      (function
        | Oracle.Nei_decided (_, Oracle.Conceptualize _) -> true | _ -> false)
      r.Pipeline.events
  in
  Alcotest.(check int) "one NEI conceptualized" 1 (List.length conceptualizations);
  let hidden_accepted =
    List.filter
      (function Oracle.Hidden_considered (_, true) -> true | _ -> false)
      r.Pipeline.events
  in
  Alcotest.(check int) "one hidden object accepted" 1 (List.length hidden_accepted)

let test_paper_report_renders () =
  let r = Workload.Paper_example.run () in
  let text = Format.asprintf "%a" Report.pp_result r in
  Alcotest.(check bool) "nonempty narrative" true (String.length text > 2000)

(* ---------- other input forms and configurations ---------- *)

let test_sql_scripts_input () =
  let db = Workload.Paper_example.database () in
  let r =
    Pipeline.run db
      (Job_spec.Sql_scripts
         [ "SELECT name FROM Person, HEmployee WHERE HEmployee.no = Person.id;" ])
  in
  Alcotest.(check int) "one equijoin" 1 (List.length r.Pipeline.equijoins);
  check_sorted_inds "one IND"
    [ ind ("HEmployee", [ "no" ]) ("Person", [ "id" ]) ]
    r.Pipeline.ind_result.Ind_discovery.inds

(* the paper's expert neither enforces nor rejects an FD, so every
   elicited FD must be exactly the reference's verdicts *)
let test_steps_match_reference () =
  let db = Workload.Paper_example.database () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle = Workload.Paper_example.oracle ();
      migrate_data = false;
    }
  in
  let r =
    Pipeline.run ~config db
      (Job_spec.Equijoins (Workload.Paper_example.equijoins ()))
  in
  check_ind_steps_reference "IND step" db r.Pipeline.ind_result;
  check_rhs_steps_reference "F" db r.Pipeline.rhs_result

let test_no_migration_config () =
  let db = Workload.Paper_example.database () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle = Workload.Paper_example.oracle ();
      engine = Relational.Engine.default;
      migrate_data = false;
    }
  in
  let r =
    Pipeline.run ~config db
      (Job_spec.Equijoins (Workload.Paper_example.equijoins ()))
  in
  Alcotest.(check bool) "no migrated db" true
    (r.Pipeline.restruct_result.Restruct.database = None)

(* ---------- synthetic ground truth recovery ---------- *)

let test_synthetic_recovery () =
  let g = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
  let r =
    Pipeline.run g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  check_sorted_inds "all planted INDs recovered"
    g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds
    r.Pipeline.ind_result.Ind_discovery.inds;
  check_sorted_fds "all planted FDs recovered"
    g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds
    r.Pipeline.rhs_result.Rhs_discovery.fds

let test_synthetic_from_programs () =
  let g = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
  let r =
    Pipeline.run g.Workload.Gen_schema.db
      (Job_spec.Programs g.Workload.Gen_schema.programs)
  in
  check_sorted_inds "program scan finds the same INDs"
    g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds
    r.Pipeline.ind_result.Ind_discovery.inds

let test_payroll_scenario () =
  let s = Workload.Scenarios.payroll in
  let db = s.Workload.Scenarios.database () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle = s.Workload.Scenarios.oracle ();
    }
  in
  let r = Pipeline.run ~config db (Job_spec.Programs s.Workload.Scenarios.programs) in
  (* headline structures *)
  let schema = r.Pipeline.restruct_result.Restruct.schema in
  List.iter
    (fun name ->
      Alcotest.(check bool) (name ^ " created") true (Schema.mem schema name))
    [
      "Paid-Staff"; "Active-Staff"; "Department"; "Tax-Band"; "Project";
      "Sponsorship"; "Sponsored-Active-Project";
    ];
  (* grade -> grade_label is NOT elicited (no program navigates it) *)
  Alcotest.(check bool) "grade_label stays in Staff" true
    (Relation.has_attr (Schema.find_exn schema "Staff") "grade_label");
  let eer = r.Pipeline.translate_result.Translate.eer in
  Alcotest.(check bool) "Payslip weak of Paid-Staff" true
    (match Er.Eer.find_entity eer "Payslip" with
    | Some e -> e.Er.Eer.e_weak_of = Some "Paid-Staff"
    | None -> false);
  Alcotest.(check (result unit (list string))) "payroll EER validates" (Ok ())
    (Er.Validate.check eer)

let suite =
  [
    Alcotest.test_case "paper: Q from programs" `Quick test_paper_q_from_programs;
    Alcotest.test_case "paper: IND set (E2)" `Quick test_paper_ind_set;
    Alcotest.test_case "paper: F and H (E4)" `Quick test_paper_f_set;
    Alcotest.test_case "paper: 3NF reached (E5)" `Quick test_paper_3nf;
    Alcotest.test_case "paper: zip-code FD not elicited" `Quick test_paper_zipcode_not_elicited;
    Alcotest.test_case "paper: expert events" `Quick test_paper_events;
    Alcotest.test_case "paper: report renders" `Quick test_paper_report_renders;
    Alcotest.test_case "sql-scripts input" `Quick test_sql_scripts_input;
    Alcotest.test_case "IND and FD steps = reference" `Quick
      test_steps_match_reference;
    Alcotest.test_case "no-migration config" `Quick test_no_migration_config;
    Alcotest.test_case "synthetic ground truth" `Quick test_synthetic_recovery;
    Alcotest.test_case "synthetic via programs" `Quick test_synthetic_from_programs;
    Alcotest.test_case "payroll scenario" `Quick test_payroll_scenario;
  ]
