(* Fault-injection properties: whatever fault class hits the inputs, the
   lenient pipeline returns [Ok]/[Error partial] with an accurate
   quarantine ledger — it never raises — and the strict loader refuses
   the same documents. *)

open Relational
open Dbre

let gen_spec =
  QCheck.Gen.(
    let* n_entities = int_range 1 3 in
    let* n_denorm = int_range 1 2 in
    let* refs = int_range 1 2 in
    let* rows = int_range 30 60 in
    let* seed = int_range 0 10_000 in
    return
      {
        Workload.Gen_schema.n_entities;
        rows_per_entity = rows;
        n_denorm;
        refs_per_denorm = refs;
        payload_per_ref = 1;
        rows_per_denorm = rows;
        null_ref_rate = 0.1;
        flow_navigation = false;
        seed = Int64.of_int seed;
      })

let print_spec (s : Workload.Gen_schema.spec) =
  Printf.sprintf "entities=%d denorm=%d refs=%d rows=%d seed=%Ld"
    s.Workload.Gen_schema.n_entities s.Workload.Gen_schema.n_denorm
    s.Workload.Gen_schema.refs_per_denorm s.Workload.Gen_schema.rows_per_entity
    s.Workload.Gen_schema.seed

let arb_spec = QCheck.make ~print:print_spec gen_spec
let count = 15

let prop name arb f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

let lenient_config =
  { Pipeline.default_config with migrate_data = false }

(* Dump every table of the generated database, inject [fault] into each
   document, and reload leniently into a fresh database. *)
let inject_all rng fault g =
  let db = g.Workload.Gen_schema.db in
  let schema = Database.schema db in
  let fresh = Database.create schema in
  let injected = ref 0 in
  let reports = ref [] in
  List.iter
    (fun rel ->
      let csv = Csv.dump_table (Database.table db rel.Relation.name) in
      let inj = Workload.Faults.inject_csv rng rel fault csv in
      injected := !injected + inj.Workload.Faults.injected;
      (match Csv.load ~mode:`Quarantine rel inj.Workload.Faults.csv with
      | Ok (t, report) ->
          Database.replace_table fresh t;
          Option.iter (fun r -> reports := r :: !reports) report
      | Error _ -> Alcotest.fail "quarantine load never fails"))
    (Schema.relations schema);
  (fresh, !injected, List.rev !reports)

let total_entries reports =
  List.fold_left (fun acc r -> acc + Quarantine.count r) 0 reports

(* Every fault class: the lenient pipeline completes and the quarantine
   ledger accounts for exactly the injected faults. *)
let fault_class_prop name mk_fault =
  prop name arb_spec (fun spec ->
      let g = Workload.Gen_schema.generate spec in
      let rng =
        Workload.Rng.create (Int64.add spec.Workload.Gen_schema.seed 77L)
      in
      let fault = mk_fault rng in
      let db, injected, reports = inject_all rng fault g in
      match
        Pipeline.run_checked ~config:lenient_config ~quarantine:reports db
          (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
      with
      | Ok r ->
          r.Pipeline.quarantine == reports
          && total_entries r.Pipeline.quarantine = injected
      | Error _ -> false)

let pick_fault rng =
  Workload.Rng.pick rng
    [
      Workload.Faults.Unterminated_quote;
      Workload.Faults.Extra_field (Workload.Rng.int_in rng 1 3);
      Workload.Faults.Type_mismatch (Workload.Rng.int_in rng 1 3);
      Workload.Faults.Drop_column;
    ]

(* The artifact options of a partial must form a prefix: no stage result
   present after an absent one. *)
let prefix_ok (p : Pipeline.partial) =
  let some o = Option.is_some o in
  let rec ok = function
    | a :: (b :: _ as rest) -> (a || not b) && ok rest
    | _ -> true
  in
  ok
    [
      some p.Pipeline.p_equijoins;
      some p.Pipeline.p_ind_result;
      some p.Pipeline.p_lhs_result;
      some p.Pipeline.p_rhs_result;
      some p.Pipeline.p_restruct_result;
    ]

(* Clean-run decision count for the payroll scenario: how many times the
   expert is consulted end to end. *)
let payroll_decisions =
  lazy
    (let s = Workload.Scenarios.payroll in
     let n = ref 0 in
     let o = s.Workload.Scenarios.oracle () in
     let counting =
       {
         o with
         Oracle.on_nei =
           (fun ctx ->
             incr n;
             o.Oracle.on_nei ctx);
         validate_fd =
           (fun fd ->
             incr n;
             o.Oracle.validate_fd fd);
         enforce_fd =
           (fun ~rel ~lhs ~attr ->
             incr n;
             o.Oracle.enforce_fd ~rel ~lhs ~attr);
         conceptualize_hidden =
           (fun a ->
             incr n;
             o.Oracle.conceptualize_hidden a);
       }
     in
     let config = { Pipeline.default_config with oracle = counting } in
     ignore
       (Pipeline.run ~config
          (s.Workload.Scenarios.database ())
          (Job_spec.Programs s.Workload.Scenarios.programs));
     !n)

let test_oracle_failure_first_decision () =
  (* hospital: the first expert decision is an NEI during IND-Discovery *)
  let s = Workload.Scenarios.hospital in
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle =
        Workload.Faults.failing_oracle ~every:1 (s.Workload.Scenarios.oracle ());
    }
  in
  match
    Pipeline.run_checked ~config
      (s.Workload.Scenarios.database ())
      (Job_spec.Programs s.Workload.Scenarios.programs)
  with
  | Ok _ -> Alcotest.fail "expected a partial result"
  | Error p ->
      Alcotest.(check string)
        "error code" "oracle-failure"
        (Error.code_to_string p.Pipeline.p_error.Error.code);
      Alcotest.(check bool) "failed during IND-Discovery" true
        (p.Pipeline.p_error.Error.stage = Some Error.Ind_discovery);
      Alcotest.(check bool) "Q survived" true
        (Option.is_some p.Pipeline.p_equijoins);
      Alcotest.(check bool) "no IND artifact" true
        (Option.is_none p.Pipeline.p_ind_result);
      Alcotest.(check bool) "prefix shape" true (prefix_ok p)

let test_failing_oracle_validation () =
  Alcotest.check_raises "every must be positive"
    (Invalid_argument "Faults.failing_oracle: every must be positive")
    (fun () ->
      ignore (Workload.Faults.failing_oracle ~every:0 Oracle.automatic))

let suite =
  [
    fault_class_prop "unterminated quote: quarantined, never raises"
      (fun _ -> Workload.Faults.Unterminated_quote);
    fault_class_prop "extra fields: quarantined, never raises" (fun rng ->
        Workload.Faults.Extra_field (Workload.Rng.int_in rng 1 3));
    fault_class_prop "type mismatches: quarantined, never raises" (fun rng ->
        Workload.Faults.Type_mismatch (Workload.Rng.int_in rng 1 3));
    fault_class_prop "dropped column: quarantined, never raises" (fun _ ->
        Workload.Faults.Drop_column);
    prop "strict loader refuses every faulted document" arb_spec (fun spec ->
        let g = Workload.Gen_schema.generate spec in
        let rng =
          Workload.Rng.create (Int64.add spec.Workload.Gen_schema.seed 13L)
        in
        let fault = pick_fault rng in
        List.for_all
          (fun rel ->
            let csv =
              Csv.dump_table
                (Database.table g.Workload.Gen_schema.db rel.Relation.name)
            in
            let inj = Workload.Faults.inject_csv rng rel fault csv in
            if inj.Workload.Faults.injected = 0 then true
            else
              match Csv.load rel inj.Workload.Faults.csv with
              | Ok _ -> false
              | Error _ -> true)
          (Schema.relations (Database.schema g.Workload.Gen_schema.db)));
    prop "oracle failure yields a structured partial"
      (QCheck.make ~print:string_of_int QCheck.Gen.(int_range 1 6))
      (fun every ->
        let s = Workload.Scenarios.payroll in
        let config =
          {
            Pipeline.default_config with
            Pipeline.oracle =
              Workload.Faults.failing_oracle ~every
                (s.Workload.Scenarios.oracle ());
          }
        in
        match
          Pipeline.run_checked ~config
            (s.Workload.Scenarios.database ())
            (Job_spec.Programs s.Workload.Scenarios.programs)
        with
        | Ok _ -> every > Lazy.force payroll_decisions
        | Error p ->
            p.Pipeline.p_error.Error.code = Error.Oracle_failure
            && prefix_ok p);
    Alcotest.test_case "oracle dies on first decision" `Quick
      test_oracle_failure_first_decision;
    Alcotest.test_case "failing_oracle validates every" `Quick
      test_failing_oracle_validation;
  ]
