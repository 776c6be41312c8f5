(* Reverse-engineering a legacy payroll system from its program sources.

   Unlike the quickstart, the equi-joins are not given: the pipeline scans
   the application programs (COBOL paragraphs, C functions, dynamic SQL
   built from string concatenation), extracts the embedded statements,
   and elicits Q itself. The scenario exercises:

   - hidden objects behind composite keys (paid staff vs. active staff),
   - an FD revealed only by a *self-join* (tax bands),
   - a non-empty intersection between grants and timesheet projects that
     the expert conceptualizes,
   - weak entity types in the final EER schema (payslips, timesheets,
     budget lines),
   - an FD (grade -> grade_label) that holds in the data but that no
     program navigates: the method correctly leaves it alone.

   Run with:  dune exec examples/legacy_payroll.exe *)

open Relational

let () =
  let scenario = Workload.Scenarios.payroll in
  Format.printf "Scenario: %s@.%s@.@." scenario.Workload.Scenarios.name
    scenario.Workload.Scenarios.description;

  let db = scenario.Workload.Scenarios.database () in
  Format.printf "Relations and extensions:@.";
  List.iter
    (fun r ->
      Format.printf "%-20s arity=%d  rows=%d@." r.Relation.name (Relation.arity r)
        (Database.cardinality db r.Relation.name))
    (Schema.relations (Database.schema db));

  (* show what the embedded-SQL scanner recovers from the sources *)
  let scans =
    List.map Sqlx.Embedded.scan scenario.Workload.Scenarios.programs
  in
  let sum f = List.fold_left (fun n e -> n + f e) 0 scans in
  let statements =
    List.concat_map (fun e -> e.Sqlx.Embedded.statements) scans
  in
  Format.printf "@.Scanned %d program(s): %d SQL fragment(s), %d parsed, %d \
                 unparsable@."
    (List.length scenario.Workload.Scenarios.programs)
    (sum (fun e -> e.Sqlx.Embedded.raw_found))
    (List.length statements)
    (sum (fun e -> List.length e.Sqlx.Embedded.failures));
  List.iter
    (fun stmt ->
      Format.printf "  %s@." (Sqlx.Pretty.statement_to_string stmt))
    statements;

  (* the equi-joins with their occurrence counts across the corpus -
     frequency is a relevance signal the expert can use *)
  let counted = Support.Navigation.count (Database.schema db) statements in
  Format.printf "@.Equi-joins (by frequency):@.";
  List.iter
    (fun (j, n) -> Format.printf "  %dx %s@." n (Sqlx.Equijoin.to_string j))
    counted;

  (* the logical navigation graph: which relations the programs cluster
     together, and which are never navigated *)
  let nav =
    Support.Navigation.of_equijoins counted
  in
  Format.printf "@.%a@." Support.Navigation.pp nav;
  (match Support.Navigation.never_navigated nav (Database.schema db) with
  | [] -> ()
  | lonely ->
      Format.printf "never navigated by any program: %s@."
        (String.concat ", " lonely));

  (* run the full method with the scenario's scripted expert *)
  let result =
    match Dbre.Job.run (Workload.Scenarios.spec scenario) with
    | Ok r -> r
    | Error p ->
        Format.eprintf "pipeline failed: %a@." Relational.Error.pp
          p.Dbre.Pipeline.p_error;
        exit 1
  in
  Format.printf "@.%a@." Dbre.Report.pp_result result;

  (* highlight the negative result: grade_label was NOT split out *)
  let staff =
    Schema.find_exn result.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema
      "Staff"
  in
  Format.printf
    "@.Note: Staff still carries grade/grade_label (%b) - the dependency \
     grade -> grade_label holds in the data but no program navigates it, so \
     the method (correctly) does not conceptualize it.@."
    (Relation.has_attr staff "grade_label")
