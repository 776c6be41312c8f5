(* From a hospital admissions system to a conceptual schema — and back.

   This walkthrough exercises the parts of the method the other examples
   don't:

   - composite identifiers: patients are identified by
     (hosp_code, pat_no), so the programs' two- and three-attribute
     equi-joins elicit multi-attribute inclusion dependencies;
   - a relation that is really a relationship: Treatment's key is fully
     covered by references, so Translate turns it into an m:n
     Admission--Drug relationship type carrying the dose;
   - a forced NEI: treatments mention drug codes missing from the
     formulary; the expert trusts the catalog and forces the inclusion
     (the §6.1 warning applies: the structure then no longer matches the
     extension, and the migration script marks that constraint);
   - the forward round-trip: mapping the derived EER schema back to
     relations (Support.To_relational) reproduces the restructured schema —
     §3's claim that DBRE applies exactly to forward-designable schemas,
     checked on this output;
   - the Markdown report for project documentation.

   Run with:  dune exec examples/hospital_conceptual.exe *)

open Relational

let () =
  let s = Workload.Scenarios.hospital in
  Format.printf "Scenario: %s@.%s@.@." s.Workload.Scenarios.name
    s.Workload.Scenarios.description;
  let original = Database.schema (s.Workload.Scenarios.database ()) in
  let result =
    match Dbre.Job.run (Workload.Scenarios.spec s) with
    | Ok r -> r
    | Error p ->
        Format.eprintf "pipeline failed: %a@." Relational.Error.pp
          p.Dbre.Pipeline.p_error;
        exit 1
  in
  Format.printf "%a@." Dbre.Report.pp_result result;

  (* forward round-trip: EER -> relational must reproduce the schema *)
  let eer = result.Dbre.Pipeline.translate_result.Dbre.Translate.eer in
  let forward = Support.To_relational.map eer in
  let restructured = result.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema in
  let names schema =
    List.sort String.compare
      (List.map (fun r -> r.Relation.name) (Schema.relations schema))
  in
  Format.printf
    "@.Forward mapping the EER schema reproduces the relational design: %b@."
    (names forward.Support.To_relational.schema = names restructured);
  Format.printf "forward references: %d (restructured RIC: %d)@."
    (List.length forward.Support.To_relational.refs)
    (List.length result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric);

  (* the migration script marks the expert-forced, data-violated FK *)
  let migration = Dbre.Migration.script ~original result in
  String.split_on_char '\n' migration
  |> List.filter (fun line ->
         String.length line > 2 && line.[0] = '-' && line.[1] = '-')
  |> List.iter (fun line -> Format.printf "%s@." line);

  (* project documentation *)
  let path = Filename.concat (Filename.get_temp_dir_name ()) "hospital.md" in
  let oc = open_out path in
  output_string oc (Dbre.Report.markdown ~title:"Hospital re-engineering" result);
  close_out oc;
  Format.printf "@.Markdown report written to %s@." path
