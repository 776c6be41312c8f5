(* Quickstart: reverse-engineer the paper's running example.

   This walks the public API end to end on the §5 database:
   build a database, declare what the data dictionary knows (keys and
   not-nulls), hand over the equi-joins extracted from the application
   programs, and let the pipeline elicit the dependencies, restructure
   to 3NF and derive the EER schema.

   Run with:  dune exec examples/quickstart.exe *)

open Relational

let () =
  (* 1. The legacy database: schema (with dictionary constraints) and
     extension. Here we use the repository's §5 example; in a real
     setting you would load a DDL script (Sqlx.Ddl.schema_of_script) and
     CSV extensions (Csv.load). *)
  let db = Workload.Paper_example.database () in
  Format.printf "Input schema:@.%a@.@." Schema.pp (Database.schema db);
  Format.printf "K = %a@." Dbre.Report.pp_k_set (Database.schema db);
  Format.printf "N = %a@.@." Dbre.Report.pp_n_set (Database.schema db);

  (* 2. The application knowledge: equi-joins from the programs. The
     front-end can extract them from sources (Job_spec.Programs); here we
     pass the already-computed set Q of §5. *)
  let q = Workload.Paper_example.equijoins () in
  Format.printf "Q (from the application programs):@.%a@.@."
    Dbre.Report.pp_equijoins q;

  (* 3. The expert user, as data. Scripted here so the run is
     deterministic; Dbre.Oracle.Interactive answers the questions on the
     terminal, Dbre.Oracle.Auto runs hands-free. *)
  let oracle = Dbre.Oracle.Scripted Workload.Paper_example.oracle_script in

  (* 4. Run the method on one job spec: the database as in-memory
     sources, Q given directly. [Job.run] returns a typed partial result
     on a stage failure instead of raising. *)
  let result =
    match
      Dbre.Job.run
        (Dbre.Job_spec.of_database ~oracle db (Dbre.Job_spec.Equijoins q))
    with
    | Ok r -> r
    | Error p ->
        Format.eprintf "pipeline failed: %a@." Relational.Error.pp
          p.Dbre.Pipeline.p_error;
        exit 1
  in

  (* 5. Inspect every elicited artifact. *)
  Format.printf "%a@." Dbre.Report.pp_result result;

  (* 6. The restructured database actually contains the migrated data:
     every referential constraint can be re-checked against it. *)
  (match result.Dbre.Pipeline.restruct_result.Dbre.Restruct.database with
  | Some migrated ->
      let ok =
        List.for_all
          (Deps.Ind.satisfied migrated)
          result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric
      in
      Format.printf "@.All %d referential constraints hold on migrated data: %b@."
        (List.length result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric)
        ok
  | None -> ());

  (* 7. A re-engineering project wants the migration script: the SQL that
     turns the legacy database into the restructured one. *)
  Format.printf "@.=== Migration script ===@.%s@."
    (Dbre.Migration.script ~original:(Workload.Paper_example.schema ()) result);

  (* 8. Legacy queries that read moved attributes can be rewritten
     automatically against the new schema. *)
  let plan = Dbre.Rewrite.plan result in
  let legacy = "SELECT dep, skill FROM Department WHERE proj = 'pr001'" in
  Format.printf "@.legacy query:    %s@." legacy;
  (match Dbre.Rewrite.sql plan legacy with
  | Ok rewritten -> Format.printf "rewritten query: %s@." rewritten
  | Error msg -> Format.printf "legacy query does not parse: %s@." msg);

  (* 9. Export the conceptual schema for graphviz. *)
  let dot =
    Er.Dot_render.render result.Dbre.Pipeline.translate_result.Dbre.Translate.eer
  in
  let path = Filename.concat (Filename.get_temp_dir_name ()) "paper_eer.dot" in
  let oc = open_out path in
  output_string oc dot;
  close_out oc;
  Format.printf "EER schema written to %s (render with: dot -Tpng)@." path;

  (* 10. The same analysis from the programs, as JSON. A Job_spec has a
     pinned JSON encoding, the scripted expert included; the one-shot
     CLI and the `dbre serve` daemon both run exactly such specs through
     Job.run, so what we get here from the decoded JSON is byte for byte
     what a daemon client would fetch. *)
  let spec =
    Dbre.Job_spec.of_database ~label:"quickstart" ~oracle
      (Workload.Paper_example.database ())
      (Dbre.Job_spec.Programs (Workload.Paper_example.programs ()))
  in
  Format.printf "@.Job spec: %s@." (Dbre.Job_spec.describe spec);
  Format.printf "serialized spec: %d bytes of JSON (submit with: dbre \
                 submit)@."
    (String.length (Dbre.Job_spec.to_string spec));
  let decoded =
    match Dbre.Job_spec.of_string (Dbre.Job_spec.to_string spec) with
    | Ok decoded -> decoded
    | Error msg -> failwith msg
  in
  match Dbre.Job.run decoded with
  | Error p ->
      Format.eprintf "job failed: %a@." Relational.Error.pp p.Dbre.Pipeline.p_error;
      exit 1
  | Ok job_result ->
      let same =
        List.equal
          (fun (n1, a1) (n2, a2) -> String.equal n1 n2 && String.equal a1 a2)
          (Dbre.Report.artifacts result)
          (Dbre.Report.artifacts job_result)
      in
      Format.printf "job artifacts identical to the in-process run: %b@." same
