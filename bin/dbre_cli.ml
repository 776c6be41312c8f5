(* dbre — reverse-engineer a denormalized relational database.

   Subcommands:
     example   run a built-in scenario end to end
     analyze   run the pipeline on a DDL script + CSV extension + programs
     inds      stop after IND-Discovery
     discover  exhaustive FD/IND discovery baselines
     migrate   write the SQL migration script to the 3NF schema
     lint      span-carrying diagnostics over schemas/workloads/artifacts
     generate  emit a synthetic workload to a directory
     serve     persistent analysis daemon on a Unix-domain socket
     submit    send a job to a running daemon
     job       query/cancel jobs on a running daemon *)

open Cmdliner
open Relational

let write_file path contents =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out_noerr oc)
    (fun () -> output_string oc contents)

let print_quarantine reports =
  List.iter (fun q -> Format.printf "%a@." Quarantine.pp q) reports

let report_error ?(hint = false) e =
  Format.eprintf "dbre: %a@." Relational.Error.pp e;
  if hint then
    Format.eprintf "hint: --lenient quarantines unparseable tuples@.";
  1

(* a stage that raises [Error.Error] is reported as a clean CLI failure
   instead of cmdliner's "internal error" *)
let handle_errors ?hint f =
  try f () with Relational.Error.Error e -> report_error ?hint e

(* ------------------------------------------------------------------ *)
(* Common args                                                          *)
(* ------------------------------------------------------------------ *)

let oracle_arg =
  let doc =
    "Expert-user mode: 'auto' (accept data verdicts), 'skeptical' (refuse \
     hidden objects), 'interactive' (prompt on stdin; the daemon refuses \
     it), or 'threshold:<ratio>' (force NEIs whose overlap exceeds the \
     ratio)."
  in
  Arg.(value & opt string "auto" & info [ "oracle" ] ~docv:"MODE" ~doc)

let deadline_arg =
  let doc =
    "Wall-clock budget for the run, in seconds. When it trips, discovery \
     stages stop at their current group boundary and the result carries \
     the unverified remainder (see --on-budget-exhausted)."
  in
  Arg.(value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)

let max_heap_arg =
  let doc =
    "Major-heap budget, in MiB. Checked at the same group boundaries as \
     --deadline."
  in
  Arg.(value & opt (some int) None & info [ "max-heap" ] ~docv:"MIB" ~doc)

let on_exhausted_arg =
  let doc =
    "What a tripped budget does: 'partial' (default) degrades gracefully \
     to a typed partial result whose report lists the unverified groups; \
     'fail' aborts the stage with a resource-exhausted error."
  in
  Arg.(
    value
    & opt string "partial"
    & info [ "on-budget-exhausted" ] ~docv:"POLICY" ~doc)

let lenient_arg =
  let doc =
    "Quarantine unparseable or ill-typed tuples instead of aborting; \
     dependency discovery runs on the surviving extension and the report \
     lists the affected INDs/FDs."
  in
  Arg.(value & flag & info [ "lenient" ] ~doc)

let spill_dir_arg =
  let doc =
    "Directory for column-segment spill files (out-of-core mode): sealed \
     segments evicted under --resident-budget write their packed image \
     here and are mapped back on demand. Without it segments are pinned \
     in RAM."
  in
  Arg.(value & opt (some string) None & info [ "spill-dir" ] ~docv:"DIR" ~doc)

let resident_budget_arg =
  let doc =
    "Resident column-segment budget, in MiB: once sealed segments exceed \
     it, the coldest spill to --spill-dir. Lets analysis run on \
     extensions much larger than RAM."
  in
  Arg.(
    value & opt (some int) None & info [ "resident-budget" ] ~docv:"MIB" ~doc)

let segment_rows_arg =
  let doc = "Rows per sealed column segment (default 65536)." in
  Arg.(
    value & opt (some int) None & info [ "segment-rows" ] ~docv:"ROWS" ~doc)

(* the out-of-core policy is process-wide (Ooc), not part of the job
   spec: set it up front from the flags *)
let configure_ooc spill_dir resident_budget_mb segment_rows =
  if spill_dir = None && resident_budget_mb = None && segment_rows = None then
    Ok ()
  else if match resident_budget_mb with Some m -> m < 1 | None -> false then
    Error "--resident-budget must be at least 1 (MiB)"
  else
    try
      Ok
        (Relational.Ooc.configure ?spill_dir
           ?resident_budget_words:
             (Option.map
                (fun mib -> mib * 1024 * 1024 / (Sys.word_size / 8))
                resident_budget_mb)
           ?segment_rows ())
    with Invalid_argument msg | Sys_error msg -> Error msg

let checkpoint_arg =
  let doc = "Serialize each completed stage's artifact into $(docv)." in
  Arg.(
    value
    & opt (some string) None
    & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let resume_arg =
  let doc =
    "Resume from the checkpoints in --checkpoint-dir, skipping \
     already-completed stages."
  in
  Arg.(value & flag & info [ "resume" ] ~doc)

let dot_arg =
  let doc = "Write the final EER schema as Graphviz DOT to $(docv)." in
  Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc)

let markdown_arg =
  let doc = "Write the full report as Markdown to $(docv)." in
  Arg.(value & opt (some string) None & info [ "markdown" ] ~docv:"FILE" ~doc)

let report_result ?dot ?markdown result =
  Format.printf "%a@." Dbre.Report.pp_result result;
  Format.printf "@.=== Normal forms after Restruct ===@.";
  List.iter
    (fun (name, nf) ->
      Format.printf "%-24s %s@." name (Deps.Normal_forms.nf_to_string nf))
    (Dbre.Pipeline.nf_report result);
  (match markdown with
  | Some path ->
      write_file path (Dbre.Report.markdown result);
      Format.printf "@.Markdown report written to %s@." path
  | None -> ());
  match dot with
  | Some path ->
      write_file path
        (Er.Dot_render.render
           result.Dbre.Pipeline.translate_result.Dbre.Translate.eer);
      Format.printf "@.EER schema written to %s@." path
  | None -> ()

(* a stage failed: print the structured error, the completed-stage
   prefix, and how to resume when checkpoints were written *)
let report_partial ?checkpoint_dir (p : Dbre.Pipeline.partial) =
  Format.eprintf "pipeline failed: %a@." Relational.Error.pp p.Dbre.Pipeline.p_error;
  let completed =
    List.filter_map
      (fun (name, done_) -> if done_ then Some name else None)
      [
        ("extract", p.Dbre.Pipeline.p_equijoins <> None);
        ("ind-discovery", p.Dbre.Pipeline.p_ind_result <> None);
        ("lhs-discovery", p.Dbre.Pipeline.p_lhs_result <> None);
        ("rhs-discovery", p.Dbre.Pipeline.p_rhs_result <> None);
        ("restruct", p.Dbre.Pipeline.p_restruct_result <> None);
      ]
  in
  Format.eprintf "completed stages: %s@."
    (if completed = [] then "(none)" else String.concat ", " completed);
  (match checkpoint_dir with
  | Some dir ->
      Format.eprintf
        "checkpoints for completed stages are in %s; rerun with --resume to \
         continue@."
        dir
  | None -> ());
  1

(* a failed run: quarantine reports, the load hint for strict runs,
   then the partial result *)
let report_failure ~lenient ?checkpoint_dir (p : Dbre.Pipeline.partial) =
  print_quarantine p.Dbre.Pipeline.p_quarantine;
  if
    (not lenient)
    && p.Dbre.Pipeline.p_error.Relational.Error.stage = Some Relational.Error.Load
  then Format.eprintf "hint: --lenient quarantines unparseable tuples@.";
  report_partial ?checkpoint_dir p

(* ------------------------------------------------------------------ *)
(* example                                                              *)
(* ------------------------------------------------------------------ *)

let example_cmd =
  let scenario_arg =
    let doc = "Scenario name: 'paper', 'payroll' or 'hospital'." in
    Arg.(value & pos 0 string "paper" & info [] ~docv:"SCENARIO" ~doc)
  in
  let run scenario dot markdown =
    match Workload.Scenarios.find scenario with
    | None ->
        Printf.eprintf "unknown scenario %S (try: %s)\n" scenario
          (String.concat ", "
             (List.map (fun s -> s.Workload.Scenarios.name) Workload.Scenarios.all));
        1
    | Some s -> (
        match Dbre.Job.run (Workload.Scenarios.spec s) with
        | Ok result ->
            report_result ?dot ?markdown result;
            0
        | Error p -> report_partial p)
  in
  let doc = "Run a built-in reverse-engineering scenario end to end." in
  Cmd.v
    (Cmd.info "example" ~doc)
    Term.(const run $ scenario_arg $ dot_arg $ markdown_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let ddl_arg =
  let doc = "SQL DDL script declaring the legacy schema." in
  Arg.(required & opt (some file) None & info [ "ddl" ] ~docv:"FILE" ~doc)

let data_arg =
  let doc = "Directory holding one <relation>.csv per relation." in
  Arg.(required & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)

let programs_arg =
  let doc = "Directory of application-program sources to scan." in
  Arg.(required & opt (some dir) None & info [ "programs" ] ~docv:"DIR" ~doc)

let flow_arg =
  let doc =
    "Run the static dataflow analysis over each application program: \
     SELECT INTO / FETCH targets define host variables, later statements \
     using them become inter-statement equi-join evidence (and L109-L112 \
     diagnostics under --lint)."
  in
  Arg.(value & flag & info [ "flow" ] ~doc)

let lint_arg =
  let doc =
    "Lint the run: workload diagnostics (L1xx) are printed once the \
     extension is loaded, artifact verification diagnostics (L2xx) after \
     Translate."
  in
  Arg.(value & flag & info [ "lint" ] ~doc)

(* what --lint prints around the verification: diagnostics go to
   stderr and never abort the run *)
let print_workload_lint db workload =
  let schema = Database.schema db in
  let sources =
    match (workload : Dbre.Job_spec.workload) with
    | Dbre.Job_spec.Equijoins _ -> []
    | Dbre.Job_spec.Programs progs ->
        List.mapi
          (fun i p ->
            Dbre_lint.Lint.source
              ~name:(Printf.sprintf "prog%02d" i)
              Dbre_lint.Lint.Program p)
          progs
    | Dbre.Job_spec.Sql_scripts scripts ->
        List.mapi
          (fun i p ->
            Dbre_lint.Lint.source
              ~name:(Printf.sprintf "script%02d" i)
              Dbre_lint.Lint.Sql_script p)
          scripts
  in
  let report = Dbre_lint.Lint.run ~schema sources in
  if report.Dbre_lint.Lint.diags <> [] then
    Format.eprintf "--- lint (workload) ---@.%s"
      (Dbre_lint.Lint.render_text report)

let print_verification_lint result =
  let report = Dbre_lint.Lint.verify result in
  if report.Dbre_lint.Lint.diags <> [] then
    Format.eprintf "--- lint (verification) ---@.%s"
      (Dbre_lint.Lint.render_text report)

let analyze_cmd =
  let run ddl data programs oracle deadline max_heap_mb on_exhausted
      lenient spill_dir resident_budget segment_rows lint flow checkpoint_dir
      resume dot markdown =
    match
      Result.bind (configure_ooc spill_dir resident_budget segment_rows)
        (fun () ->
          Dbre.Job_spec.of_args ~ddl ~data_dir:data ~programs_dir:programs
            ~flow ~oracle ?deadline ?max_heap_mb ~on_exhausted ?checkpoint_dir
            ~resume ~lenient ())
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        handle_errors ~hint:(not lenient) @@ fun () ->
        (* Job.run, with the lint printed between load and verification:
           one token bounds both, as Job.run's does *)
        let supervise = Dbre.Job_spec.supervisor spec in
        let outcome =
          match Dbre.Job.database ~supervise spec with
          | Error e -> Error (Dbre.Job.load_failure e)
          | Ok (db, quarantine) ->
              if lint then print_workload_lint db spec.Dbre.Job_spec.workload;
              let outcome =
                Dbre.Job.verify ~supervise ~db ~quarantine spec
              in
              if lint then Result.iter print_verification_lint outcome;
              outcome
        in
        match outcome with
        | Ok result ->
            print_quarantine result.Dbre.Pipeline.quarantine;
            report_result ?dot ?markdown result;
            0
        | Error p -> report_failure ~lenient ?checkpoint_dir p)
  in
  let doc =
    "Reverse-engineer a database given its DDL, extension and programs."
  in
  Cmd.v
    (Cmd.info "analyze" ~doc)
    Term.(
      const run $ ddl_arg $ data_arg $ programs_arg $ oracle_arg
      $ deadline_arg $ max_heap_arg $ on_exhausted_arg $ lenient_arg
      $ spill_dir_arg $ resident_budget_arg $ segment_rows_arg
      $ lint_arg $ flow_arg $ checkpoint_arg $ resume_arg $ dot_arg
      $ markdown_arg)

(* ------------------------------------------------------------------ *)
(* inds                                                                 *)
(* ------------------------------------------------------------------ *)

let inds_cmd =
  let run ddl data programs oracle lenient =
    match
      Dbre.Job_spec.of_args ~ddl ~data_dir:data ~programs_dir:programs ~oracle
        ~lenient ()
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        handle_errors ~hint:(not lenient) @@ fun () ->
        match Dbre.Job.database spec with
        | Error e -> report_error ~hint:(not lenient) e
        | Ok (db, quarantine) ->
            print_quarantine quarantine;
            let joins =
              Dbre.Pipeline.extract_equijoins db spec.Dbre.Job_spec.workload
            in
            Format.printf "Equi-joins:@.%a@.@." Dbre.Report.pp_equijoins joins;
            let r =
              Dbre.Ind_discovery.run ~engine:spec.Dbre.Job_spec.engine
                (Dbre.Oracle.of_mode spec.Dbre.Job_spec.oracle)
                db joins
            in
            Format.printf "Trace:@.%a@.@." Dbre.Report.pp_ind_steps
              r.Dbre.Ind_discovery.steps;
            Format.printf "IND:@.%a@." Dbre.Report.pp_inds
              r.Dbre.Ind_discovery.inds;
            0)
  in
  let doc = "Elicit inclusion dependencies only (stop after §6.1)." in
  Cmd.v
    (Cmd.info "inds" ~doc)
    Term.(
      const run $ ddl_arg $ data_arg $ programs_arg $ oracle_arg
      $ lenient_arg)

(* ------------------------------------------------------------------ *)
(* discover (exhaustive baselines)                                      *)
(* ------------------------------------------------------------------ *)

let discover_cmd =
  let what_arg =
    let doc = "'fds', 'inds' or 'keys'." in
    Arg.(value & pos 0 string "fds" & info [] ~docv:"WHAT" ~doc)
  in
  let max_lhs_arg =
    let doc = "Maximum FD left-hand-side size." in
    Arg.(value & opt int 2 & info [ "max-lhs" ] ~doc)
  in
  let run what ddl data max_lhs =
    match Dbre.Job_spec.of_args ~ddl ~data_dir:data () with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        match Dbre.Job.database spec with
        | Error e -> report_error e
        | Ok (db, _) ->
            (match what with
            | "fds" ->
                List.iter
                  (fun rel ->
                    let name = rel.Relation.name in
                    let fds, stats =
                      Deps.Fd_infer.discover ~max_lhs ~rel:name
                        (Database.table db name)
                    in
                    Format.printf "-- %s (%d candidates tested):@." name
                      stats.Deps.Fd_infer.candidates_tested;
                    List.iter
                      (fun fd -> Format.printf "  %a@." Deps.Fd.pp fd)
                      fds)
                  (Schema.relations (Database.schema db))
            | "inds" ->
                let inds, stats = Deps.Ind_infer.discover_unary db in
                Format.printf
                  "-- unary INDs (%d pairs considered, %d tested):@."
                  stats.Deps.Ind_infer.pairs_considered
                  stats.Deps.Ind_infer.pairs_tested;
                List.iter
                  (fun ind -> Format.printf "  %a@." Deps.Ind.pp ind)
                  inds
            | "keys" ->
                List.iter
                  (fun (rel, keys) ->
                    Format.printf "-- %s:@." rel;
                    List.iter
                      (fun k ->
                        Format.printf "  unique (%s)@." (String.concat ", " k))
                      keys)
                  (Deps.Key_infer.suggest ~max_size:max_lhs db)
            | other ->
                Printf.eprintf "unknown target %S (use fds|inds|keys)\n" other);
            0)
  in
  let doc =
    "Exhaustive dependency discovery (the baseline the paper's \
     query-guided method avoids)."
  in
  Cmd.v
    (Cmd.info "discover" ~doc)
    Term.(const run $ what_arg $ ddl_arg $ data_arg $ max_lhs_arg)

(* ------------------------------------------------------------------ *)
(* migrate                                                              *)
(* ------------------------------------------------------------------ *)

let migrate_cmd =
  let out_arg =
    let doc = "Write the migration SQL script to $(docv) (default stdout)." in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let run ddl data programs oracle lenient out =
    match
      Dbre.Job_spec.of_args ~ddl ~data_dir:data ~programs_dir:programs ~oracle
        ~lenient ()
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        match Dbre.Job.run spec with
        | Error p -> report_failure ~lenient p
        | Ok result -> (
            print_quarantine result.Dbre.Pipeline.quarantine;
            (* the run parsed this DDL already *)
            let original, _ =
              Sqlx.Ddl.schema_of_script spec.Dbre.Job_spec.ddl
            in
            let sql = Dbre.Migration.script ~original result in
            (match out with
            | Some path ->
                write_file path sql;
                Printf.printf "migration written to %s\n" path
            | None -> print_string sql);
            0))
  in
  let doc =
    "Generate the SQL migration script that restructures the legacy \
     database to 3NF."
  in
  Cmd.v
    (Cmd.info "migrate" ~doc)
    Term.(
      const run $ ddl_arg $ data_arg $ programs_arg $ oracle_arg
      $ lenient_arg $ out_arg)

(* ------------------------------------------------------------------ *)
(* lint                                                                 *)
(* ------------------------------------------------------------------ *)

let scenario_lint_sources (s : Workload.Scenarios.t) =
  let schema = Database.schema (s.Workload.Scenarios.database ()) in
  let sources =
    List.mapi
      (fun i p ->
        Dbre_lint.Lint.source
          ~name:(Printf.sprintf "%s/prog%02d" s.Workload.Scenarios.name i)
          Dbre_lint.Lint.Program p)
      s.Workload.Scenarios.programs
  in
  (schema, sources)

let lint_scenario s =
  let schema, sources = scenario_lint_sources s in
  let workload = Dbre_lint.Lint.run ~schema sources in
  Dbre_lint.Lint.merge workload
    {
      Dbre_lint.Lint.empty with
      Dbre_lint.Lint.diags = Dbre_lint.Rules_schema.check_schema schema;
    }

let lint_cmd =
  let scenario_arg =
    let doc =
      "Lint a built-in scenario ('paper', 'payroll', 'hospital') instead of \
       --ddl/--programs; 'all' lints the whole examples corpus."
    in
    Arg.(value & opt (some string) None & info [ "scenario" ] ~docv:"NAME" ~doc)
  in
  let ddl_arg =
    let doc = "SQL DDL script to check with the schema rules (L0xx)." in
    Arg.(value & opt (some file) None & info [ "ddl" ] ~docv:"FILE" ~doc)
  in
  let programs_arg =
    let doc =
      "Directory of application programs to check with the workload rules \
       (L1xx)."
    in
    Arg.(value & opt (some dir) None & info [ "programs" ] ~docv:"DIR" ~doc)
  in
  let data_arg =
    let doc =
      "Directory of <relation>.csv extensions — required by --verify when \
       not linting a scenario."
    in
    Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)
  in
  let json_arg =
    let doc = "Emit machine-readable JSON instead of human text." in
    Arg.(value & flag & info [ "json" ] ~doc)
  in
  let verify_arg =
    let doc =
      "Also run the pipeline and check its artifacts with the verification \
       rules (L2xx): 3NF after Restruct, key-based RICs, no dangling INDs, \
       well-formed EER."
    in
    Arg.(value & flag & info [ "verify" ] ~doc)
  in
  let fail_on_arg =
    let doc =
      "Exit non-zero when a diagnostic of this severity (or worse) is \
       reported: 'info', 'warning' or 'error'."
    in
    Arg.(value & opt string "error" & info [ "fail-on" ] ~docv:"SEVERITY" ~doc)
  in
  let run scenario ddl programs data json verify fail_on =
    match Dbre_lint.Diagnostic.severity_of_string fail_on with
    | None ->
        Printf.eprintf "unknown severity %S (use info|warning|error)\n" fail_on;
        1
    | Some fail_on -> (
        handle_errors @@ fun () ->
        let finish report =
          if json then print_string (Dbre_lint.Lint.render_json report)
          else print_string (Dbre_lint.Lint.render_text report);
          if json then print_newline ();
          if Dbre_lint.Lint.should_fail ~fail_on report then 1 else 0
        in
        match (scenario, ddl) with
        | Some name, _ -> (
            let scenarios =
              if name = "all" then Some Workload.Scenarios.all
              else
                Option.map (fun s -> [ s ]) (Workload.Scenarios.find name)
            in
            match scenarios with
            | None ->
                Printf.eprintf "unknown scenario %S (try: all, %s)\n" name
                  (String.concat ", "
                     (List.map
                        (fun s -> s.Workload.Scenarios.name)
                        Workload.Scenarios.all));
                1
            | Some scenarios ->
                let static =
                  List.fold_left
                    (fun acc s -> Dbre_lint.Lint.merge acc (lint_scenario s))
                    Dbre_lint.Lint.empty scenarios
                in
                if not verify then finish static
                else
                  let rec verify_all acc = function
                    | [] -> finish acc
                    | s :: rest -> (
                        match Dbre.Job.run (Workload.Scenarios.spec s) with
                        | Ok r ->
                            verify_all
                              (Dbre_lint.Lint.merge acc (Dbre_lint.Lint.verify r))
                              rest
                        | Stdlib.Error p -> report_partial p)
                  in
                  verify_all static scenarios)
        | None, Some ddl_path -> (
            let sources =
              Dbre_lint.Lint.source ~name:(Filename.basename ddl_path)
                Dbre_lint.Lint.Schema_script
                In_channel.(with_open_bin ddl_path input_all)
              ::
              (match programs with
              | None -> []
              | Some dir ->
                  Sys.readdir dir |> Array.to_list |> List.sort String.compare
                  |> List.map (fun f ->
                         Dbre_lint.Lint.source ~name:f Dbre_lint.Lint.Program
                           In_channel.(
                             with_open_bin (Filename.concat dir f) input_all)))
            in
            let static = Dbre_lint.Lint.run sources in
            match (verify, data) with
            | false, _ -> finish static
            | true, None ->
                prerr_endline "--verify without --scenario requires --data";
                1
            | true, Some data_dir -> (
                match
                  Dbre.Job_spec.of_args ~ddl:ddl_path ~data_dir
                    ?programs_dir:programs ()
                with
                | Stdlib.Error msg ->
                    prerr_endline msg;
                    1
                | Ok spec -> (
                    match Dbre.Job.run spec with
                    | Ok r ->
                        finish
                          (Dbre_lint.Lint.merge static (Dbre_lint.Lint.verify r))
                    | Stdlib.Error p -> report_partial p)))
        | None, None ->
            prerr_endline "lint: give --scenario NAME|all or --ddl FILE";
            1)
  in
  let doc =
    "Statically check schemas (L0xx), embedded-SQL workloads (L1xx) and — \
     with --verify — pipeline artifacts (L2xx), reporting span-carrying \
     diagnostics."
  in
  Cmd.v
    (Cmd.info "lint" ~doc)
    Term.(
      const run $ scenario_arg $ ddl_arg $ programs_arg $ data_arg $ json_arg
      $ verify_arg $ fail_on_arg)

(* ------------------------------------------------------------------ *)
(* generate                                                             *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let out_arg =
    let doc = "Output directory (created if missing)." in
    Arg.(required & opt (some string) None & info [ "out" ] ~docv:"DIR" ~doc)
  in
  let seed_arg =
    let doc = "Generator seed." in
    Arg.(value & opt int 42 & info [ "seed" ] ~doc)
  in
  let entities_arg =
    Arg.(value & opt int 4 & info [ "entities" ] ~doc:"Base entity count.")
  in
  let rows_arg =
    Arg.(value & opt int 1000 & info [ "rows" ] ~doc:"Rows per entity.")
  in
  let scale_arg =
    let doc =
      "Multiply every extension size (entity and denormalized rows) by \
       $(docv); e.g. --scale 500 turns the default workload into \
       million-tuple denormalized extensions."
    in
    Arg.(value & opt float 1.0 & info [ "scale" ] ~docv:"FACTOR" ~doc)
  in
  let run out seed entities rows scale =
    if not (scale > 0.) then begin
      Printf.eprintf "dbre generate: --scale must be positive (got %g)\n" scale;
      exit 2
    end;
    let spec =
      Workload.Gen_schema.scale scale
        {
          Workload.Gen_schema.default_spec with
          Workload.Gen_schema.seed = Int64.of_int seed;
          n_entities = entities;
          rows_per_entity = rows;
        }
    in
    let g = Workload.Gen_schema.generate spec in
    if not (Sys.file_exists out) then Sys.mkdir out 0o755;
    let data_dir = Filename.concat out "data" in
    let prog_dir = Filename.concat out "programs" in
    List.iter
      (fun d -> if not (Sys.file_exists d) then Sys.mkdir d 0o755)
      [ data_dir; prog_dir ];
    List.iter
      (fun rel ->
        let name = rel.Relation.name in
        write_file
          (Filename.concat data_dir (name ^ ".csv"))
          (Csv.dump_table (Database.table g.Workload.Gen_schema.db name)))
      (Schema.relations (Database.schema g.Workload.Gen_schema.db));
    List.iteri
      (fun i src ->
        write_file
          (Filename.concat prog_dir (Printf.sprintf "prog%02d.cob" i))
          src)
      g.Workload.Gen_schema.programs;
    (* a DDL script for the generated schema *)
    let buf = Buffer.create 1024 in
    List.iter
      (fun rel ->
        Buffer.add_string buf (Sqlx.Ddl.create_table_sql rel ^ ";\n"))
      (Schema.relations (Database.schema g.Workload.Gen_schema.db));
    write_file (Filename.concat out "schema.sql") (Buffer.contents buf);
    Printf.printf "wrote %s (schema.sql, data/, programs/)\n" out;
    0
  in
  let doc = "Generate a synthetic denormalized workload to a directory." in
  Cmd.v
    (Cmd.info "generate" ~doc)
    Term.(const run $ out_arg $ seed_arg $ entities_arg $ rows_arg $ scale_arg)

(* ------------------------------------------------------------------ *)
(* serve / submit / job                                                 *)
(* ------------------------------------------------------------------ *)

let socket_arg =
  let doc = "Unix-domain socket path of the analysis daemon." in
  Arg.(
    required & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let serve_cmd =
  let state_dir_arg =
    let doc =
      "Persist job specs, per-stage checkpoints and artifacts under \
       $(docv), so a restarted daemon re-adopts settled jobs and resumes \
       interrupted ones from their last completed stage."
    in
    Arg.(
      value & opt (some string) None & info [ "state-dir" ] ~docv:"DIR" ~doc)
  in
  let max_jobs_arg =
    let cap = Dbre_serve.Server.max_jobs_cap in
    let doc =
      Printf.sprintf
        "Number of jobs run at once, each on its own worker domain and \
         under its own supervision budget (0 to %d; 0 accepts and persists \
         jobs without running them)."
        cap
    in
    (* bounded at parse time, so an out-of-range count is a usage error
       rather than a daemon that spawns a domain per job *)
    let jobs =
      Arg.conv
        ( (fun s ->
            match int_of_string_opt s with
            | Some n when n >= 0 && n <= cap -> Ok n
            | _ ->
                Error
                  (`Msg
                    (Printf.sprintf "must be an integer between 0 and %d, got %S"
                       cap s))),
          Format.pp_print_int )
    in
    Arg.(value & opt jobs 2 & info [ "max-jobs" ] ~docv:"N" ~doc)
  in
  let run socket state_dir max_jobs =
    let server = Dbre_serve.Server.create ~max_jobs ?state_dir ~socket () in
    Printf.printf "dbre: serving on %s%s (max %d concurrent jobs)\n%!" socket
      (match state_dir with
      | Some d -> Printf.sprintf ", state in %s" d
      | None -> "")
      max_jobs;
    Dbre_serve.Server.run server;
    0
  in
  let doc =
    "Run the persistent analysis daemon: accepts jobs over a length-prefixed \
     JSON protocol, streams per-stage progress, survives restarts via its \
     state directory."
  in
  Cmd.v
    (Cmd.info "serve" ~doc)
    Term.(const run $ socket_arg $ state_dir_arg $ max_jobs_arg)

let print_event ev =
  let s k = Option.value ~default:"" (Json.mem_string k ev) in
  match s "kind" with
  | "loading" -> Printf.printf "loading %s\n%!" (s "relation")
  | "loaded" ->
      Printf.printf "loaded %s (%d rows)\n%!" (s "relation")
        (Option.value ~default:0 (Json.mem_int "rows" ev))
  | "stage" -> Printf.printf "[%s] %s\n%!" (s "stage") (s "phase")
  | "diagnostic" ->
      Printf.printf "%s[%s]: %s\n%!" (s "severity") (s "code") (s "message")
  | "settled" -> Printf.printf "settled: %s\n%!" (s "state")
  | _ -> print_endline (Json.to_string ev)

let print_artifacts artifacts =
  List.iter
    (fun (name, text) ->
      Printf.printf "=== %s ===\n%s%s" name text
        (if String.length text > 0 && text.[String.length text - 1] = '\n'
         then ""
         else "\n"))
    artifacts

let with_client socket f =
  match Dbre_serve.Client.connect socket with
  | exception Unix.Unix_error (err, _, _) ->
      Printf.eprintf "dbre: cannot connect to %s: %s\n" socket
        (Unix.error_message err);
      1
  | client ->
      Fun.protect ~finally:(fun () -> Dbre_serve.Client.close client)
        (fun () -> f client)

let protocol_error (code, msg) =
  Printf.eprintf "dbre: %s: %s\n" code msg;
  1

let submit_cmd =
  let data_arg =
    let doc = "Directory holding one <relation>.csv per relation." in
    Arg.(value & opt (some dir) None & info [ "data" ] ~docv:"DIR" ~doc)
  in
  let programs_arg =
    let doc = "Directory of application-program sources to scan." in
    Arg.(value & opt (some dir) None & info [ "programs" ] ~docv:"DIR" ~doc)
  in
  let label_arg =
    let doc = "Display label for the job." in
    Arg.(value & opt (some string) None & info [ "label" ] ~docv:"NAME" ~doc)
  in
  let wait_arg =
    let doc =
      "Stream progress events until the job settles, then print its \
       artifacts."
    in
    Arg.(value & flag & info [ "wait" ] ~doc)
  in
  let run socket ddl data programs label flow oracle deadline
      max_heap_mb on_exhausted lenient wait =
    match
      Dbre.Job_spec.of_args ?label ~ddl ?data_dir:data ?programs_dir:programs
        ~flow ~oracle ?deadline ?max_heap_mb ~on_exhausted ~lenient ()
    with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok spec -> (
        with_client socket @@ fun client ->
        match Dbre_serve.Client.submit client spec with
        | Error e -> protocol_error e
        | Ok (id, diagnostics) -> (
            List.iter print_event diagnostics;
            Printf.printf "submitted %s\n%!" id;
            if not wait then 0
            else
              let rec stream since =
                match Dbre_serve.Client.watch client ~since id with
                | Error e -> Error e
                | Ok (events, next, settled) ->
                    List.iter print_event events;
                    if settled then Ok () else stream next
              in
              match
                Result.bind (stream 0) (fun () ->
                    Dbre_serve.Client.artifacts client id)
              with
              | Error e -> protocol_error e
              | Ok (artifacts, state) ->
                  print_artifacts artifacts;
                  if state = "done" then 0 else 1))
  in
  let doc =
    "Submit an analysis job to a running daemon (same flags as analyze; the \
     job spec travels as JSON over the socket)."
  in
  Cmd.v
    (Cmd.info "submit" ~doc)
    Term.(
      const run $ socket_arg $ ddl_arg $ data_arg $ programs_arg $ label_arg
      $ flow_arg $ oracle_arg $ deadline_arg $ max_heap_arg
      $ on_exhausted_arg $ lenient_arg $ wait_arg)

let job_cmd =
  let action_arg =
    let doc =
      "'list', 'status', 'events', 'cancel', 'artifacts', 'mutate', \
       'refresh' or 'shutdown'."
    in
    Arg.(value & pos 0 string "list" & info [] ~docv:"ACTION" ~doc)
  in
  let id_arg =
    let doc = "Job id (returned by submit)." in
    Arg.(value & pos 1 (some string) None & info [] ~docv:"ID" ~doc)
  in
  let relation_arg =
    let doc = "Relation to mutate (with the 'mutate' action)." in
    Arg.(value & opt (some string) None & info [ "relation" ] ~docv:"NAME" ~doc)
  in
  let insert_arg =
    let doc =
      "Row to append, as comma-separated values typed like CSV ingestion \
       (repeatable)."
    in
    Arg.(value & opt_all string [] & info [ "insert" ] ~docv:"ROW" ~doc)
  in
  let delete_arg =
    let doc =
      "Comma-separated row indices to delete (current numbering; applied \
       before the inserts)."
    in
    Arg.(value & opt string "" & info [ "delete" ] ~docv:"IDXS" ~doc)
  in
  let run socket action id relation insert_rows delete_idxs =
    with_client socket @@ fun client ->
    let with_id f =
      match id with
      | None ->
          Printf.eprintf "dbre: job %s needs a job id\n" action;
          1
      | Some id -> f id
    in
    match action with
    | "list" -> (
        match Dbre_serve.Client.jobs client with
        | Error e -> protocol_error e
        | Ok jobs ->
            List.iter
              (fun j ->
                let s k = Option.value ~default:"" (Json.mem_string k j) in
                Printf.printf "%-12s %-10s %s\n" (s "id") (s "state")
                  (s "label"))
              jobs;
            0)
    | "status" ->
        with_id (fun id ->
            match Dbre_serve.Client.status client id with
            | Error e -> protocol_error e
            | Ok status ->
                print_endline (Json.to_string status);
                0)
    | "events" ->
        with_id (fun id ->
            match Dbre_serve.Client.events client id with
            | Error e -> protocol_error e
            | Ok (events, _, _) ->
                List.iter print_event events;
                0)
    | "cancel" ->
        with_id (fun id ->
            match Dbre_serve.Client.cancel client id with
            | Error e -> protocol_error e
            | Ok state ->
                Printf.printf "%s: %s\n" id state;
                0)
    | "artifacts" ->
        with_id (fun id ->
            match Dbre_serve.Client.artifacts client id with
            | Error e -> protocol_error e
            | Ok (artifacts, _) ->
                print_artifacts artifacts;
                0)
    | "mutate" ->
        with_id (fun id ->
            match relation with
            | None ->
                Printf.eprintf "dbre: job mutate needs --relation\n";
                1
            | Some rel -> (
                let insert =
                  List.map
                    (fun row ->
                      List.map
                        (fun cell -> Value.parse (String.trim cell))
                        (String.split_on_char ',' row))
                    insert_rows
                in
                match
                  if delete_idxs = "" then Ok []
                  else
                    try
                      Ok
                        (List.map
                           (fun s -> int_of_string (String.trim s))
                           (String.split_on_char ',' delete_idxs))
                    with Failure _ ->
                      Error
                        (Printf.sprintf "dbre: bad --delete %S" delete_idxs)
                with
                | Error msg ->
                    prerr_endline msg;
                    1
                | Ok delete -> (
                    match
                      Dbre_serve.Client.mutate client ~insert ~delete id rel
                    with
                    | Error e -> protocol_error e
                    | Ok (cardinality, version) ->
                        Printf.printf "%s: %s now %d rows (version %d)\n" id
                          rel cardinality version;
                        0)))
    | "refresh" ->
        with_id (fun id ->
            match Dbre_serve.Client.refresh client id with
            | Error e -> protocol_error e
            | Ok (report, state) ->
                print_endline (Json.to_string report);
                Printf.printf "%s: %s\n" id state;
                if state = "done" then 0 else 1)
    | "shutdown" ->
        Dbre_serve.Client.shutdown client;
        0
    | other ->
        Printf.eprintf
          "dbre: unknown job action %S (use \
           list|status|events|cancel|artifacts|mutate|refresh|shutdown)\n"
          other;
        1
  in
  let doc =
    "Inspect, cancel, mutate or delta-refresh jobs on a running analysis \
     daemon."
  in
  Cmd.v (Cmd.info "job" ~doc)
    Term.(
      const run $ socket_arg $ action_arg $ id_arg $ relation_arg $ insert_arg
      $ delete_arg)

(* ------------------------------------------------------------------ *)

let () =
  let doc = "reverse engineering of denormalized relational databases" in
  let info = Cmd.info "dbre" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval'
       (Cmd.group info
          [
            example_cmd; analyze_cmd; inds_cmd; discover_cmd; migrate_cmd;
            lint_cmd; generate_cmd; serve_cmd; submit_cmd; job_cmd;
          ]))
