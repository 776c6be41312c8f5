(* Run a Job_spec: see job.mli. *)

open Relational

type event =
  | Loading of string
  | Loaded of string * int
  | Stage of Pipeline.stage_event

let notify progress ev =
  match progress with
  | None -> ()
  | Some f -> ( try f ev with _ -> ())

let database ?supervise ?progress (spec : Job_spec.t) =
  match Sqlx.Ddl.schema_of_script spec.Job_spec.ddl with
  | exception Sqlx.Parser.Error msg ->
      Error (Error.make ~stage:Error.Load Error.Sql_parse msg)
  | schema, _fks -> (
      let db = Database.create schema in
      let mode = if spec.Job_spec.lenient then `Quarantine else `Strict in
      let rec load reports = function
        | [] -> Ok (db, List.rev reports)
        | (name, source) :: rest -> (
            match Schema.find schema name with
            | None ->
                Error
                  (Error.make ~stage:Error.Load ~relation:name
                     Error.Unknown_relation
                     (Printf.sprintf
                        "source %s is for relation %s, which the DDL does not \
                         declare"
                        (Source.describe source) name))
            | Some rel -> (
                notify progress (Loading name);
                match Source.load ~mode ?supervise rel source with
                | Error e -> Error e
                | Ok (table, report) ->
                    Database.replace_table db table;
                    notify progress (Loaded (name, Table.cardinality table));
                    load
                      (match report with
                      | Some r -> r :: reports
                      | None -> reports)
                      rest))
      in
      load [] spec.Job_spec.sources)

let config ?progress (spec : Job_spec.t) =
  {
    Pipeline.oracle = Oracle.of_mode spec.Job_spec.oracle;
    engine = spec.Job_spec.engine;
    migrate_data = spec.Job_spec.migrate_data;
    workload_flow = spec.Job_spec.flow;
    progress = Option.map (fun f ev -> f (Stage ev)) progress;
  }

(* a load failure wears the same shape as a first-stage failure: an
   [Error partial] with the empty completed prefix *)
let load_failure e =
  {
    Pipeline.p_equijoins = None;
    p_ind_result = None;
    p_lhs_result = None;
    p_rhs_result = None;
    p_restruct_result = None;
    p_events = [];
    p_quarantine = [];
    p_error = e;
  }

let verify ?progress ?supervise ~db ~quarantine (spec : Job_spec.t) =
  let supervise =
    match supervise with Some s -> s | None -> Job_spec.supervisor spec
  in
  let config = config ?progress spec in
  let resume_from =
    if spec.Job_spec.resume then spec.Job_spec.checkpoint_dir else None
  in
  Pipeline.run_checked ~config ~supervise ~quarantine
    ?checkpoint_dir:spec.Job_spec.checkpoint_dir ?resume_from db
    spec.Job_spec.workload

let run ?progress ?supervise (spec : Job_spec.t) =
  let supervise =
    match supervise with Some s -> s | None -> Job_spec.supervisor spec
  in
  match database ~supervise ?progress spec with
  | Error e -> Error (load_failure e)
  | Ok (db, quarantine) -> verify ?progress ~supervise ~db ~quarantine spec

let refresh ?progress ?supervise ~db ~quarantine (spec : Job_spec.t) =
  let supervise =
    match supervise with Some s -> s | None -> Job_spec.supervisor spec
  in
  let config = config ?progress spec in
  (* never resume: refresh_checked invalidates the checkpoint directory
     (mutation staled every stage artifact at once) *)
  Pipeline.refresh_checked ~config ~supervise ~quarantine
    ?checkpoint_dir:spec.Job_spec.checkpoint_dir db spec.Job_spec.workload
