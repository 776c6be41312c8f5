open Relational
open Deps

type stage_event =
  | Stage_started of Error.stage
  | Stage_restored of Error.stage
  | Stage_finished of Error.stage
  | Stage_failed of Error.stage * Error.t

type config = {
  oracle : Oracle.t;
  engine : Engine.t;
  migrate_data : bool;
  progress : (stage_event -> unit) option;
  workload_flow : bool;
}

and result = {
  equijoins : Sqlx.Equijoin.t list;
  ind_result : Ind_discovery.result;
  lhs_result : Lhs_discovery.result;
  rhs_result : Rhs_discovery.result;
  restruct_result : Restruct.result;
  translate_result : Translate.result;
  events : Oracle.event list;
  quarantine : Quarantine.report list;
}

let default_config =
  {
    oracle = Oracle.automatic;
    engine = Engine.default;
    migrate_data = true;
    progress = None;
    workload_flow = false;
  }

type partial = {
  p_equijoins : Sqlx.Equijoin.t list option;
  p_ind_result : Ind_discovery.result option;
  p_lhs_result : Lhs_discovery.result option;
  p_rhs_result : Rhs_discovery.result option;
  p_restruct_result : Restruct.result option;
  p_events : Oracle.event list;
  p_quarantine : Quarantine.report list;
  p_error : Error.t;
}

let extract_equijoins ?(flow = false) db = function
  | Job_spec.Equijoins q -> q
  | Job_spec.Programs sources ->
      let extraction = Sqlx.Embedded.scan_files sources in
      let per_statement =
        List.concat_map
          (Sqlx.Equijoin.of_statement (Database.schema db))
          extraction.Sqlx.Embedded.statements
      in
      let flow_joins =
        if not flow then []
        else
          (* host variables are program-local: each program is analyzed
             on its own, never the concatenated statement stream *)
          List.concat_map
            (Sqlx.Dataflow.joins_of_program (Database.schema db))
            sources
      in
      (* per-statement evidence first, so a flow-off run is byte-for-byte
         the historical extraction *)
      Sqlx.Equijoin.dedupe (per_statement @ flow_joins)
  | Job_spec.Sql_scripts scripts ->
      let per_statement =
        List.concat_map (Sqlx.Equijoin.of_script (Database.schema db)) scripts
      in
      let flow_joins =
        if not flow then []
        else
          List.concat_map
            (fun script ->
              match Sqlx.Parser.parse_script script with
              | stmts ->
                  Sqlx.Dataflow.joins_of_statements (Database.schema db) stmts
              | exception Sqlx.Parser.Error _ -> [])
            scripts
      in
      Sqlx.Equijoin.dedupe (per_statement @ flow_joins)

(* Run one stage under the typed-error boundary: any escaping exception
   becomes a structured [Error.t] attributed to the stage. *)
let wrap stage f =
  match f () with
  | v -> Ok v
  | exception Sqlx.Parser.Error msg ->
      Stdlib.Error (Error.make ~stage Error.Sql_parse msg)
  | exception exn -> Stdlib.Error (Error.of_exn stage exn)

let run_checked ?(config = default_config) ?supervise ?(quarantine = [])
    ?checkpoint_dir ?resume_from db input =
  let supervise =
    match supervise with
    | Some s -> s
    | None -> Engine.supervisor config.engine
  in
  let oracle, events = Oracle.traced config.oracle in
  (* progress is observability, never control flow: a listener that
     raises must not change the run's outcome *)
  let notify ev =
    match config.progress with
    | None -> ()
    | Some f -> ( try f ev with _ -> ())
  in
  (* Staleness cascade: once a stage's restored artifact was partial
     (completed here from its boundary) or a fresh artifact came back
     partial, every downstream checkpoint was derived from a different
     prefix of the work and must not be restored — resume from a
     budget-tripped run recomputes exactly the stages the trip
     invalidated, and the finished artifacts are identical to an
     unbudgeted run's. *)
  let stale = ref false in
  (* the digest every checkpoint of the run is bound to, taken by
     Extract when the run checkpoints or resumes *)
  let inputs = ref "" in
  let save write =
    match checkpoint_dir with
    | None -> ()
    | Some dir -> ( try write ~dir ~inputs:!inputs with Sys_error _ -> ())
  in
  let restore load =
    match resume_from with
    | Some dir when not !stale -> load ~dir ~inputs:!inputs
    | _ -> None
  in
  (* Run one stage: restore its artifact when a valid checkpoint exists,
     otherwise compute it under the error boundary and checkpoint it
     best-effort. Ind and Rhs artifacts may be partial (a budget tripped
     mid-stage): a restored partial one seeds the stage's [?prior] so
     only the unverified tail is processed, and a partial anywhere
     marks downstream checkpoints stale. [into] keeps the completed
     prefix a later failure reports. *)
  let stage ?(into = ref None) ?(is_partial = fun _ -> false) name load write
      compute =
    notify (Stage_started name);
    let settled =
      match restore load with
      | Some v when not (is_partial v) ->
          notify (Stage_restored name);
          Ok v
      | prior -> (
          if Option.is_some prior then stale := true;
          match wrap name (fun () -> compute prior) with
          | Ok v ->
              if is_partial v then stale := true;
              save (fun ~dir ~inputs -> write ~dir ~inputs v);
              notify (Stage_finished name);
              Ok v
          | Stdlib.Error e ->
              notify (Stage_failed (name, e));
              Stdlib.Error e)
    in
    Result.iter (fun v -> into := Some v) settled;
    settled
  in
  let no_load ~dir:_ ~inputs:_ = None in
  let no_write ~dir:_ ~inputs:_ _ = () in
  let p_equijoins = ref None and p_ind_result = ref None in
  let p_lhs_result = ref None and p_rhs_result = ref None in
  let p_restruct_result = ref None in
  let ( let* ) = Result.bind in
  let outcome =
    let* equijoins =
      stage ~into:p_equijoins Error.Extract no_load no_write (fun _ ->
          let q = extract_equijoins ~flow:config.workload_flow db input in
          if checkpoint_dir <> None || resume_from <> None then
            inputs :=
              Checkpoint.inputs db q ~migrate_data:config.migrate_data
                ~oracle:config.oracle.Oracle.mode;
          q)
    in
    let* ind_result =
      stage ~into:p_ind_result
        ~is_partial:(fun r -> r.Ind_discovery.unverified <> [])
        Error.Ind_discovery
        (fun ~dir ~inputs -> Checkpoint.load_ind ~dir ~inputs db)
        (fun ~dir ~inputs r -> Checkpoint.write_ind ~dir ~inputs db r)
        (fun prior ->
          Ind_discovery.run ~engine:config.engine ~supervise ?prior oracle db
            equijoins)
    in
    let* lhs_result =
      stage ~into:p_lhs_result Error.Lhs_discovery Checkpoint.load_lhs
        Checkpoint.write_lhs (fun _ ->
          Lhs_discovery.run ~schema:(Database.schema db)
            ~s_names:
              (List.map
                 (fun r -> r.Relation.name)
                 ind_result.Ind_discovery.new_relations)
            ind_result.Ind_discovery.inds)
    in
    let* rhs_result =
      stage ~into:p_rhs_result
        ~is_partial:(fun r -> r.Rhs_discovery.unverified <> [])
        Error.Rhs_discovery Checkpoint.load_rhs Checkpoint.write_rhs
        (fun prior ->
          Rhs_discovery.run ~engine:config.engine ~supervise ?prior oracle db
            ~lhs:lhs_result.Lhs_discovery.lhs
            ~hidden:lhs_result.Lhs_discovery.hidden)
    in
    let* restruct_result =
      stage ~into:p_restruct_result Error.Restruct Checkpoint.load_restruct
        Checkpoint.write_restruct (fun _ ->
          Restruct.run oracle
            ?db:(if config.migrate_data then Some db else None)
            ~schema:(Database.schema db) ~fds:rhs_result.Rhs_discovery.fds
            ~hidden:rhs_result.Rhs_discovery.hidden
            ~inds:ind_result.Ind_discovery.inds ())
    in
    (* Translate is deterministic and cheap: always recomputed, even on
       resume (its checkpoint is a completion marker, not a loadable
       artifact) *)
    let* translate_result =
      stage Error.Translate no_load Checkpoint.write_translate (fun _ ->
          Translate.run ?db:restruct_result.Restruct.database
            ~schema:restruct_result.Restruct.schema
            restruct_result.Restruct.ric)
    in
    Ok
      {
        equijoins;
        ind_result;
        lhs_result;
        rhs_result;
        restruct_result;
        translate_result;
        events = events ();
        quarantine;
      }
  in
  Result.map_error
    (fun e ->
      {
        p_equijoins = !p_equijoins;
        p_ind_result = !p_ind_result;
        p_lhs_result = !p_lhs_result;
        p_rhs_result = !p_rhs_result;
        p_restruct_result = !p_restruct_result;
        p_events = events ();
        p_quarantine = quarantine;
        p_error = e;
      })
    outcome

let refresh_checked ?(config = default_config) ?supervise ?quarantine
    ?checkpoint_dir db input =
  let report = Refresh.database db in
  (* every checkpointed stage embeds verdicts over the pre-mutation
     extension; none may be resumed from *)
  (match checkpoint_dir with
  | None -> ()
  | Some dir -> Checkpoint.invalidate ~dir);
  let result =
    run_checked ~config ?supervise ?quarantine ?checkpoint_dir db input
  in
  (report, result)

type degradation = {
  deg_relation : string;
  deg_quarantined : int;
  deg_inds : Ind.t list;
  deg_fds : Fd.t list;
}

let degradations result =
  List.filter_map
    (fun (q : Quarantine.report) ->
      if Quarantine.is_empty q then None
      else
        let name = q.Quarantine.relation in
        let deg_inds =
          List.filter
            (fun (i : Ind.t) ->
              String.equal i.Ind.lhs_rel name || String.equal i.Ind.rhs_rel name)
            result.ind_result.Ind_discovery.inds
        in
        let deg_fds =
          List.filter
            (fun (f : Fd.t) -> String.equal f.Fd.rel name)
            result.rhs_result.Rhs_discovery.fds
        in
        Some
          {
            deg_relation = name;
            deg_quarantined = Quarantine.count q;
            deg_inds;
            deg_fds;
          })
    result.quarantine

let nf_report result =
  let schema = result.restruct_result.Restruct.schema in
  let fds = result.rhs_result.Rhs_discovery.fds in
  List.map
    (fun rel ->
      let name = rel.Relation.name in
      (* the FDs bearing on this relation: elicited ones that survived
         (their RHS may have moved out), plus key FDs *)
      let all = rel.Relation.attrs in
      let key_fds =
        List.filter_map
          (fun k ->
            let rhs = Relational.Attribute.Names.diff
                (Relational.Attribute.Names.normalize all) k
            in
            if rhs = [] then None else Some (Fd.make name k rhs))
          rel.Relation.uniques
      in
      let local_fds =
        List.filter_map
          (fun (fd : Fd.t) ->
            if
              String.equal fd.Fd.rel name
              && List.for_all (fun a -> Relation.has_attr rel a) fd.Fd.lhs
            then
              let rhs = List.filter (Relation.has_attr rel) fd.Fd.rhs in
              if rhs = [] then None else Some (Fd.make name fd.Fd.lhs rhs)
            else None)
          fds
      in
      (name, Normal_forms.normal_form (key_fds @ local_fds) ~all))
    (Schema.relations schema)
