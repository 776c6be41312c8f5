(* Property-based pipeline invariants over random synthetic workloads:
   whatever the generated shape, the method's outputs must satisfy the
   §7 guarantees. *)

open Relational
open Deps

let gen_spec =
  QCheck.Gen.(
    let* n_entities = int_range 1 3 in
    let* n_denorm = int_range 1 2 in
    let* refs = int_range 1 3 in
    let* payload = int_range 1 2 in
    let* rows = int_range 30 150 in
    let* null_pct = int_range 0 2 in
    let* seed = int_range 0 10_000 in
    return
      {
        Workload.Gen_schema.n_entities;
        rows_per_entity = rows;
        n_denorm;
        refs_per_denorm = refs;
        payload_per_ref = payload;
        rows_per_denorm = rows * 2;
        null_ref_rate = float_of_int null_pct /. 10.0;
        flow_navigation = false;
        seed = Int64.of_int seed;
      })

let print_spec (s : Workload.Gen_schema.spec) =
  Printf.sprintf "entities=%d denorm=%d refs=%d payload=%d rows=%d null=%.1f seed=%Ld"
    s.Workload.Gen_schema.n_entities s.Workload.Gen_schema.n_denorm
    s.Workload.Gen_schema.refs_per_denorm s.Workload.Gen_schema.payload_per_ref
    s.Workload.Gen_schema.rows_per_entity s.Workload.Gen_schema.null_ref_rate
    s.Workload.Gen_schema.seed

let arb_spec = QCheck.make ~print:print_spec gen_spec

let run_pipeline spec =
  let g = Workload.Gen_schema.generate spec in
  let r =
    Dbre.Pipeline.run g.Workload.Gen_schema.db
      (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  (g, r)

let count = 25

let prop name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb_spec f)

let at_least_3nf nf =
  match nf with
  | Normal_forms.Nf3 | Normal_forms.Bcnf -> true
  | Normal_forms.Nf1 | Normal_forms.Nf2 -> false

let suite =
  [
    prop "restructured schema is 3NF" (fun spec ->
        let _, r = run_pipeline spec in
        List.for_all (fun (_, nf) -> at_least_3nf nf) (Dbre.Pipeline.nf_report r));
    prop "all RICs hold on the migrated data" (fun spec ->
        let _, r = run_pipeline spec in
        match r.Dbre.Pipeline.restruct_result.Dbre.Restruct.database with
        | Some db ->
            List.for_all (Ind.satisfied db)
              r.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric
        | None -> false);
    prop "attributes are preserved" (fun spec ->
        let g, r = run_pipeline spec in
        (* every attribute of the input schema appears somewhere in the
           restructured schema *)
        let final = r.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema in
        let covered a =
          List.exists
            (fun rel -> Relation.has_attr rel a)
            (Schema.relations final)
        in
        List.for_all
          (fun rel -> List.for_all covered rel.Relation.attrs)
          (Schema.relations (Database.schema g.Workload.Gen_schema.db)));
    prop "migrated dictionary constraints hold" (fun spec ->
        let _, r = run_pipeline spec in
        match r.Dbre.Pipeline.restruct_result.Dbre.Restruct.database with
        | Some db -> Result.is_ok (Reference.Counts.database_constraints db)
        | None -> false);
    prop "planted dependencies recovered on clean data" (fun spec ->
        let g, r = run_pipeline spec in
        let im =
          Workload.Evaluate.ind_metrics
            ~truth:g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds
            r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds
        in
        im.Workload.Evaluate.recall = 1.0);
    prop "EER validates" (fun spec ->
        let _, r = run_pipeline spec in
        Result.is_ok
          (Er.Validate.check
             r.Dbre.Pipeline.translate_result.Dbre.Translate.eer));
    prop "pipeline is deterministic" (fun spec ->
        let _, r1 = run_pipeline spec in
        let _, r2 = run_pipeline spec in
        List.equal Ind.equal r1.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds
          r2.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds
        && List.equal Fd.equal r1.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds
             r2.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds);
    prop "IND order does not change the elicited set" (fun spec ->
        let g = Workload.Gen_schema.generate spec in
        let run joins =
          (Dbre.Pipeline.run g.Workload.Gen_schema.db
             (Dbre.Job_spec.Equijoins joins))
            .Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds
          |> List.sort Ind.compare
        in
        (* note: NEI conceptualization could be order-sensitive, but the
           automatic oracle never conceptualizes *)
        run g.Workload.Gen_schema.equijoins
        = run (List.rev g.Workload.Gen_schema.equijoins));
    prop "migration script replays exactly" (fun spec ->
        let g = Workload.Gen_schema.generate spec in
        let db = g.Workload.Gen_schema.db in
        let original = Database.schema db in
        let r =
          Dbre.Pipeline.run db
            (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
        in
        let sql = Dbre.Migration.script ~original r in
        let fresh = (Workload.Gen_schema.generate spec).Workload.Gen_schema.db in
        Sqlx.Exec.exec_script fresh sql;
        let expected =
          Option.get r.Dbre.Pipeline.restruct_result.Dbre.Restruct.database
        in
        List.for_all
          (fun rel ->
            let name = rel.Relation.name in
            let sort t =
              List.sort compare (Table.to_lists (Database.table t name))
            in
            sort fresh = sort expected)
          (Schema.relations (Database.schema expected)));
  ]
