(* Reverse-engineering against a corrupted extension.

   The paper's expert exists because legacy extensions are dirty: foreign
   keys reference archived rows, payload copies have drifted. This
   example corrupts a clean synthetic workload and shows how the §6.1
   choice points play out:

   - case (vii): an automatic (trusting) expert loses the corrupted IND;
   - case (v)/(vi): a threshold expert forces the dominant direction and
     recovers it;
   - case (iv): a scripted expert conceptualizes the intersection as a
     new relation;
   - §6.2.2 (ii): an enforcing expert re-asserts an FD that corruption
     broke.

   Run with:  dune exec examples/dirty_extension.exe *)

open Relational
open Deps

let spec =
  {
    Workload.Gen_schema.default_spec with
    Workload.Gen_schema.n_entities = 2;
    n_denorm = 1;
    refs_per_denorm = 2;
    rows_per_entity = 500;
    rows_per_denorm = 1_000;
    null_ref_rate = 0.0;
    seed = 7L;
  }

let fresh_corrupted () =
  let g = Workload.Gen_schema.generate spec in
  let db = g.Workload.Gen_schema.db in
  let rng = Workload.Rng.create 99L in
  let target_ind = List.hd g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds in
  let target_fd = List.hd g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds in
  let broken_cells =
    Support.Corrupt.break_ind rng db ~rel:target_ind.Ind.lhs_rel
      ~attr:(List.hd target_ind.Ind.lhs_attrs) ~rate:0.08
  in
  let scrambled =
    Support.Corrupt.break_fd rng db ~rel:target_fd.Fd.rel
      ~lhs:target_fd.Fd.lhs
      ~rhs:(List.hd target_fd.Fd.rhs)
      ~rate:0.05
  in
  (g, db, target_ind, target_fd, broken_cells, scrambled)

let run_with name oracle =
  let g, db, target_ind, target_fd, _, _ = fresh_corrupted () in
  let config = { Dbre.Pipeline.default_config with Dbre.Pipeline.oracle } in
  let result =
    match
      Dbre.Pipeline.run_checked ~config db
        (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
    with
    | Ok r -> r
    | Error p ->
        Format.eprintf "pipeline failed: %a@." Relational.Error.pp
          p.Dbre.Pipeline.p_error;
        exit 1
  in
  let inds = result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds in
  let fds = result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds in
  let got_ind = List.exists (Ind.equal target_ind) inds in
  let got_fd =
    List.exists
      (fun (f : Fd.t) ->
        String.equal f.Fd.rel target_fd.Fd.rel
        && Attribute.Names.equal f.Fd.lhs target_fd.Fd.lhs)
      fds
  in
  Format.printf "%-28s INDs elicited: %d  corrupted IND recovered: %b  \
                 corrupted FD recovered: %b@."
    name (List.length inds) got_ind got_fd;
  result

let () =
  let g, db, target_ind, target_fd, broken, scrambled = fresh_corrupted () in
  Format.printf "Synthetic workload: %d relations, %d tuples@."
    (Schema.size (Database.schema db))
    (Database.total_tuples db);
  Format.printf "Corrupted: %d foreign-key cells of %s, %d payload rows of %s@."
    broken (Ind.to_string target_ind) scrambled (Fd.to_string target_fd);
  let c = Ind.counts db target_ind in
  Format.printf "Counts now: N_left=%d N_right=%d N_join=%d (a non-empty \
                 intersection)@.@."
    c.Ind.n_left c.Ind.n_right c.Ind.n_join;
  ignore g;

  (* (vii): trusting the dirty extension loses the dependency *)
  ignore (run_with "automatic (trusts data)" Dbre.Oracle.automatic);

  (* (v)/(vi): a threshold policy treats >=80% overlap as corruption *)
  ignore (run_with "threshold 0.8" (Dbre.Oracle.of_mode (Threshold 0.8)));

  (* (iv): conceptualize the intersection as its own relation *)
  let conceptualizer =
    {
      Dbre.Oracle.automatic with
      Dbre.Oracle.on_nei = (fun _ -> Dbre.Oracle.Conceptualize "Verified-Ref");
    }
  in
  let result = run_with "conceptualize NEI" conceptualizer in
  List.iter
    (fun r -> Format.printf "    new relation: %s@." (Relation.to_string r))
    result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.new_relations;

  (* §6.2.2 (ii): enforce the scrambled FD despite its violations *)
  let g2, db2, _, tfd, _, _ = fresh_corrupted () in
  let scrambled_attr = List.hd tfd.Fd.rhs in
  let enforcing =
    {
      (Dbre.Oracle.of_mode (Threshold 0.8)) with
      Dbre.Oracle.enforce_fd =
        (fun ~rel ~lhs ~attr ->
          String.equal rel tfd.Fd.rel
          && Attribute.Names.equal lhs tfd.Fd.lhs
          && String.equal attr scrambled_attr);
    }
  in
  let table = Database.table db2 tfd.Fd.rel in
  Format.printf "@.scrambled FD %s holds in the extension: %b@."
    (Fd.to_string tfd) (Fd_infer.holds table tfd);
  let config =
    { Dbre.Pipeline.default_config with Dbre.Pipeline.oracle = enforcing }
  in
  let result =
    match
      Dbre.Pipeline.run_checked ~config db2
        (Dbre.Job_spec.Equijoins g2.Workload.Gen_schema.equijoins)
    with
    | Ok r -> r
    | Error p ->
        Format.eprintf "pipeline failed: %a@." Relational.Error.pp
          p.Dbre.Pipeline.p_error;
        exit 1
  in
  Format.printf "With enforcement, F =@.%a@." Dbre.Report.pp_fds
    result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds
