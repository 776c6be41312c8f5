open Relational
open Helpers
open Deps
open Workload

(* ---------- Rng ---------- *)

let test_rng_deterministic () =
  let draw seed = List.init 20 (fun _ -> Rng.int (Rng.create seed) 1000) in
  Alcotest.(check (list int)) "same seed same stream" (draw 7L) (draw 7L);
  Alcotest.(check bool) "different seeds differ" true (draw 7L <> draw 8L)

let test_rng_bounds () =
  let rng = Rng.create 1L in
  for _ = 1 to 1000 do
    let v = Rng.int rng 10 in
    Alcotest.(check bool) "in range" true (v >= 0 && v < 10)
  done;
  for _ = 1 to 100 do
    let v = Rng.int_in rng 5 7 in
    Alcotest.(check bool) "inclusive range" true (v >= 5 && v <= 7)
  done;
  Alcotest.check_raises "bad bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int rng 0))

let test_rng_split () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int a 1000) in
  let ys = List.init 10 (fun _ -> Rng.int b 1000) in
  Alcotest.(check bool) "independent streams" true (xs <> ys)

let test_rng_sample_shuffle () =
  let rng = Rng.create 3L in
  let l = [ 1; 2; 3; 4; 5 ] in
  let s = Rng.shuffle rng l in
  Alcotest.(check (list int)) "permutation" l (List.sort compare s);
  let smp = Rng.sample rng 3 l in
  Alcotest.(check int) "sample size" 3 (List.length smp);
  Alcotest.(check int) "distinct" 3
    (List.length (List.sort_uniq compare smp));
  Alcotest.(check (list int)) "oversample returns all" l
    (List.sort compare (Rng.sample rng 99 l))

let test_rng_chance () =
  let rng = Rng.create 5L in
  let hits = ref 0 in
  for _ = 1 to 1000 do
    if Rng.chance rng 0.3 then incr hits
  done;
  Alcotest.(check bool) "roughly 30%" true (!hits > 200 && !hits < 400)

(* ---------- Gen_schema ---------- *)

let test_generate_deterministic () =
  let spec = Gen_schema.default_spec in
  let g1 = Gen_schema.generate spec and g2 = Gen_schema.generate spec in
  Alcotest.(check int) "same tuple count"
    (Database.total_tuples g1.Gen_schema.db)
    (Database.total_tuples g2.Gen_schema.db);
  check_sorted_inds "same truth"
    g1.Gen_schema.truth.Gen_schema.planted_inds
    g2.Gen_schema.truth.Gen_schema.planted_inds

let test_planted_deps_hold () =
  let g = Gen_schema.generate { Gen_schema.default_spec with Gen_schema.rows_per_entity = 200; rows_per_denorm = 400 } in
  List.iter
    (fun i ->
      Alcotest.(check bool) (Ind.to_string i ^ " holds") true
        (Ind.satisfied g.Gen_schema.db i))
    g.Gen_schema.truth.Gen_schema.planted_inds;
  List.iter
    (fun (f : Fd.t) ->
      Alcotest.(check bool) (Fd.to_string f ^ " holds") true
        (Reference.Fd_infer.satisfied_by (Database.table g.Gen_schema.db f.Fd.rel) f))
    g.Gen_schema.truth.Gen_schema.planted_fds

let test_generated_constraints_hold () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  Alcotest.(check bool) "dictionary constraints" true
    (Result.is_ok (Reference.Counts.database_constraints g.Gen_schema.db))

let test_programs_parse () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  let es = List.map Sqlx.Embedded.scan g.Gen_schema.programs in
  Alcotest.(check int) "every program parses"
    (List.length g.Gen_schema.programs)
    (List.length (List.concat_map (fun e -> e.Sqlx.Embedded.statements) es));
  Alcotest.(check int) "nothing skipped" 0
    (List.length (List.concat_map (fun e -> e.Sqlx.Embedded.failures) es))

(* ---------- Corrupt ---------- *)

let test_break_ind () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  let db = g.Gen_schema.db in
  let target = List.hd g.Gen_schema.truth.Gen_schema.planted_inds in
  let rng = Rng.create 9L in
  let n =
    Support.Corrupt.break_ind rng db ~rel:target.Ind.lhs_rel
      ~attr:(List.hd target.Ind.lhs_attrs) ~rate:0.2
  in
  Alcotest.(check bool) "some cells corrupted" true (n > 0);
  Alcotest.(check bool) "ind now broken" false (Ind.satisfied db target);
  (* but it is an NEI, not empty: most values still overlap *)
  let c = Ind.counts db target in
  Alcotest.(check bool) "still overlapping" true (c.Ind.n_join > 0)

let test_break_fd () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  let db = g.Gen_schema.db in
  let target = List.hd g.Gen_schema.truth.Gen_schema.planted_fds in
  let rhs_attr = List.hd target.Fd.rhs in
  let rng = Rng.create 9L in
  let n =
    Support.Corrupt.break_fd rng db ~rel:target.Fd.rel ~lhs:target.Fd.lhs
      ~rhs:rhs_attr ~rate:0.3
  in
  Alcotest.(check bool) "rows touched" true (n > 0);
  Alcotest.(check bool) "fd broken" false
    (Reference.Fd_infer.satisfied_by (Database.table db target.Fd.rel)
       (Deps.Fd.make target.Fd.rel target.Fd.lhs [ rhs_attr ]))

let test_delete_rows () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  let db = g.Gen_schema.db in
  let before = Database.cardinality db "E0" in
  let n = Support.Corrupt.delete_rows (Rng.create 1L) db ~rel:"E0" ~rate:0.5 in
  Alcotest.(check int) "accounting" before (n + Database.cardinality db "E0");
  Alcotest.(check bool) "some dropped" true (n > 0)

let test_corruption_to_nei_pipeline () =
  (* corrupting an IND turns the §6.1 case into an NEI the threshold
     expert can still force *)
  let g = Gen_schema.generate Gen_schema.default_spec in
  let db = g.Gen_schema.db in
  let target = List.hd g.Gen_schema.truth.Gen_schema.planted_inds in
  ignore
    (Support.Corrupt.break_ind (Rng.create 11L) db ~rel:target.Ind.lhs_rel
       ~attr:(List.hd target.Ind.lhs_attrs) ~rate:0.05);
  let config =
    {
      Dbre.Pipeline.default_config with
      Dbre.Pipeline.oracle = Dbre.Oracle.of_mode (Threshold 0.5);
    }
  in
  let r =
    Helpers.run_ok ~config db (Dbre.Job_spec.Equijoins g.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "forced IND recovered despite corruption" true
    (List.exists (Ind.equal target) r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds)

let test_payloadless_refs_become_hidden_objects () =
  (* refs with no embedded payload have no FD to elicit: with the
     automatic expert they become hidden objects and Restruct
     materializes them *)
  let spec =
    {
      Gen_schema.default_spec with
      Gen_schema.payload_per_ref = 0;
      n_entities = 2;
      n_denorm = 1;
      refs_per_denorm = 2;
      rows_per_entity = 100;
      rows_per_denorm = 200;
      null_ref_rate = 0.0;
    }
  in
  let g = Gen_schema.generate spec in
  Alcotest.(check int) "no planted FDs" 0
    (List.length g.Gen_schema.truth.Gen_schema.planted_fds);
  let r =
    Helpers.run_ok g.Gen_schema.db
      (Dbre.Job_spec.Equijoins g.Gen_schema.equijoins)
  in
  Alcotest.(check int) "two hidden objects" 2
    (List.length r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.hidden);
  Alcotest.(check int) "schema grew by two relations"
    (Schema.size (Database.schema g.Gen_schema.db) + 2)
    (Schema.size r.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema)

(* ---------- Scenarios ---------- *)

let test_scenarios_registry () =
  Alcotest.(check int) "three built-ins" 3 (List.length Scenarios.all);
  Alcotest.(check bool) "find paper" true (Scenarios.find "paper" <> None);
  Alcotest.(check bool) "find payroll" true (Scenarios.find "payroll" <> None);
  Alcotest.(check bool) "unknown" true (Scenarios.find "ghost" = None)

let test_paper_database_valid () =
  let db = Workload.Paper_example.database () in
  Alcotest.(check bool) "constraints hold" true
    (Result.is_ok (Reference.Counts.database_constraints db));
  Alcotest.(check int) "2200 persons" 2200 (Database.cardinality db "Person");
  Alcotest.(check int) "1550 distinct employees" 1550
    (Database.count_distinct db "HEmployee" [ "no" ])

let test_payroll_database_valid () =
  let db = (Scenarios.payroll).Scenarios.database () in
  Alcotest.(check bool) "constraints hold" true
    (Result.is_ok (Reference.Counts.database_constraints db))

let suite =
  [
    Alcotest.test_case "rng deterministic" `Quick test_rng_deterministic;
    Alcotest.test_case "rng bounds" `Quick test_rng_bounds;
    Alcotest.test_case "rng split" `Quick test_rng_split;
    Alcotest.test_case "rng sample/shuffle" `Quick test_rng_sample_shuffle;
    Alcotest.test_case "rng chance" `Quick test_rng_chance;
    Alcotest.test_case "generation deterministic" `Quick test_generate_deterministic;
    Alcotest.test_case "planted deps hold" `Quick test_planted_deps_hold;
    Alcotest.test_case "generated constraints hold" `Quick test_generated_constraints_hold;
    Alcotest.test_case "programs parse" `Quick test_programs_parse;
    Alcotest.test_case "break ind" `Quick test_break_ind;
    Alcotest.test_case "break fd" `Quick test_break_fd;
    Alcotest.test_case "delete rows" `Quick test_delete_rows;
    Alcotest.test_case "corruption to NEI pipeline" `Quick test_corruption_to_nei_pipeline;
    Alcotest.test_case "payloadless refs become hidden objects" `Quick test_payloadless_refs_become_hidden_objects;
    Alcotest.test_case "scenario registry" `Quick test_scenarios_registry;
    Alcotest.test_case "paper database valid" `Quick test_paper_database_valid;
    Alcotest.test_case "payroll database valid" `Quick test_payroll_database_valid;
  ]
