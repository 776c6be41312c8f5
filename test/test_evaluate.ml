open Helpers
open Workload

let m = Alcotest.testable Evaluate.pp_metrics (fun a b -> a = b)

let test_perfect_recovery () =
  let truth = [ ind ("A", [ "x" ]) ("B", [ "y" ]) ] in
  let got = Evaluate.ind_metrics ~truth truth in
  Alcotest.(check m) "perfect"
    {
      Evaluate.true_positives = 1;
      false_positives = 0;
      false_negatives = 0;
      precision = 1.0;
      recall = 1.0;
      f1 = 1.0;
    }
    got

let test_partial_ind () =
  let truth =
    [ ind ("A", [ "x" ]) ("B", [ "y" ]); ind ("B", [ "y" ]) ("C", [ "z" ]) ]
  in
  let found =
    [ ind ("A", [ "x" ]) ("B", [ "y" ]); ind ("A", [ "x" ]) ("D", [ "w" ]) ]
  in
  let got = Evaluate.ind_metrics ~truth found in
  Alcotest.(check int) "tp" 1 got.Evaluate.true_positives;
  Alcotest.(check int) "fp" 1 got.Evaluate.false_positives;
  Alcotest.(check int) "fn" 1 got.Evaluate.false_negatives;
  Alcotest.(check (float 1e-9)) "precision" 0.5 got.Evaluate.precision;
  Alcotest.(check (float 1e-9)) "recall" 0.5 got.Evaluate.recall

let test_empty_cases () =
  let got = Evaluate.ind_metrics ~truth:[] [] in
  Alcotest.(check (float 1e-9)) "vacuous precision" 1.0 got.Evaluate.precision;
  Alcotest.(check (float 1e-9)) "vacuous recall" 1.0 got.Evaluate.recall;
  let missed = Evaluate.ind_metrics ~truth:[ ind ("A", [ "x" ]) ("B", [ "y" ]) ] [] in
  Alcotest.(check (float 1e-9)) "nothing found precision" 1.0
    missed.Evaluate.precision;
  Alcotest.(check (float 1e-9)) "nothing found recall" 0.0 missed.Evaluate.recall;
  Alcotest.(check (float 1e-9)) "f1 zero" 0.0 missed.Evaluate.f1

let test_modulo_implication () =
  (* truth A<<C recovered transitively via A<<B<<C *)
  let truth = [ ind ("A", [ "x" ]) ("C", [ "z" ]) ] in
  let found =
    [ ind ("A", [ "x" ]) ("B", [ "y" ]); ind ("B", [ "y" ]) ("C", [ "z" ]) ]
  in
  let strict = Evaluate.ind_metrics ~truth found in
  Alcotest.(check int) "strict misses it" 0 strict.Evaluate.true_positives;
  let relaxed = Evaluate.ind_metrics ~modulo_implication:true ~truth found in
  Alcotest.(check int) "implication credits it" 1 relaxed.Evaluate.true_positives;
  (* found INDs not implied by truth are false positives either way *)
  Alcotest.(check int) "found extras counted" 2 relaxed.Evaluate.false_positives

let test_fd_attr_level () =
  let truth = [ fd "R" [ "a" ] [ "b"; "c" ] ] in
  let found = [ fd "R" [ "a" ] [ "b" ]; fd "R" [ "a" ] [ "d" ] ] in
  let got = Evaluate.fd_metrics ~truth ~found in
  Alcotest.(check int) "tp: b" 1 got.Evaluate.true_positives;
  Alcotest.(check int) "fn: c" 1 got.Evaluate.false_negatives;
  Alcotest.(check int) "fp: d" 1 got.Evaluate.false_positives

let test_clean_pipeline_scores_perfectly () =
  let g = Gen_schema.generate Gen_schema.default_spec in
  let r =
    Helpers.run_ok g.Gen_schema.db
      (Dbre.Job_spec.Equijoins g.Gen_schema.equijoins)
  in
  let im =
    Evaluate.ind_metrics ~truth:g.Gen_schema.truth.Gen_schema.planted_inds
      r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds
  in
  let fm =
    Evaluate.fd_metrics ~truth:g.Gen_schema.truth.Gen_schema.planted_fds
      ~found:r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds
  in
  Alcotest.(check (float 1e-9)) "ind f1" 1.0 im.Evaluate.f1;
  Alcotest.(check (float 1e-9)) "fd recall" 1.0 fm.Evaluate.recall

let suite =
  [
    Alcotest.test_case "perfect recovery" `Quick test_perfect_recovery;
    Alcotest.test_case "partial recovery" `Quick test_partial_ind;
    Alcotest.test_case "empty cases" `Quick test_empty_cases;
    Alcotest.test_case "modulo implication" `Quick test_modulo_implication;
    Alcotest.test_case "fd attribute-level credit" `Quick test_fd_attr_level;
    Alcotest.test_case "clean pipeline scores 1.0" `Quick test_clean_pipeline_scores_perfectly;
  ]
