(* Sqlx.Dataflow: goldens on paper-style COBOL programs, the L109-L112
   lint rules, fuzzed recovery against the generator's ground truth,
   span well-formedness of the recovered facts, and totality of every
   extraction entry point over damaged programs. *)

open Relational
open Sqlx

let schema () = Workload.Paper_example.schema ()

let join_t =
  Alcotest.testable
    (fun ppf j -> Fmt.string ppf (Equijoin.to_string j))
    Equijoin.equal

(* ------------------------------------------------------------------ *)
(* Goldens: the three navigation shapes the analysis must recover        *)
(* ------------------------------------------------------------------ *)

let select_into_program =
  String.concat "\n"
    [
      "       PROCEDURE DIVISION.";
      "           EXEC SQL";
      "             SELECT id INTO :w-emp FROM Person WHERE name = :w-name";
      "           END-EXEC.";
      "           EXEC SQL";
      "             SELECT dep FROM Department WHERE emp = :w-emp";
      "           END-EXEC.";
    ]

let test_select_into_chain () =
  let joins = Dataflow.joins_of_program (schema ()) select_into_program in
  Alcotest.check (Alcotest.list join_t) "Person-Department recovered"
    [ Equijoin.make ("Person", [ "id" ]) ("Department", [ "emp" ]) ]
    joins;
  let df =
    Dataflow.analyze (schema ())
      (Embedded.scan select_into_program).Embedded.statements
  in
  Alcotest.(check int) "one def" 1 (List.length df.Dataflow.defs);
  Alcotest.(check int) "one chain" 1 (List.length df.Dataflow.chains);
  match df.Dataflow.chains with
  | [ ch ] ->
      Alcotest.(check bool) "flow-sensitive" true
        (ch.Dataflow.c_flow = Dataflow.Sensitive);
      Alcotest.(check int) "def in statement 0" 0 ch.Dataflow.c_def.d_stmt;
      Alcotest.(check int) "use in statement 1" 1 ch.Dataflow.c_use.u_stmt
  | _ -> Alcotest.fail "expected exactly one chain"

let cursor_program =
  String.concat "\n"
    [
      "       PROCEDURE DIVISION.";
      "           EXEC SQL DECLARE DEPCUR CURSOR FOR";
      "             SELECT dep FROM Department WHERE location = :w-loc";
      "           END-EXEC.";
      "           EXEC SQL OPEN DEPCUR END-EXEC.";
      "           EXEC SQL FETCH DEPCUR INTO :w-dep END-EXEC.";
      "           EXEC SQL";
      "             SELECT proj FROM Assignment WHERE dep = :w-dep";
      "           END-EXEC.";
      "           EXEC SQL CLOSE DEPCUR END-EXEC.";
    ]

let test_cursor_chain () =
  let joins = Dataflow.joins_of_program (schema ()) cursor_program in
  Alcotest.check (Alcotest.list join_t) "cursor FETCH chains to the use"
    [ Equijoin.make ("Department", [ "dep" ]) ("Assignment", [ "dep" ]) ]
    joins;
  let df =
    Dataflow.analyze (schema ())
      (Embedded.scan cursor_program).Embedded.statements
  in
  match df.Dataflow.cursors with
  | [ c ] ->
      Alcotest.(check string) "name" "DEPCUR" c.Dataflow.cur_name;
      Alcotest.(check int) "opened once" 1 (List.length c.Dataflow.cur_opened);
      Alcotest.(check int) "fetched once" 1 c.Dataflow.cur_fetches;
      Alcotest.(check int) "closed once" 1 c.Dataflow.cur_closes
  | _ -> Alcotest.fail "expected one cursor"

let test_view_expansion () =
  let stmts =
    Parser.parse_script
      "CREATE VIEW Staffing AS SELECT emp, dep FROM Assignment;\n\
       SELECT name FROM Person, Staffing WHERE Person.id = Staffing.emp"
  in
  let joins = Dataflow.joins_of_statements (schema ()) stmts in
  Alcotest.check (Alcotest.list join_t)
    "equality through the view lands on the base relation"
    [ Equijoin.make ("Person", [ "id" ]) ("Assignment", [ "emp" ]) ]
    joins;
  (* the per-statement elicitation cannot resolve the view reference *)
  Alcotest.check (Alcotest.list join_t) "invisible to per-statement Q" []
    (Equijoin.dedupe
       (List.concat_map (Equijoin.of_statement (schema ())) stmts))

let test_kill_rule () =
  let stmts =
    Parser.parse_script
      "SELECT id INTO :w FROM Person WHERE name = :a;\n\
       SELECT dep FROM Department WHERE emp = :w;\n\
       SELECT no INTO :w FROM HEmployee WHERE salary = :b;\n\
       SELECT proj FROM Assignment WHERE emp = :w"
  in
  let joins = Dataflow.joins_of_statements (schema ()) stmts in
  Alcotest.check (Alcotest.list join_t)
    "each use pairs with its latest def only"
    [
      Equijoin.make ("Person", [ "id" ]) ("Department", [ "emp" ]);
      Equijoin.make ("HEmployee", [ "no" ]) ("Assignment", [ "emp" ]);
    ]
    joins

(* statements elicit nothing on their own: the whole program's evidence
   is inter-statement *)
let test_zero_single_statement_witnesses () =
  List.iter
    (fun program ->
      let stmts = (Embedded.scan program).Embedded.statements in
      Alcotest.check (Alcotest.list join_t) "no per-statement evidence" []
        (Equijoin.dedupe
           (List.concat_map (Equijoin.of_statement (schema ())) stmts)))
    [ select_into_program; cursor_program ]

(* ------------------------------------------------------------------ *)
(* Lint rules L109 - L112                                               *)
(* ------------------------------------------------------------------ *)

let codes diags =
  List.map (fun (d : Dbre_lint.Diagnostic.t) -> d.Dbre_lint.Diagnostic.code) diags

let check_program text =
  Dbre_lint.Rules_workload.check_program (schema ()) text

let test_l109_use_before_def () =
  let program =
    "EXEC SQL SELECT dep FROM Department WHERE emp = :w END-EXEC.\n\
     EXEC SQL SELECT id INTO :w FROM Person WHERE name = :a END-EXEC."
  in
  Alcotest.(check (list string)) "use-before-def flagged"
    [ "L109" ] (codes (check_program program))

let test_l110_dead_write () =
  let program =
    "EXEC SQL SELECT id INTO :w FROM Person WHERE name = :a END-EXEC.\n\
     EXEC SQL SELECT dep FROM Department WHERE emp = :x END-EXEC.\n\
     EXEC SQL SELECT salary INTO :x FROM HEmployee WHERE no = :n END-EXEC.\n\
     EXEC SQL SELECT proj FROM Assignment WHERE emp = :x END-EXEC."
  in
  (* :w is written and never read -> L110; :x is read before its write
     -> L109, and that same write feeds the later use, so it is live *)
  Alcotest.(check (list string)) "dead write and use-before-def"
    [ "L109"; "L110" ]
    (List.sort compare (codes (check_program program)))

let test_l111_incompatible_domains () =
  let program =
    "EXEC SQL SELECT date INTO :w FROM HEmployee WHERE no = :n END-EXEC.\n\
     EXEC SQL SELECT name FROM Person WHERE id = :w END-EXEC."
  in
  Alcotest.(check (list string)) "Date flowing into Int flagged"
    [ "L111" ] (codes (check_program program))

let test_l112_open_never_fetched () =
  let program =
    "EXEC SQL DECLARE C1 CURSOR FOR SELECT dep FROM Department END-EXEC.\n\
     EXEC SQL OPEN C1 END-EXEC.\n\
     EXEC SQL CLOSE C1 END-EXEC."
  in
  Alcotest.(check (list string)) "opened but never fetched"
    [ "L112" ] (codes (check_program program))

let test_declare_only_is_silent () =
  (* the classic COBOL shape: every cursor declared up front, never
     opened in this compilation unit — not a defect *)
  let program =
    "EXEC SQL DECLARE C1 CURSOR FOR SELECT dep FROM Department END-EXEC."
  in
  Alcotest.(check (list string)) "no diagnostics" []
    (codes (check_program program))

let test_clean_goldens_stay_clean () =
  List.iter
    (fun program ->
      Alcotest.(check (list string)) "no diagnostics" []
        (codes (check_program program)))
    [ select_into_program; cursor_program ]

(* ------------------------------------------------------------------ *)
(* Fuzzed recovery vs the generator's ground truth                      *)
(* ------------------------------------------------------------------ *)

let gen_spec =
  QCheck.Gen.(
    let* n_entities = int_range 1 3 in
    let* n_denorm = int_range 1 2 in
    let* refs = int_range 2 4 in
    let* seed = int_range 0 10_000 in
    return
      {
        Workload.Gen_schema.n_entities;
        rows_per_entity = 30;
        n_denorm;
        refs_per_denorm = refs;
        payload_per_ref = 1;
        rows_per_denorm = 60;
        null_ref_rate = 0.05;
        flow_navigation = true;
        seed = Int64.of_int seed;
      })

let print_spec (s : Workload.Gen_schema.spec) =
  Printf.sprintf "entities=%d denorm=%d refs=%d seed=%Ld"
    s.Workload.Gen_schema.n_entities s.Workload.Gen_schema.n_denorm
    s.Workload.Gen_schema.refs_per_denorm s.Workload.Gen_schema.seed

let arb_spec = QCheck.make ~print:print_spec gen_spec

let prop name f =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:25 ~name arb_spec f)

let recovered_joins g =
  let schema = Database.schema g.Workload.Gen_schema.db in
  let per_stmt =
    let e = Embedded.scan_files g.Workload.Gen_schema.programs in
    Equijoin.dedupe
      (List.concat_map (Equijoin.of_statement schema) e.Embedded.statements)
  in
  let flow =
    Equijoin.dedupe
      (per_stmt
      @ List.concat_map (Dataflow.joins_of_program schema)
          g.Workload.Gen_schema.programs)
  in
  (per_stmt, flow)

let fuzz_recovers_planted spec =
  let g = Workload.Gen_schema.generate spec in
  let per_stmt, flow = recovered_joins g in
  List.for_all
    (fun j ->
      (not (List.exists (Equijoin.equal j) per_stmt))
      && List.exists (Equijoin.equal j) flow)
    g.Workload.Gen_schema.dataflow_only_joins
  && List.for_all
       (fun j -> List.exists (Equijoin.equal j) flow)
       g.Workload.Gen_schema.equijoins

let fuzz_flow_supersets spec =
  let g = Workload.Gen_schema.generate spec in
  let per_stmt, flow = recovered_joins g in
  List.for_all (fun j -> List.exists (Equijoin.equal j) flow) per_stmt

let fuzz_flow_corpus_lints_clean spec =
  let g = Workload.Gen_schema.generate spec in
  let schema = Database.schema g.Workload.Gen_schema.db in
  List.for_all
    (fun p -> Dbre_lint.Rules_workload.check_program schema p = [])
    g.Workload.Gen_schema.programs

(* ------------------------------------------------------------------ *)
(* Span well-formedness                                                 *)
(* ------------------------------------------------------------------ *)

let test_spans_inside_host_text () =
  List.iter
    (fun program ->
      let df =
        Dataflow.analyze (schema ())
          (Embedded.scan program).Embedded.statements
      in
      let check_span what name (sp : Span.t) =
        Alcotest.(check bool)
          (what ^ " span is inside the host program")
          true
          (sp.Span.s_off >= 0
          && sp.Span.s_off < sp.Span.e_off
          && sp.Span.e_off <= String.length program);
        Alcotest.(check string)
          (what ^ " span underlines the host variable")
          name
          (String.sub program sp.Span.s_off (sp.Span.e_off - sp.Span.s_off))
      in
      List.iter
        (fun (d : Dataflow.def) -> check_span "def" d.Dataflow.d_var d.Dataflow.d_span)
        df.Dataflow.defs;
      List.iter
        (fun (u : Dataflow.use) -> check_span "use" u.Dataflow.u_var u.Dataflow.u_span)
        df.Dataflow.uses)
    [ select_into_program; cursor_program ]

(* the paper corpus (all single-statement navigation) yields identical
   evidence with the analysis on or off *)
let test_flow_noop_on_paper_corpus () =
  let result_with flow =
    Helpers.ok
      (Dbre.Job.run
         { (Workload.Scenarios.spec Workload.Scenarios.paper) with flow })
  in
  let off = result_with false and on = result_with true in
  Alcotest.check (Alcotest.list join_t) "same Q"
    off.Dbre.Pipeline.equijoins on.Dbre.Pipeline.equijoins

(* ------------------------------------------------------------------ *)
(* Totality: damaged programs extract, or raise only the typed errors   *)
(* ------------------------------------------------------------------ *)

let program_tokens =
  [ "EXEC SQL"; "END-EXEC"; "SELECT"; "INTO"; "FROM"; "WHERE"; "AND"; "JOIN";
    "ON"; "DECLARE"; "CURSOR FOR"; "OPEN"; "FETCH"; "="; "."; ","; ";"; "(";
    ")"; ":w-x"; "'"; {|"|}; "*"; "--"; "/*"; " " ]

(* every scenario program, with the schema it runs against *)
let program_corpus =
  List.concat_map
    (fun (s : Workload.Scenarios.t) ->
      let schema = Database.schema (s.Workload.Scenarios.database ()) in
      List.map (fun p -> (schema, p)) s.Workload.Scenarios.programs)
    Workload.Scenarios.all

let prop_extraction_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:5000
       ~name:"mutated programs extract or raise Parser/Lexer errors"
       (QCheck.make
          ~print:(fun (_, text) -> Printf.sprintf "%S" text)
          QCheck.Gen.(
            oneofl program_corpus >>= fun (schema, program) ->
            map
              (fun text -> (schema, text))
              (Helpers.gen_mutated ~tokens:program_tokens program)))
       (fun (schema, text) ->
         let typed f =
           match f () with
           | () -> ()
           | exception (Parser.Error _ | Lexer.Error _) -> ()
         in
         let joins stmts =
           List.iter
             (fun stmt -> typed (fun () -> ignore (Equijoin.of_statement schema stmt)))
             stmts
         in
         typed (fun () -> joins (Embedded.scan_files [ text ]).Embedded.statements);
         typed (fun () -> joins (Parser.parse_script text));
         typed (fun () -> ignore (Dataflow.joins_of_program schema text));
         true))

let suite =
  [
    Alcotest.test_case "select-into chain" `Quick test_select_into_chain;
    Alcotest.test_case "cursor chain" `Quick test_cursor_chain;
    Alcotest.test_case "view expansion" `Quick test_view_expansion;
    Alcotest.test_case "kill rule" `Quick test_kill_rule;
    Alcotest.test_case "zero single-statement witnesses" `Quick
      test_zero_single_statement_witnesses;
    Alcotest.test_case "L109 use before def" `Quick test_l109_use_before_def;
    Alcotest.test_case "L110 dead write" `Quick test_l110_dead_write;
    Alcotest.test_case "L111 incompatible domains" `Quick
      test_l111_incompatible_domains;
    Alcotest.test_case "L112 open never fetched" `Quick
      test_l112_open_never_fetched;
    Alcotest.test_case "declare-only cursor is silent" `Quick
      test_declare_only_is_silent;
    Alcotest.test_case "clean goldens stay clean" `Quick
      test_clean_goldens_stay_clean;
    prop "fuzz: dataflow-only joins recovered, invisible per-statement"
      fuzz_recovers_planted;
    prop "fuzz: flow evidence supersets per-statement" fuzz_flow_supersets;
    prop "fuzz: generated flow corpus lints clean" fuzz_flow_corpus_lints_clean;
    Alcotest.test_case "spans inside host text" `Quick
      test_spans_inside_host_text;
    prop_extraction_total;
    Alcotest.test_case "flow is a no-op on the paper corpus" `Quick
      test_flow_noop_on_paper_corpus;
  ]
