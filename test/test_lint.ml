(* Dbre_lint: golden diagnostics over a corrupted hospital fixture, and
   span well-formedness properties over corrupted corpus sources. *)

open Relational
open Sqlx
open Dbre_lint

(* ------------------------------------------------------------------ *)
(* The corrupted hospital fixture                                       *)
(* ------------------------------------------------------------------ *)

(* One list element per source line, so the expected line numbers below
   are the positions in these lists. Seeded defects are marked. *)

let ddl_fixture =
  String.concat "\n"
    [
      "CREATE TABLE Patient (";
      "  hosp_code VARCHAR(4),"; (* 2: L002 nullable UNIQUE member *)
      "  pat_no INT NOT NULL,";
      "  name VARCHAR(40),";
      "  name VARCHAR(40),"; (* 5: L003 duplicate attribute *)
      "  born INT,";
      "  UNIQUE (hosp_code, pat_no)";
      ");";
      "CREATE TABLE Admission ("; (* 9: L005 FK below targets Ward *)
      "  hosp_code VARCHAR(4) NOT NULL,";
      "  pat_no INT NOT NULL,";
      "  adm_date DATE NOT NULL,";
      "  ward VARCHAR(2),";
      "  bed INT,";
      "  drug1 VARCHAR(4),"; (* 15: L004 repeated group drug1/drug2 *)
      "  drug2 VARCHAR(4),";
      "  UNIQUE (hosp_code, pat_no, adm_date),";
      "  FOREIGN KEY (hosp_code, pat_no) REFERENCES Patient (hosp_code, \
       pat_no),";
      "  FOREIGN KEY (ward) REFERENCES Ward (ward_code)";
      ");";
      "CREATE TABLE Log (entry VARCHAR(80), stamp DATE);"; (* 21: L001 *)
    ]

let program_fixture =
  String.concat "\n"
    [
      "       PROCEDURE DIVISION.";
      "           EXEC SQL";
      "             SELECT name, ward";
      "             FROM Patient p, Admision a"; (* 4: L101 typo *)
      "             WHERE a.hosp_code = p.hosp_code";
      "           END-EXEC.";
      "           EXEC SQL";
      "             SELECT ghost FROM Patient"; (* 8: L102 *)
      "           END-EXEC.";
      "           EXEC SQL";
      (* 11: L106 cartesian + L107 no equi-join *)
      "             SELECT name FROM Patient p, Formulary f WHERE p.born = \
       1950";
      "           END-EXEC.";
      "           EXEC SQL";
      "             SELECT p.name FROM Patient p, Admission a";
      (* 15: L105 String = Int join *)
      "             WHERE p.hosp_code = a.hosp_code AND p.name = a.bed";
      "           END-EXEC.";
      "           EXEC SQL";
      (* 18: L104 duplicate alias *)
      "             SELECT a.ward FROM Admission a, Admission a";
      "           END-EXEC.";
      "           EXEC SQL";
      "             SELECT FROM WHERE"; (* 21: L108 unparseable *)
      "           END-EXEC.";
    ]

let hospital_schema () =
  Database.schema (Workload.Scenarios.hospital.Workload.Scenarios.database ())

let fixture_report () =
  Lint.run ~schema:(hospital_schema ())
    [
      Lint.source ~name:"hospital.sql" Lint.Schema_script ddl_fixture;
      Lint.source ~name:"admit.cob" Lint.Program program_fixture;
    ]

(* (source, code, severity, start line, start col) of every expected
   diagnostic, in report order *)
let expected_golden =
  [
    ("admit.cob", "L101", Diagnostic.Error, 4, 30);
    ("admit.cob", "L102", Diagnostic.Error, 8, 21);
    ("admit.cob", "L106", Diagnostic.Warning, 11, 31);
    ("admit.cob", "L107", Diagnostic.Info, 11, 31);
    ("admit.cob", "L105", Diagnostic.Warning, 15, 50);
    ("admit.cob", "L104", Diagnostic.Warning, 18, 46);
    ("admit.cob", "L108", Diagnostic.Warning, 21, 14);
    ("hospital.sql", "L002", Diagnostic.Warning, 2, 3);
    ("hospital.sql", "L003", Diagnostic.Error, 5, 3);
    ("hospital.sql", "L005", Diagnostic.Error, 9, 14);
    ("hospital.sql", "L004", Diagnostic.Info, 15, 3);
    ("hospital.sql", "L001", Diagnostic.Warning, 21, 14);
  ]

let golden_t =
  Alcotest.(list (pair (pair (pair string string) string) (pair int int)))

let shape (src, code, sev, line, col) =
  (((src, code), Diagnostic.severity_to_string sev), (line, col))

let test_golden () =
  let report = fixture_report () in
  let actual =
    List.map
      (fun (d : Diagnostic.t) ->
        ( Option.value ~default:"?" d.Diagnostic.source_name,
          d.Diagnostic.code,
          d.Diagnostic.severity,
          d.Diagnostic.span.Span.s_line,
          d.Diagnostic.span.Span.s_col ))
      report.Lint.diags
  in
  Alcotest.check golden_t "every seeded defect, code and position"
    (List.map shape expected_golden)
    (List.map shape actual)

(* the span offsets really underline the defective token *)
let test_golden_offsets () =
  let report = fixture_report () in
  let spanned code =
    let d =
      List.find (fun (d : Diagnostic.t) -> d.Diagnostic.code = code)
      report.Lint.diags
    in
    let src =
      if d.Diagnostic.source_name = Some "admit.cob" then program_fixture
      else ddl_fixture
    in
    let sp = d.Diagnostic.span in
    String.sub src sp.Span.s_off (sp.Span.e_off - sp.Span.s_off)
  in
  Alcotest.(check string) "L101 underlines the typo" "Admision"
    (spanned "L101");
  Alcotest.(check string) "L102 underlines the ghost column" "ghost"
    (spanned "L102");
  Alcotest.(check string) "L104 underlines the rebound table reference"
    "Admission" (spanned "L104");
  Alcotest.(check string) "L003 underlines the second occurrence" "name"
    (spanned "L003");
  Alcotest.(check string) "L004 underlines the first group member" "drug1"
    (spanned "L004");
  Alcotest.(check string) "L005 underlines the declaring table" "Admission"
    (spanned "L005")

(* human rendering: header format and caret excerpt *)
let test_excerpt () =
  let report = fixture_report () in
  let d =
    List.find
      (fun (d : Diagnostic.t) -> d.Diagnostic.code = "L101")
      report.Lint.diags
  in
  (match Diagnostic.render ~source:program_fixture d with
  | [ header; excerpt; caret ] ->
      Alcotest.(check bool) "header position" true
        (String.length header > 0
        && String.sub header 0 (String.length "admit.cob:4:30: error[L101]:")
           = "admit.cob:4:30: error[L101]:");
      let contains sub s =
        let n = String.length sub in
        let rec go i =
          i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
        in
        go 0
      in
      Alcotest.(check bool) "excerpt shows the source line" true
        (contains "FROM Patient p, Admision a" excerpt);
      Alcotest.(check bool) "caret underlines all 8 characters" true
        (contains "^^^^^^^^" caret)
  | lines ->
      Alcotest.failf "expected header + excerpt + caret, got %d line(s)"
        (List.length lines));
  (* the rendered report ends with the severity tally *)
  let text = Lint.render_text report in
  Alcotest.(check bool) "summary line" true
    (let suffix = "4 error(s), 6 warning(s), 2 info(s)\n" in
     String.length text >= String.length suffix
     && String.sub text
          (String.length text - String.length suffix)
          (String.length suffix)
        = suffix)

(* a lexical error is a parse failure like any other: one L006 for a
   DDL with an unterminated string, one L108 for a script or a host
   program with an illegal character *)
let test_lexical_errors () =
  let check msg code ?(sub = "lexical error at offset") kind text =
    match (Lint.run ~schema:(hospital_schema ()) [ Lint.source ~name:"src" kind text ]).Lint.diags with
    | [ d ] ->
        Alcotest.(check string) msg code d.Diagnostic.code;
        Helpers.check_contains msg ~sub d.Diagnostic.message
    | ds -> Alcotest.failf "%s: %d diagnostics" msg (List.length ds)
  in
  check "unterminated string" "L006" Lint.Schema_script
    "CREATE TABLE T (a VARCHAR(8));\nINSERT INTO T VALUES ('open);";
  check "illegal character in a script" "L108" Lint.Sql_script
    "SELECT ward FROM Admission WHERE ward = #1;";
  check "illegal character in a program" "L108" ~sub:"= #1" Lint.Program
    "       EXEC SQL SELECT ward FROM Admission WHERE ward = #1 END-EXEC."

(* the clean corpus stays clean: all three scenarios, schema rules plus
   workload rules plus pipeline verification, produce no diagnostics *)
let test_clean_corpus () =
  List.iter
    (fun (s : Workload.Scenarios.t) ->
      let db = s.Workload.Scenarios.database () in
      let schema = Database.schema db in
      let sources =
        List.mapi
          (fun i p ->
            Lint.source
              ~name:(Printf.sprintf "%s/prog%02d" s.Workload.Scenarios.name i)
              Lint.Program p)
          s.Workload.Scenarios.programs
      in
      let static = Lint.run ~schema sources in
      let schema_diags = Rules_schema.check_schema schema in
      Alcotest.(check int)
        (s.Workload.Scenarios.name ^ " static diagnostics")
        0
        (List.length static.Lint.diags + List.length schema_diags);
      match Dbre.Job.run (Workload.Scenarios.spec s) with
      | Error _ -> Alcotest.failf "%s pipeline failed" s.Workload.Scenarios.name
      | Ok result ->
          let verify = Lint.verify result in
          Alcotest.(check int)
            (s.Workload.Scenarios.name ^ " verification diagnostics")
            0
            (List.length verify.Lint.diags))
    Workload.Scenarios.all

(* ------------------------------------------------------------------ *)
(* Properties                                                           *)
(* ------------------------------------------------------------------ *)

let prop name arb fn =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count:100 ~name arb fn)

(* corpus text mangled at a random cut point: truncated, spliced with a
   junk character, or with a duplicated prefix *)
let arb_corrupted =
  let texts =
    Array.of_list
      (ddl_fixture :: program_fixture
      :: List.concat_map
           (fun (s : Workload.Scenarios.t) -> s.Workload.Scenarios.programs)
           Workload.Scenarios.all)
  in
  let gen =
    QCheck.Gen.(
      let* idx = int_range 0 (Array.length texts - 1) in
      let text = texts.(idx) in
      let* cut = int_range 0 (String.length text) in
      let* mode = int_range 0 2 in
      let left = String.sub text 0 cut
      and right = String.sub text cut (String.length text - cut) in
      return
        (match mode with
        | 0 -> left
        | 1 -> left ^ "?" ^ right
        | _ -> left ^ text))
  in
  QCheck.make ~print:(fun s -> s) gen

let run_all_kinds text =
  let schema = hospital_schema () in
  List.concat_map
    (fun kind ->
      (Lint.run ~schema [ Lint.source ~name:"src" kind text ]).Lint.diags)
    [ Lint.Schema_script; Lint.Program; Lint.Sql_script ]

let span_props =
  [
    prop "every diagnostic span lies inside its source text" arb_corrupted
      (fun text ->
        List.for_all
          (fun (d : Diagnostic.t) -> Span.inside d.Diagnostic.span text)
          (run_all_kinds text));
    prop "rendering never fails, excerpts stay within the source"
      arb_corrupted (fun text ->
        List.for_all
          (fun (d : Diagnostic.t) ->
            let lines = Diagnostic.render ~source:text d in
            ignore (Diagnostic.to_json d);
            lines <> [])
          (run_all_kinds text));
  ]

let suite =
  [
    Alcotest.test_case "golden codes and positions" `Quick test_golden;
    Alcotest.test_case "golden span offsets" `Quick test_golden_offsets;
    Alcotest.test_case "header and excerpt rendering" `Quick test_excerpt;
    Alcotest.test_case "clean corpus stays clean" `Slow test_clean_corpus;
  ]
  @ span_props
  @ [ Alcotest.test_case "lexical errors are parse errors" `Quick test_lexical_errors ]
