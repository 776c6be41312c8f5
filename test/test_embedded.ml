open Sqlx

let test_exec_sql_cobol () =
  let e =
    Embedded.scan
      "       PROCEDURE DIVISION.\n\
      \           EXEC SQL SELECT a FROM R WHERE a = 1 END-EXEC.\n\
      \           DISPLAY 'done'."
  in
  Alcotest.(check int) "one statement" 1 (List.length e.Embedded.statements);
  Alcotest.(check int) "no failures" 0 (List.length e.Embedded.failures)

let test_exec_sql_c () =
  let e =
    Embedded.scan "int f(void) { EXEC SQL SELECT a FROM R; return 0; }"
  in
  Alcotest.(check int) "one statement" 1 (List.length e.Embedded.statements)

let test_multiple_blocks () =
  let e =
    Embedded.scan
      "EXEC SQL SELECT a FROM R END-EXEC. stuff EXEC SQL SELECT b FROM S \
       END-EXEC."
  in
  Alcotest.(check int) "two" 2 (List.length e.Embedded.statements)

let test_string_literal () =
  let e = Embedded.scan {|run("SELECT a FROM R WHERE a > 3");|} in
  Alcotest.(check int) "one" 1 (List.length e.Embedded.statements)

let test_concatenated_literals () =
  let e =
    Embedded.scan
      {|q = "SELECT a FROM R " +
           "WHERE a IN (SELECT b FROM S)";|}
  in
  Alcotest.(check int) "joined" 1 (List.length e.Embedded.statements);
  match e.Embedded.statements with
  | [ Ast.Query (Ast.Select s) ] ->
      Alcotest.(check bool) "where present" true (s.Ast.where <> None)
  | _ -> Alcotest.fail "expected query"

let test_non_sql_strings_ignored () =
  let e = Embedded.scan {|printf("hello %s", "SELECTED TEXT");|} in
  Alcotest.(check int) "ignored" 0 (List.length e.Embedded.statements)

let test_unparsable_recorded () =
  let e =
    Embedded.scan "x = 1;\n  run(\"SELECT FROM WHERE NONSENSE ((\");"
  in
  Alcotest.(check int) "no statements" 0 (List.length e.Embedded.statements);
  match e.Embedded.failures with
  | [ (fragment, span) ] ->
      Alcotest.(check string) "fragment" "SELECT FROM WHERE NONSENSE ((" fragment;
      Alcotest.(check string) "host span" "2:8" (Span.to_string span)
  | fs -> Alcotest.failf "expected one failure, got %d" (List.length fs)

let test_host_variables_preserved () =
  let e =
    Embedded.scan
      "EXEC SQL SELECT a FROM R WHERE a = :w-emp AND b = :x END-EXEC."
  in
  Alcotest.(check int) "parsed with host vars" 1 (List.length e.Embedded.statements)

let test_cursor_declaration () =
  let e =
    Embedded.scan
      "       EXEC SQL DECLARE C1 CURSOR FOR\n\
      \         SELECT a FROM R WHERE a > 1\n\
      \       END-EXEC."
  in
  Alcotest.(check int) "cursor select parsed" 1 (List.length e.Embedded.statements);
  match e.Embedded.statements with
  | [ Ast.Declare_cursor ("C1", Ast.Select _, _) ] -> ()
  | _ -> Alcotest.fail "expected a parsed cursor declaration"

let test_scan_files () =
  let es =
    List.map Embedded.scan
      [ "EXEC SQL SELECT a FROM R;"; {|go("SELECT b FROM S");|} ]
  in
  Alcotest.(check (list int)) "one statement a file" [ 1; 1 ]
    (List.map (fun e -> List.length e.Embedded.statements) es);
  Alcotest.(check (list int)) "raw counts" [ 1; 1 ]
    (List.map (fun e -> e.Embedded.raw_found) es)

let test_paper_programs () =
  let es = List.map Embedded.scan (Workload.Paper_example.programs ()) in
  Alcotest.(check int) "five statements" 5
    (List.length (List.concat_map (fun e -> e.Embedded.statements) es));
  Alcotest.(check int) "no failures" 0
    (List.length (List.concat_map (fun e -> e.Embedded.failures) es))

let suite =
  [
    Alcotest.test_case "EXEC SQL cobol" `Quick test_exec_sql_cobol;
    Alcotest.test_case "EXEC SQL c" `Quick test_exec_sql_c;
    Alcotest.test_case "multiple blocks" `Quick test_multiple_blocks;
    Alcotest.test_case "string literal" `Quick test_string_literal;
    Alcotest.test_case "concatenated literals" `Quick test_concatenated_literals;
    Alcotest.test_case "non-sql strings" `Quick test_non_sql_strings_ignored;
    Alcotest.test_case "unparsable recorded" `Quick test_unparsable_recorded;
    Alcotest.test_case "host variables" `Quick test_host_variables_preserved;
    Alcotest.test_case "cursor declaration" `Quick test_cursor_declaration;
    Alcotest.test_case "scan files" `Quick test_scan_files;
    Alcotest.test_case "paper programs" `Quick test_paper_programs;
  ]
