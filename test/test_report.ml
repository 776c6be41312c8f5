(* Report rendering: the textual and Markdown narratives. *)

let contains haystack needle =
  let hl = String.length haystack and nl = String.length needle in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let result = lazy (Helpers.paper ())

let test_markdown_sections () =
  let md = Dbre.Report.markdown (Lazy.force result) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains md needle))
    [
      "# Database reverse-engineering report";
      "## Inclusion-dependency discovery (section 6.1)";
      "## Functional-dependency discovery (section 6.2)";
      "## Restructured schema (section 7)";
      "## Referential integrity constraints";
      "## Conceptual (EER) schema";
      "## Expert decisions";
      "| equi-joins analyzed | 5 |";
      "| inclusion dependencies elicited | 6 |";
      "| referential integrity constraints | 10 |";
      "conceptualized `Ass-Dept`";
      "`Department: emp -> proj,skill`";
      "digraph eer";
    ]

let test_markdown_escapes_pipes () =
  let md = Dbre.Report.markdown (Lazy.force result) in
  (* equi-joins contain |X|, which must be escaped inside table cells *)
  Alcotest.(check bool) "escaped" true (contains md "\\|X\\|");
  (* raw pipes must not appear inside table rows (bullet lines are fine) *)
  let table_rows =
    List.filter
      (fun line -> String.length line > 2 && line.[0] = '|' && line.[1] = ' ')
      (String.split_on_char '\n' md)
  in
  Alcotest.(check bool) "no raw |X| in table rows" false
    (List.exists (fun line -> contains line " |X| ") table_rows)

let test_markdown_custom_title () =
  let md = Dbre.Report.markdown ~title:"Payroll takeover" (Lazy.force result) in
  Alcotest.(check bool) "custom title" true (contains md "# Payroll takeover")

let test_markdown_provenance () =
  let md = Dbre.Report.markdown (Lazy.force result) in
  Alcotest.(check bool) "NEI provenance" true (contains md "conceptualized NEI");
  Alcotest.(check bool) "hidden provenance" true (contains md "from `HEmployee.no`");
  Alcotest.(check bool) "fd provenance" true
    (contains md "from `Department.emp`")

let test_text_report_complete () =
  let text = Format.asprintf "%a" Dbre.Report.pp_result (Lazy.force result) in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("mentions " ^ needle) true (contains text needle))
    [
      "=== Q (equi-joins analyzed) ===";
      "=== Elicited IND ===";
      "=== F (elicited functional dependencies) ===";
      "=== Restructured schema ===";
      "=== RIC (referential integrity constraints) ===";
      "=== EER schema ===";
      "=== Expert decisions ===";
    ]

let test_annotated_inds () =
  let r = Lazy.force result in
  let schema = (Lazy.force result).Dbre.Pipeline.restruct_result.Dbre.Restruct.schema in
  let text =
    Format.asprintf "%a"
      (Dbre.Report.pp_inds_annotated schema)
      r.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric
  in
  (* every RIC has a key right-hand side: all lines starred *)
  Alcotest.(check bool) "stars present" true (contains text "Person[id]*")

let suite =
  [
    Alcotest.test_case "markdown sections" `Quick test_markdown_sections;
    Alcotest.test_case "markdown escapes pipes" `Quick test_markdown_escapes_pipes;
    Alcotest.test_case "markdown custom title" `Quick test_markdown_custom_title;
    Alcotest.test_case "markdown provenance" `Quick test_markdown_provenance;
    Alcotest.test_case "text report complete" `Quick test_text_report_complete;
    Alcotest.test_case "annotated inds" `Quick test_annotated_inds;
  ]
