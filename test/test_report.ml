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

let broken = 1

(* a generated fixture whose program [broken] has one WHERE cut short,
   as dialect noise in a legacy source would: Extract skips that
   fragment, the report and the artifacts name it with its program
   span, and Q is the unbroken run's minus the one join it carried;
   the fixture is the cut program's text, the unbroken run and the cut
   run *)
let skipped_fixture =
  lazy
    (let cut program =
       let cut_first = ref true in
       String.concat "\n"
         (List.map
            (fun line ->
              if
                !cut_first
                && String.starts_with ~prefix:"WHERE" (String.trim line)
              then begin
                cut_first := false;
                line ^ " AND (("
              end
              else line)
            (String.split_on_char '\n' program))
     in
     let run damage =
       let g = Workload.Gen_schema.generate Workload.Gen_schema.default_spec in
       let programs =
         List.mapi
           (fun i p -> if i = broken then damage p else p)
           g.Workload.Gen_schema.programs
       in
       let spec =
         Dbre.Job_spec.of_database g.Workload.Gen_schema.db
           (Dbre.Job_spec.Programs programs)
       in
       (List.nth programs broken, Helpers.ok (Dbre.Job.run spec))
     in
     let _, whole = run Fun.id and program, r = run cut in
     (program, whole, r))

let test_skipped_fragment () =
  let program, whole, r = Lazy.force skipped_fixture in
  Alcotest.(check int) "nothing skipped unbroken" 0
    (List.length whole.Dbre.Pipeline.skipped);
  Alcotest.(check (list string)) "no skipped artifact unbroken"
    [ "F"; "H"; "IND"; "RIC"; "EER" ]
    (List.map fst (Dbre.Report.artifacts whole));
  let sk =
    match r.Dbre.Pipeline.skipped with
    | [ sk ] -> sk
    | l ->
        Alcotest.failf "expected one skipped fragment, got %d" (List.length l)
  in
  Alcotest.(check int) "its program" broken sk.Dbre.Pipeline.sk_program;
  let sp = sk.Dbre.Pipeline.sk_span in
  let spanned =
    String.sub program sp.Sqlx.Span.s_off
      (sp.Sqlx.Span.e_off - sp.Sqlx.Span.s_off)
  in
  Alcotest.(check bool) "span starts at the fragment" true
    (String.starts_with ~prefix:sk.Dbre.Pipeline.sk_line spanned
    && String.starts_with ~prefix:"SELECT" spanned);
  Alcotest.(check bool) "span ends at the cut" true
    (String.ends_with ~suffix:"AND ((" spanned);
  let line =
    Printf.sprintf "program %d %s: %s" broken (Sqlx.Span.to_string sp)
      sk.Dbre.Pipeline.sk_line
  in
  let text = Format.asprintf "%a" Dbre.Report.pp_result r in
  Alcotest.(check bool) "report names it" true
    (contains text
       ("=== Skipped SQL fragments (do not parse) ===\n" ^ line ^ "\n"));
  Alcotest.(check (option string)) "skipped artifact" (Some line)
    (List.assoc_opt "skipped" (Dbre.Report.artifacts r));
  let lost =
    List.filter
      (fun j ->
        not (List.exists (Sqlx.Equijoin.equal j) r.Dbre.Pipeline.equijoins))
      whole.Dbre.Pipeline.equijoins
  in
  Alcotest.(check int) "one join lost" 1 (List.length lost);
  Alcotest.(check bool) "Q is the unbroken Q minus it" true
    (List.equal Sqlx.Equijoin.equal r.Dbre.Pipeline.equijoins
       (List.filter
          (fun j -> not (List.exists (Sqlx.Equijoin.equal j) lost))
          whole.Dbre.Pipeline.equijoins))

(* the Markdown report lists the skipped fragment, line for line as the
   text report names it, ahead of the IND-discovery section; an unbroken
   run has no such section *)
let test_markdown_skipped () =
  let _, whole, r = Lazy.force skipped_fixture in
  let heading = "## Skipped SQL fragments (do not parse)" in
  Alcotest.(check bool) "no section unbroken" false
    (contains (Dbre.Report.markdown whole) heading);
  let sk = List.hd r.Dbre.Pipeline.skipped in
  let item =
    Printf.sprintf "- program %d %s: `%s`" broken
      (Sqlx.Span.to_string sk.Dbre.Pipeline.sk_span)
      sk.Dbre.Pipeline.sk_line
  in
  let md = Dbre.Report.markdown r in
  Alcotest.(check bool) "section lists it" true
    (contains md (heading ^ "\n\n" ^ item ^ "\n\n"
                  ^ "## Inclusion-dependency discovery (section 6.1)"))

let suite =
  [
    Alcotest.test_case "markdown sections" `Quick test_markdown_sections;
    Alcotest.test_case "markdown escapes pipes" `Quick test_markdown_escapes_pipes;
    Alcotest.test_case "markdown custom title" `Quick test_markdown_custom_title;
    Alcotest.test_case "markdown provenance" `Quick test_markdown_provenance;
    Alcotest.test_case "text report complete" `Quick test_text_report_complete;
    Alcotest.test_case "annotated inds" `Quick test_annotated_inds;
    Alcotest.test_case "skipped fragment named" `Quick test_skipped_fragment;
    Alcotest.test_case "markdown names skipped fragments" `Quick
      test_markdown_skipped;
  ]
