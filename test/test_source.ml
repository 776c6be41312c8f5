(* Source abstraction: the three source shapes are one seam. The same
   extension loaded as a CSV file, inline text or an adopted in-memory
   table yields byte-identical tables; quarantine behavior is
   shape-independent; the In_memory schema check refuses extensions
   that disagree with the dictionary. *)

open Relational

let rel () =
  Relation.make
    ~domains:[ ("a", Domain.Int); ("b", Domain.String) ]
    ~uniques:[ [ "a" ] ] "R" [ "a"; "b" ]

let csv = "a,b\n1,x\n2,y\n3,z\n"

let load ?mode source =
  match Source.load ?mode (rel ()) source with
  | Ok (table, report) -> (table, report)
  | Error e -> Alcotest.failf "load %s: %s" (Source.describe source)
                 (Error.to_string e)

let dump source = Csv.dump_table (fst (load source))

let with_temp_file contents f =
  let path = Filename.temp_file "dbre_source" ".csv" in
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents);
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

let test_three_shapes_identical () =
  let baseline = dump (Source.csv_inline csv) in
  with_temp_file csv (fun path ->
      Alcotest.(check string) "csv-file = csv-inline" baseline
        (dump (Source.csv_file path)));
  let table, _ = load (Source.csv_inline csv) in
  Alcotest.(check string) "in-memory = csv-inline" baseline
    (dump (Source.in_memory table))

let test_in_memory_schema_check () =
  let other =
    Relation.make ~domains:[ ("a", Domain.Int); ("c", Domain.String) ] "R"
      [ "a"; "c" ]
  in
  let table, _ =
    match Csv.load other "a,c\n1,x\n" with
    | Ok r -> r
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  (match Source.load (rel ()) (Source.in_memory table) with
  | Ok _ -> Alcotest.fail "adopted a table with the wrong attributes"
  | Error e ->
      Alcotest.(check string) "typed refusal" "type-mismatch"
        (Error.code_to_string e.Error.code));
  (* same name and attributes, but none of the DDL's key, not-null or
     domains: adopting it would drop K and N from the schema *)
  let ddl = "CREATE TABLE R (a INTEGER NOT NULL, b VARCHAR(10), UNIQUE (a));" in
  let rows = "a,b\n1,x\n2,y\n" in
  let database source =
    Dbre.Job.database
      (Dbre.Job_spec.make ~sources:[ ("R", source) ] ~ddl
         (Dbre.Job_spec.Programs []))
  in
  let bare =
    match Csv.load (Relation.make "R" [ "a"; "b" ]) rows with
    | Ok (t, _) -> t
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  (match database (Source.in_memory bare) with
  | Ok (db, _) ->
      let r = Table.schema (Database.table db "R") in
      Alcotest.failf "adopted R with uniques=%d not_nulls=%d dom_a=%s"
        (List.length r.Relation.uniques)
        (List.length r.Relation.not_nulls)
        (Domain.to_string (Relation.domain_of r "a"))
  | Error e ->
      Alcotest.(check string) "undeclared constraints refused" "type-mismatch"
        (Error.code_to_string e.Error.code);
      Alcotest.(check string) "the message names what differs"
        "in-memory extension of R disagrees with the schema: domains (a \
         unknown, b unknown), expected (a int, b string); uniques (), \
         expected ((a)); not-nulls (), expected (a)"
        e.Error.message);
  (* the same rows inline, and the DDL's own relation in memory, load
     with the declared K, N and domains *)
  match database (Source.csv_inline rows) with
  | Error e -> Alcotest.fail (Error.to_string e)
  | Ok (db, _) -> (
      let typed = Database.table db "R" in
      let declared = Table.schema typed in
      Alcotest.(check (list (list string))) "inline uniques" [ [ "a" ] ]
        declared.Relation.uniques;
      Alcotest.(check (list string)) "inline not-nulls" [ "a" ]
        (Relation.not_null_attrs declared);
      Alcotest.(check string) "inline domain of a" "int"
        (Domain.to_string (Relation.domain_of declared "a"));
      match database (Source.in_memory typed) with
      | Ok (db, _) ->
          Alcotest.(check bool) "an equal relation is adopted" true
            (Relation.equal declared (Table.schema (Database.table db "R")))
      | Error e -> Alcotest.fail (Error.to_string e))

let test_quarantine_parity () =
  (* row 2 is ill-typed, row 4 has the wrong width: every shape must
     keep the same survivors and report the same casualties *)
  let dirty = "a,b\n1,x\noops,y\n2,z\n3\n4,w\n" in
  let outcome source =
    let table, report = load ~mode:`Quarantine source in
    let r = Option.get report in
    (Csv.dump_table table, r.Quarantine.kept, Quarantine.count r)
  in
  let d, kept, count = outcome (Source.csv_inline dirty) in
  with_temp_file dirty (fun path ->
      let fd, fkept, fcount = outcome (Source.csv_file path) in
      Alcotest.(check string) "same survivors" fd d;
      Alcotest.(check int) "same kept" fkept kept;
      Alcotest.(check int) "same quarantine count" fcount count);
  Alcotest.(check int) "three rows survive" 3 kept

let test_missing_file_is_io_error () =
  match Source.load (rel ()) (Source.csv_file "/nonexistent/path.csv") with
  | Ok _ -> Alcotest.fail "loaded a file that does not exist"
  | Error e ->
      Alcotest.(check string) "typed io error" "io-error"
        (Error.code_to_string e.Error.code)

let test_describe () =
  Alcotest.(check string) "inline" "csv-inline:12b"
    (Source.describe (Source.csv_inline "a,b\n1,x\n2,y\n"));
  Alcotest.(check string) "file" "csv-file:/tmp/r.csv"
    (Source.describe (Source.csv_file "/tmp/r.csv"))

let suite =
  [
    Alcotest.test_case "three shapes load identically" `Quick
      test_three_shapes_identical;
    Alcotest.test_case "in-memory schema check" `Quick
      test_in_memory_schema_check;
    Alcotest.test_case "quarantine is shape-independent" `Quick
      test_quarantine_parity;
    Alcotest.test_case "missing file is a typed io error" `Quick
      test_missing_file_is_io_error;
    Alcotest.test_case "describe" `Quick test_describe;
  ]
