open Relational
open Helpers
open Deps
open Dbre

(* W(id key, ref, payload, other); hidden: W.other; fd: ref -> payload *)
let setup () =
  let db =
    database
      [
        ( Relation.make ~uniques:[ [ "id" ] ] "W" [ "id"; "ref"; "payload"; "other" ],
          [
            [ vi 1; vi 10; vs "p10"; vs "x" ];
            [ vi 2; vi 10; vs "p10"; vs "y" ];
            [ vi 3; vi 20; vs "p20"; vs "x" ];
            [ vi 4; vnull; vnull; vs "z" ];
          ] );
        ( Relation.make ~uniques:[ [ "rid" ] ] "R" [ "rid" ],
          [ [ vi 10 ]; [ vi 20 ]; [ vi 30 ] ] );
      ]
  in
  let inds = [ ind ("W", [ "ref" ]) ("R", [ "rid" ]) ] in
  (db, inds)

let oracle =
  Oracle.scripted
    {
      Oracle.nei_choices = [];
      fd_rejections = [];
      fd_enforcements = [];
      hidden_accepted = [];
      hidden_names = [ ("W.other", "Other") ];
      fd_names = [ ("W: ref -> payload", "Ref") ];
    }

let run () =
  let db, inds = setup () in
  let r =
    Restruct.run oracle ~db ~schema:(Database.schema db)
      ~fds:[ fd "W" [ "ref" ] [ "payload" ] ]
      ~hidden:[ Attribute.single "W" "other" ]
      ~inds ()
  in
  (db, r)

let test_hidden_materialized () =
  let _, r = run () in
  let other = Schema.find_exn r.Restruct.schema "Other" in
  Alcotest.(check (list string)) "attrs" [ "other" ] other.Relation.attrs;
  Alcotest.(check bool) "keyed" true (Relation.is_key other [ "other" ]);
  match r.Restruct.database with
  | Some db ->
      Alcotest.(check int) "distinct values" 3 (Database.cardinality db "Other")
  | None -> Alcotest.fail "expected migrated database"

let test_fd_split () =
  let _, r = run () in
  let refr = Schema.find_exn r.Restruct.schema "Ref" in
  Alcotest.(check (list string)) "split attrs" [ "ref"; "payload" ] refr.Relation.attrs;
  Alcotest.(check bool) "lhs keyed" true (Relation.is_key refr [ "ref" ]);
  let w = Schema.find_exn r.Restruct.schema "W" in
  Alcotest.(check (list string)) "payload removed from W"
    [ "id"; "ref"; "other" ] w.Relation.attrs;
  match r.Restruct.database with
  | Some db ->
      (* distinct non-null refs: 10, 20 *)
      Alcotest.(check int) "Ref extension" 2 (Database.cardinality db "Ref");
      Alcotest.(check int) "W keeps its rows" 4 (Database.cardinality db "W");
      (* split FD holds in the new relation *)
      Alcotest.(check bool) "fd holds in Ref" true
        (Reference.Fd_infer.satisfied_by (Database.table db "Ref") (fd "Ref" [ "ref" ] [ "payload" ]))
  | None -> Alcotest.fail "expected migrated database"

let test_ind_rewrite_and_ric () =
  let _, r = run () in
  (* W[ref] << R[rid] rewritten to Ref[ref] << R[rid]; new INDs added *)
  check_sorted_inds "final inds"
    [
      ind ("Ref", [ "ref" ]) ("R", [ "rid" ]);
      ind ("W", [ "other" ]) ("Other", [ "other" ]);
      ind ("W", [ "ref" ]) ("Ref", [ "ref" ]);
    ]
    r.Restruct.inds;
  (* all have key rhs: all are RIC *)
  check_sorted_inds "ric = inds here" r.Restruct.inds r.Restruct.ric

let test_ric_holds_on_migrated_data () =
  let _, r = run () in
  match r.Restruct.database with
  | Some db ->
      List.iter
        (fun i ->
          Alcotest.(check bool)
            (Ind.to_string i ^ " satisfied after migration")
            true (Ind.satisfied db i))
        r.Restruct.ric
  | None -> Alcotest.fail "expected migrated database"

let test_renamings () =
  let _, r = run () in
  Alcotest.(check int) "two renamings" 2 (List.length r.Restruct.renamings);
  Alcotest.(check (option string)) "hidden renaming" (Some "Other")
    (List.assoc_opt (Attribute.single "W" "other") r.Restruct.renamings
     |> Option.map Fun.id)

let test_no_db_mode () =
  let db, inds = setup () in
  let r =
    Restruct.run oracle ~schema:(Database.schema db)
      ~fds:[ fd "W" [ "ref" ] [ "payload" ] ]
      ~hidden:[] ~inds ()
  in
  Alcotest.(check bool) "no database" true (r.Restruct.database = None);
  Alcotest.(check bool) "schema still restructured" true
    (Schema.mem r.Restruct.schema "Ref")

let test_name_collision () =
  let db, inds = setup () in
  let clash =
    Oracle.scripted
      {
        Oracle.nei_choices = [];
        fd_rejections = [];
        fd_enforcements = [];
        hidden_accepted = [];
        hidden_names = [];
        fd_names = [ ("W: ref -> payload", "R") ] (* collides with existing R *);
      }
  in
  let r =
    Restruct.run clash ~schema:(Database.schema db)
      ~fds:[ fd "W" [ "ref" ] [ "payload" ] ]
      ~hidden:[] ~inds ()
  in
  Alcotest.(check bool) "suffixed name" true (Schema.mem r.Restruct.schema "R_1")

let test_paper_restructured_schema () =
  let result = Workload.Paper_example.run () in
  let schema = result.Pipeline.restruct_result.Restruct.schema in
  Alcotest.(check (list string)) "nine relations, paper order"
    [
      "Person"; "HEmployee"; "Department"; "Assignment"; "Ass-Dept";
      "Employee"; "Other-Dept"; "Manager"; "Project";
    ]
    (List.map (fun r -> r.Relation.name) (Schema.relations schema));
  Alcotest.(check (list string)) "Department shrunk" [ "dep"; "emp"; "location" ]
    (Schema.find_exn schema "Department").Relation.attrs;
  Alcotest.(check (list string)) "Assignment shrunk"
    [ "emp"; "dep"; "proj"; "date" ]
    (Schema.find_exn schema "Assignment").Relation.attrs;
  Alcotest.(check (list string)) "Manager structure" [ "emp"; "skill"; "proj" ]
    (Schema.find_exn schema "Manager").Relation.attrs;
  Alcotest.(check (list string)) "Project structure" [ "proj"; "project-name" ]
    (Schema.find_exn schema "Project").Relation.attrs

let test_paper_ric () =
  let result = Workload.Paper_example.run () in
  let ric = result.Pipeline.restruct_result.Restruct.ric in
  check_sorted_inds "the ten §7 RICs"
    [
      ind ("Employee", [ "no" ]) ("Person", [ "id" ]);
      ind ("Manager", [ "emp" ]) ("Employee", [ "no" ]);
      ind ("Assignment", [ "emp" ]) ("Employee", [ "no" ]);
      ind ("Ass-Dept", [ "dep" ]) ("Other-Dept", [ "dep" ]);
      ind ("Assignment", [ "dep" ]) ("Other-Dept", [ "dep" ]);
      ind ("Ass-Dept", [ "dep" ]) ("Department", [ "dep" ]);
      ind ("Manager", [ "proj" ]) ("Project", [ "proj" ]);
      ind ("HEmployee", [ "no" ]) ("Employee", [ "no" ]);
      ind ("Department", [ "emp" ]) ("Manager", [ "emp" ]);
      ind ("Assignment", [ "proj" ]) ("Project", [ "proj" ]);
    ]
    ric

let test_paper_migrated_constraints () =
  let result = Workload.Paper_example.run () in
  match result.Pipeline.restruct_result.Restruct.database with
  | Some db ->
      (* every RIC and every declared constraint holds after migration *)
      List.iter
        (fun i ->
          Alcotest.(check bool) (Ind.to_string i) true (Ind.satisfied db i))
        result.Pipeline.restruct_result.Restruct.ric;
      Alcotest.(check bool) "dictionary constraints hold" true
        (Result.is_ok (Reference.Counts.database_constraints db))
  | None -> Alcotest.fail "expected migrated database"

(* ---------- the data moves as code columns ---------- *)

(* Int 1 and Float 1.0 are Value.equal; the store keeps them apart *)
let structural = Alcotest.testable Value.pp (fun a b -> Stdlib.compare a b = 0)

(* every column of [t], dictionary and codes, is what a fresh encode of
   its rows assigns *)
let check_fresh_encode msg t =
  let s = Table.store t and cold = cold_store t in
  List.iter
    (fun a ->
      let got = Column_store.column s a and want = Column_store.column cold a in
      Alcotest.(check (array structural))
        (Printf.sprintf "%s: dict of %s" msg a)
        (Column_store.column_dict want) (Column_store.column_dict got);
      Alcotest.(check (array int))
        (Printf.sprintf "%s: codes of %s" msg a)
        (Column_store.column_codes want) (Column_store.column_codes got))
    (Table.schema t).Relation.attrs

(* the row version of each data move, read off the input database: a
   renamed relation is the distinct projection of its source, NULL-free
   on the renamed identifier; any other is a plain projection of the
   input relation of that name *)
let reference_rows input (r : Restruct.result) (rel : Relation.t) =
  let name = rel.Relation.name in
  match List.find_opt (fun (_, n) -> String.equal n name) r.Restruct.renamings with
  | Some (a, _) ->
      Reference.Counts.project ~non_null:a.Attribute.attrs
        (Database.table input a.Attribute.rel)
        rel.Relation.attrs
  | None -> Reference.Counts.project (Database.table input name) rel.Relation.attrs

(* rows are compared as lists: source order for projections,
   first-occurrence order for distinct ones *)
let check_moves msg input (r : Restruct.result) =
  let out = Option.get r.Restruct.database in
  List.iter
    (fun rel ->
      let t = Database.table out rel.Relation.name in
      let label = msg ^ " " ^ rel.Relation.name in
      check_fresh_encode label t;
      Alcotest.(check (list (list structural)))
        (label ^ ": rows")
        (reference_rows input r rel) (Table.to_lists t))
    (Schema.relations (Database.schema out))

let test_scenario_moves (sc : Workload.Scenarios.t) () =
  let db = sc.Workload.Scenarios.database () in
  let result =
    Pipeline.run
      ~config:
        { Pipeline.default_config with Pipeline.oracle = sc.Workload.Scenarios.oracle () }
      db (Job_spec.Programs sc.Workload.Scenarios.programs)
  in
  let r = result.Pipeline.restruct_result in
  Alcotest.(check bool) (sc.Workload.Scenarios.name ^ ": something moved") true
    (r.Restruct.renamings <> []);
  check_moves sc.Workload.Scenarios.name db r

let restruct_moves ?(hidden = []) ?(fds = []) db =
  let r =
    Restruct.run Oracle.automatic ~db ~schema:(Database.schema db) ~fds ~hidden
      ~inds:[] ()
  in
  check_moves "direct" db r;
  r

(* the rows of the relation [a] was renamed to *)
let rows_of r a =
  let target = List.assoc a r.Restruct.renamings in
  Table.to_lists (Database.table (Option.get r.Restruct.database) target)

let test_hidden_first_occurrence () =
  (* 40 distinct values, first seen in a scrambled order, each repeated *)
  let keys = List.init 40 (fun i -> (i * 17) mod 40) in
  let rows =
    List.mapi (fun i k -> [ vi i; vs (Printf.sprintf "h%d" k) ]) (keys @ List.rev keys)
  in
  let db = database [ (Relation.make "W" [ "id"; "h" ], rows) ] in
  let r = restruct_moves ~hidden:[ Attribute.single "W" "h" ] db in
  Alcotest.(check (list (list structural)))
    "first-occurrence order"
    (List.map (fun k -> [ vs (Printf.sprintf "h%d" k) ]) keys)
    (rows_of r (Attribute.single "W" "h"))

let test_hidden_null_drops () =
  let db =
    database
      [
        ( Relation.make "W" [ "id"; "x"; "y" ],
          [
            [ vi 1; vi 10; vs "a" ];
            [ vi 2; vi 10; vnull ];
            [ vi 3; vnull; vs "a" ];
            [ vi 4; vi 20; vs "b" ];
            [ vi 5; vi 10; vs "a" ];
          ] );
      ]
  in
  let r = restruct_moves ~hidden:[ Attribute.make "W" [ "x"; "y" ] ] db in
  Alcotest.(check (list (list structural)))
    "rows with a NULL in the hidden object are dropped"
    [ [ vi 10; vs "a" ]; [ vi 20; vs "b" ] ]
    (rows_of r (Attribute.make "W" [ "x"; "y" ]))

let test_fd_split_nulls () =
  let db =
    database
      [
        ( Relation.make "W" [ "id"; "ref"; "payload" ],
          [
            [ vi 1; vi 10; vs "p" ];
            [ vi 2; vnull; vs "q" ];
            [ vi 3; vi 20; vnull ];
            [ vi 4; vi 20; vnull ];
            [ vi 5; vi 10; vs "p" ];
          ] );
      ]
  in
  let r = restruct_moves ~fds:[ fd "W" [ "ref" ] [ "payload" ] ] db in
  Alcotest.(check (list (list structural)))
    "NULL LHS drops the row, NULL RHS keeps it"
    [ [ vi 10; vs "p" ]; [ vi 20; vnull ] ]
    (rows_of r (Attribute.single "W" "ref"));
  Alcotest.(check (list (list structural)))
    "the shrunk source keeps every row"
    [ [ vi 1; vi 10 ]; [ vi 2; vnull ]; [ vi 3; vi 20 ]; [ vi 4; vi 20 ]; [ vi 5; vi 10 ] ]
    (Table.to_lists (Database.table (Option.get r.Restruct.database) "W"))

let test_int_float_distinct () =
  let db =
    database
      [
        ( Relation.make "W" [ "id"; "v" ],
          [
            [ vi 1; Value.Int 1 ]; [ vi 2; Value.Float 1.0 ]; [ vi 3; Value.Int 1 ];
          ] );
      ]
  in
  let r = restruct_moves ~hidden:[ Attribute.single "W" "v" ] db in
  Alcotest.(check (list (list structural)))
    "Int 1 and Float 1.0 stay two rows"
    [ [ Value.Int 1 ]; [ Value.Float 1.0 ] ]
    (rows_of r (Attribute.single "W" "v"))

let test_moves_from_spilled_segments () =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Ooc.with_config ~spill_dir:dir ~resident_budget_words:64 ~segment_rows:16
    (fun () ->
      Ooc.reset_stats ();
      let rows =
        List.init 200 (fun i ->
            [
              vi i;
              vi (i mod 13);
              vs (Printf.sprintf "p%d" (i mod 13));
              (if i mod 11 = 0 then vnull else vs (Printf.sprintf "h%d" (i mod 29)));
            ])
      in
      let db = database [ (Relation.make "W" [ "id"; "ref"; "payload"; "h" ], rows) ] in
      let s = Table.store (Database.table db "W") in
      Alcotest.(check bool) "source segments spilled" true
        ((Column_store.residency s).Column_store.spilled_segments > 0);
      let loads = (Ooc.stats ()).Ooc.map_loads in
      let r =
        Restruct.run Oracle.automatic ~db ~schema:(Database.schema db)
          ~fds:[ fd "W" [ "ref" ] [ "payload" ] ]
          ~hidden:[ Attribute.single "W" "h" ] ~inds:[] ()
      in
      Alcotest.(check bool) "the projection mapped segments back" true
        ((Ooc.stats ()).Ooc.map_loads > loads);
      check_moves "spilled" db r)

let suite =
  [
    Alcotest.test_case "hidden materialized" `Quick test_hidden_materialized;
    Alcotest.test_case "fd split" `Quick test_fd_split;
    Alcotest.test_case "ind rewrite and ric" `Quick test_ind_rewrite_and_ric;
    Alcotest.test_case "ric holds on migrated data" `Quick test_ric_holds_on_migrated_data;
    Alcotest.test_case "renamings" `Quick test_renamings;
    Alcotest.test_case "schema-only mode" `Quick test_no_db_mode;
    Alcotest.test_case "name collision" `Quick test_name_collision;
    Alcotest.test_case "paper schema" `Quick test_paper_restructured_schema;
    Alcotest.test_case "paper RIC" `Quick test_paper_ric;
    Alcotest.test_case "paper migrated constraints" `Quick test_paper_migrated_constraints;
    Alcotest.test_case "paper moves = fresh encode" `Quick
      (test_scenario_moves Workload.Scenarios.paper);
    Alcotest.test_case "hospital moves = fresh encode" `Quick
      (test_scenario_moves Workload.Scenarios.hospital);
    Alcotest.test_case "generated moves = fresh encode" `Quick
      (test_scenario_moves
         (Workload.Scenarios.synthetic Workload.Gen_schema.default_spec));
    Alcotest.test_case "hidden rows in first-occurrence order" `Quick
      test_hidden_first_occurrence;
    Alcotest.test_case "NULL in a hidden attribute drops the row" `Quick
      test_hidden_null_drops;
    Alcotest.test_case "fd split: NULL LHS drops, NULL RHS keeps" `Quick
      test_fd_split_nulls;
    Alcotest.test_case "Int 1 and Float 1.0 stay apart" `Quick
      test_int_float_distinct;
    Alcotest.test_case "moves read spilled segments" `Quick
      test_moves_from_spilled_segments;
  ]
