(* Incremental re-verification: delta-maintained column stores must be
   observationally identical to recomputing from scratch. Fuzzed
   insert / delete / batch-append sequences over generated workloads
   assert that a [Pipeline.refresh_checked] after mutation yields
   byte-identical F/H/IND/RIC artifacts to a cold run over the same
   mutated extension — at 1, 2 and 4 domains and on both sides of the
   rebuild-fallback threshold — plus pinned verdict-flip cases: an FD
   broken by an insert and an IND broken by deleting a referenced row.

   Deterministic by construction: every mutation burst is driven by a
   seeded Workload.Rng stream over two identical generated databases. *)

open Helpers
open Relational
open Deps
module Rng = Workload.Rng
module Gen = Workload.Gen_schema
module Pipeline = Dbre.Pipeline
module Job_spec = Dbre.Job_spec

(* ---------- fuzzed mutation bursts ---------- *)

let gen_spec seed =
  {
    Gen.default_spec with
    Gen.seed;
    rows_per_entity = 40;
    rows_per_denorm = 80;
    null_ref_rate = 0.2;
  }

(* a plausible fresh row for [t]: copy a random existing row, then
   overwrite one attribute with that column's value from another row —
   type-consistent, and occasionally dependency-breaking *)
let sample_row rng t =
  let rows = Table.rows t in
  let n = Array.length rows in
  let base = Tuple.to_list rows.(Rng.int rng n) in
  let donor = Tuple.to_list rows.(Rng.int rng n) in
  let k = Rng.int rng (List.length base) in
  List.mapi (fun i v -> if i = k then List.nth donor i else v) base

(* one fuzzed burst against every named relation: a transactional batch
   append, a single insert, then a small delete. Deterministic in
   (rng seed, extension), so an identical database can replay it. *)
let mutate rng db names =
  List.iter
    (fun name ->
      let t = Database.table db name in
      let batch = List.init (1 + Rng.int rng 3) (fun _ -> sample_row rng t) in
      Table.insert_many t batch;
      Database.insert db name (sample_row rng t);
      let m = Table.cardinality t in
      Table.delete_rows t
        (List.sort_uniq compare [ Rng.int rng m; Rng.int rng m ]))
    names

let artifacts_exn config db input =
  match Pipeline.run_checked ~config db input with
  | Ok r -> Dbre.Report.artifacts r
  | Error p ->
      Alcotest.failf "pipeline failed: %s" (Error.to_string p.Pipeline.p_error)

(* warm-run a generated workload, mutate it, refresh incrementally; an
   identical database mutated the same way and run cold must produce
   the very same artifact bytes. Returns the refresh report. *)
let check_refresh_equivalence ~msg config seed =
  let spec = gen_spec seed in
  let g = Gen.generate spec in
  let names =
    List.map
      (fun r -> r.Relation.name)
      (Schema.relations (Database.schema g.Gen.db))
  in
  let input = Job_spec.Equijoins g.Gen.equijoins in
  let mut_seed = Int64.add spec.Gen.seed 1000L in
  (* warm: full run (stores memoized), mutate, delta refresh *)
  ignore (artifacts_exn config g.Gen.db input);
  mutate (Rng.create mut_seed) g.Gen.db names;
  let report, result = Pipeline.refresh_checked ~config g.Gen.db input in
  let refreshed =
    match result with
    | Ok r -> Dbre.Report.artifacts r
    | Error p ->
        Alcotest.failf "%s: refresh failed: %s" msg
          (Error.to_string p.Pipeline.p_error)
  in
  (* cold: same generator output, same burst, no prior run, no caches *)
  let h = Gen.generate spec in
  mutate (Rng.create mut_seed) h.Gen.db names;
  List.iter (fun n -> Table.clear_ext_cache (Database.table h.Gen.db n)) names;
  let cold = artifacts_exn config h.Gen.db input in
  Alcotest.(check (list (pair string string))) msg cold refreshed;
  report

let with_engine engine = { Pipeline.default_config with Pipeline.engine }

let test_fuzz_columnar () =
  List.iter
    (fun seed ->
      let report =
        check_refresh_equivalence
          ~msg:(Printf.sprintf "artifacts (seed %Ld)" seed)
          (with_engine Engine.default) seed
      in
      (* the burst is small (≤6 rows on 40+-row tables): under the
         default fraction every touched store absorbs its delta *)
      Alcotest.(check bool)
        (Printf.sprintf "seed %Ld: stores were refreshed" seed)
        true
        (report.Refresh.absorbed >= 1);
      Alcotest.(check int)
        (Printf.sprintf "seed %Ld: nothing fell back to rebuild" seed)
        0 report.Refresh.rebuilt)
    [ 7L; 19L; 23L ]

let test_fuzz_domains () =
  List.iter
    (fun domains ->
      ignore
        (check_refresh_equivalence
           ~msg:(Printf.sprintf "artifacts (%d domains)" domains)
           (with_engine (Engine.parallel ~domains ()))
           11L))
    [ 2; 4 ]

(* the same workload on both sides of the fallback threshold: a loose
   fraction absorbs every delta, a zero fraction rebuilds every store —
   and the artifacts are identical either way *)
let test_fallback_threshold () =
  Column_store.reset_delta_stats ();
  let absorb =
    check_refresh_equivalence ~msg:"artifacts (absorb side)"
      (with_engine (Engine.make ~delta_fraction:1.0 ()))
      31L
  in
  Alcotest.(check int) "loose fraction: no rebuilds" 0 absorb.Refresh.rebuilt;
  Alcotest.(check bool) "loose fraction: absorbed" true
    (absorb.Refresh.absorbed >= 1);
  let stats = Column_store.delta_stats () in
  Alcotest.(check bool) "incremental counter moved" true
    (stats.Column_store.incremental_refreshes >= 1);
  Alcotest.(check bool) "absorbed rows counted" true
    (stats.Column_store.rows_absorbed >= absorb.Refresh.rows_applied);
  let rebuild =
    check_refresh_equivalence ~msg:"artifacts (rebuild side)"
      (with_engine (Engine.make ~delta_fraction:0.0 ()))
      31L
  in
  Alcotest.(check int) "zero fraction: no absorbs" 0 rebuild.Refresh.absorbed;
  Alcotest.(check bool) "zero fraction: rebuilt" true
    (rebuild.Refresh.rebuilt >= 1);
  let stats = Column_store.delta_stats () in
  Alcotest.(check bool) "rebuild counter moved" true
    (stats.Column_store.full_rebuilds >= 1)

(* ---------- pinned verdict flips ---------- *)

(* a TRUE FD verdict must flip when an insert breaks it, and survive an
   insert that does not — both through the incremental path *)
let test_fd_broken_by_insert () =
  let t =
    table "R" [ "a"; "b"; "c" ]
      [
        [ vi 1; vs "x"; vi 10 ];
        [ vi 1; vs "x"; vi 20 ];
        [ vi 2; vs "y"; vi 30 ];
        [ vi 3; vs "z"; vi 40 ];
      ]
  in
  let f = fd "R" [ "a" ] [ "b" ] in
  let engine = Engine.default in
  Alcotest.(check bool) "a -> b holds before" true (Fd_infer.holds ~engine t f);
  (* harmless append: new group, then a repeat of an existing pair *)
  Table.insert t [ vi 4; vs "w"; vi 50 ];
  Table.insert t [ vi 1; vs "x"; vi 60 ];
  (* 2 delta rows on a 4-row table exceeds the default fraction, so
     widen the budget to pin the absorb path *)
  (match Column_store.refresh ~delta_fraction:1.0 t with
  | Some (Column_store.Store_absorbed n) ->
      Alcotest.(check int) "two appended rows absorbed" 2 n
  | _ -> Alcotest.fail "expected an incremental absorb");
  Alcotest.(check bool) "still holds after harmless appends" true
    (Fd_infer.holds ~engine t f);
  (* breaking append: a=1 now maps to two b values *)
  Table.insert t [ vi 1; vs "DIFFERENT"; vi 70 ];
  Alcotest.(check bool) "flips to false incrementally" false
    (Fd_infer.holds ~engine t f);
  Alcotest.(check bool) "reference agrees" false
    (Reference.Fd_infer.holds_naive t f)

(* an IND (join count = referencing side's distinct count) must flip
   when the referenced row is deleted, through the coordinated
   database-level refresh *)
let test_ind_broken_by_delete () =
  let l = Relation.make "L" [ "ref" ] in
  let r = Relation.make "R" [ "id"; "nm" ] in
  let db =
    database
      [
        (l, [ [ vi 1 ]; [ vi 2 ]; [ vi 3 ]; [ vi 2 ] ]);
        (r, [ [ vi 1; vs "a" ]; [ vi 2; vs "b" ]; [ vi 3; vs "c" ];
              [ vi 4; vs "d" ] ]);
      ]
  in
  let n_left () = Database.count_distinct db "L" [ "ref" ] in
  let n_join () = Database.join_count db ("L", [ "ref" ]) ("R", [ "id" ]) in
  Alcotest.(check bool) "L[ref] <= R[id] before" true (n_join () = n_left ());
  (* delete the row holding id 3 — referenced by L *)
  Table.delete_rows (Database.table db "R") [ 2 ];
  let report = Refresh.database db in
  (match List.assoc_opt "L" report.Refresh.relations with
  | Some Refresh.Store_fresh -> ()
  | _ -> Alcotest.fail "untouched L should report Store_fresh");
  (match List.assoc_opt "R" report.Refresh.relations with
  | Some (Refresh.Store_absorbed 1) -> ()
  | _ -> Alcotest.fail "R should absorb its one-row delete");
  Alcotest.(check bool) "IND broken after delete" false (n_join () = n_left ());
  Alcotest.(check int) "join count matches the reference"
    (Reference.Counts.equijoin_distinct_count (Database.table db "L")
       [ "ref" ] (Database.table db "R") [ "id" ])
    (n_join ());
  Alcotest.(check int) "distinct count matches the reference"
    (Reference.Counts.count_distinct (Database.table db "L") [ "ref" ])
    (n_left ())

(* ---------- the mutation log itself ---------- *)

let test_mutation_log () =
  let t = table "T" [ "a"; "b" ] [ [ vi 1; vi 2 ]; [ vi 3; vi 4 ] ] in
  let v0 = Table.version t in
  Table.insert_many t [ [ vi 5; vi 6 ]; [ vi 7; vi 8 ] ];
  Alcotest.(check int) "one version bump per batch" (v0 + 1) (Table.version t);
  (match Table.deltas_since t v0 with
  | Some [ Table.Rows_appended rows ] ->
      Alcotest.(check int) "batch logged as one entry" 2 (Array.length rows)
  | _ -> Alcotest.fail "expected a single appended batch");
  Table.delete_rows t [ 0 ];
  (match Table.deltas_since t v0 with
  | Some [ Table.Rows_appended _; Table.Rows_deleted (idxs, tups) ] ->
      Alcotest.(check (list int)) "deleted indices" [ 0 ]
        (Array.to_list idxs);
      Alcotest.(check (list value)) "deleted tuples carry their values"
        [ vi 1; vi 2 ]
        (Tuple.to_list tups.(0))
  | _ -> Alcotest.fail "expected append then delete, oldest first");
  Alcotest.(check bool) "current version replays as Some []" true
    (Table.deltas_since t (Table.version t) = Some []);
  Alcotest.(check bool) "unknown version yields None" true
    (Table.deltas_since t (Table.version t + 5) = None)

let test_log_trim () =
  let t = Table.create (Relation.make "T" [ "a" ]) in
  let v0 = Table.version t in
  Table.insert_many t (List.init 2000 (fun i -> [ vi i ]));
  let v1 = Table.version t in
  (* a mass delete pushes the logged-tuple total past the cap: the
     oldest entries are dropped and replay from before them fails *)
  Table.delete_rows t (List.init 1500 (fun i -> i));
  Alcotest.(check bool) "replay from before the trim is refused" true
    (Table.deltas_since t v0 = None);
  (* a store that had seen v0 must rebuild, not absorb *)
  ignore (Column_store.of_table t);
  Alcotest.(check bool) "store still answers correctly after trim" true
    (Column_store.count_distinct (Column_store.of_table t) [ "a" ] = 500);
  (match Table.deltas_since t v1 with
  | Some [ Table.Rows_deleted (idxs, _) ] ->
      Alcotest.(check int) "newest entry still replayable" 1500
        (Array.length idxs)
  | _ -> Alcotest.fail "expected the delete entry to survive the trim")

(* insert_many is transactional: a bad row leaves no trace *)
let test_insert_many_transactional () =
  let t = table "T" [ "a"; "b" ] [ [ vi 1; vi 2 ] ] in
  let v0 = Table.version t in
  (try
     Table.insert_many t [ [ vi 3; vi 4 ]; [ vi 5 ] ];
     Alcotest.fail "arity error expected"
   with Invalid_argument _ -> ());
  Alcotest.(check int) "cardinality unchanged" 1 (Table.cardinality t);
  Alcotest.(check int) "version unchanged" v0 (Table.version t);
  Alcotest.(check bool) "nothing logged" true
    (Table.deltas_since t v0 = Some [])

let suite =
  [
    Alcotest.test_case "fuzzed refresh = cold recompute (columnar)" `Quick
      test_fuzz_columnar;
    Alcotest.test_case "fuzzed refresh = cold recompute (2/4 domains)" `Quick
      test_fuzz_domains;
    Alcotest.test_case "identical across the fallback threshold" `Quick
      test_fallback_threshold;
    Alcotest.test_case "FD broken by insert flips incrementally" `Quick
      test_fd_broken_by_insert;
    Alcotest.test_case "IND broken by delete flips via refresh" `Quick
      test_ind_broken_by_delete;
    Alcotest.test_case "mutation log semantics" `Quick test_mutation_log;
    Alcotest.test_case "log trim forces rebuild" `Quick test_log_trim;
    Alcotest.test_case "insert_many is transactional" `Quick
      test_insert_many_transactional;
  ]
