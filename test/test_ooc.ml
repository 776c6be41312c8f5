(* Out-of-core column store: bit-packed segments, spill + mmap, and
   zone-map pruning must be invisible to every verdict.

   - fuzzed segment-boundary equivalence: the streaming builder and the
     seed reference loader produce identical codes and dictionaries for
     row counts straddling segment edges, at every pack width;
   - spill -> mmap -> verdict round-trip: encoding under a tiny
     residency budget spills segments and maps them back, and neither
     the decoded codes nor any FD/IND verdict changes;
   - zone-map pruning property: every segment the sweep skips is
     verdict-irrelevant — the same batch with pruning disabled returns
     the same verdicts (fuzzed), and isolated-key data actually skips;
   - delete compaction: tail-only deletes take the reclaim path, deep
     deletes recompact, and both end up identical to a fresh encode of
     the surviving rows;
   - the full pipeline under a spill budget produces byte-identical
     artifacts to an in-RAM run. *)

open Relational
open Helpers
module Gen = Workload.Gen_schema
module Pipeline = Dbre.Pipeline
module Job_spec = Dbre.Job_spec

(* -- deterministic pseudo-random stream ------------------------------- *)

let lcg = ref 0

let rand m =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod m

let reset_lcg () = lcg := 424242

let spill_dir_counter = ref 0

let fresh_spill_dir () =
  incr spill_dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dbre-ooc-test-%d-%d" (Unix.getpid ()) !spill_dir_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* -- fuzzed segment-boundary equivalence ------------------------------ *)

let rel2 =
  Relation.make "r"
    ~domains:[ ("k", Domain.Int); ("v", Domain.String) ]
    [ "k"; "v" ]

(* [cardinality] controls the dictionary size and thus the pack width:
   2 distinct codes -> 1 bit, up to 65536+ -> 32 *)
let gen_text ~n ~cardinality =
  let b = Buffer.create (16 * n) in
  Buffer.add_string b "k,v\n";
  for i = 0 to n - 1 do
    if rand 10 = 0 then Buffer.add_string b ",\n"
    else
      Buffer.add_string b
        (Printf.sprintf "%d,s%d\n" (i mod cardinality) (rand cardinality))
  done;
  Buffer.contents b

let load_both text =
  match
    ( Csv.load ~mode:`Strict rel2 text,
      Reference.Csv.load ~mode:`Strict rel2 text )
  with
  | Ok (t1, _), Ok (t2, _) -> (t1, t2)
  | _ -> Alcotest.fail "csv load failed"

let check_stores_identical msg t1 t2 =
  let s1 = Column_store.of_table t1 and s2 = Column_store.of_table t2 in
  List.iter
    (fun a ->
      let c1 = Column_store.column s1 a and c2 = Column_store.column s2 a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s" msg a)
        true
        (Column_store.column_dict c1 = Column_store.column_dict c2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s" msg a)
        true
        (Column_store.column_codes c1 = Column_store.column_codes c2))
    (Table.schema t1).Relation.attrs

let test_boundary_equivalence () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:16 (fun () ->
      List.iter
        (fun n ->
          List.iter
            (fun cardinality ->
              let text = gen_text ~n ~cardinality in
              let t1, t2 = load_both text in
              check_stores_identical
                (Printf.sprintf "n=%d card=%d" n cardinality)
                t1 t2;
              (* the builder-made store really is segmented *)
              let r = Column_store.residency (Column_store.of_table t1) in
              Alcotest.(check int)
                (Printf.sprintf "n=%d: sealed count" n)
                (n / 16 * 2) (* two columns *)
                r.Column_store.sealed_segments;
              Alcotest.(check int)
                (Printf.sprintf "n=%d: tail rows" n)
                (n mod 16) r.Column_store.tail_rows)
            [ 1; 3; 12; 200 ])
        [ 0; 1; 15; 16; 17; 31; 32; 33; 47; 48; 49 ])

(* 300+ distinct values forces 16-bit segments; 66000+ forces 32-bit *)
let test_wide_dictionaries () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:64 (fun () ->
      let text = gen_text ~n:700 ~cardinality:300 in
      let t1, t2 = load_both text in
      check_stores_identical "width 16" t1 t2);
  Ooc.with_config ~segment_rows:16384 (fun () ->
      let b = Buffer.create (1 lsl 20) in
      Buffer.add_string b "k,v\n";
      for i = 0 to 69999 do
        Buffer.add_string b (Printf.sprintf "%d,w\n" i)
      done;
      let t1, t2 = load_both (Buffer.contents b) in
      check_stores_identical "width 32" t1 t2;
      let c = Column_store.column (Column_store.of_table t1) "k" in
      ignore c;
      let r = Column_store.residency (Column_store.of_table t1) in
      (* the k column needs 32-bit codes once the dictionary passes
         65536 entries *)
      Alcotest.(check bool) "a 32-bit segment exists" true
        (List.mem_assoc 32 r.Column_store.width_histogram))

(* -- spill -> mmap -> verdict round-trip ------------------------------ *)

let skew_rows n =
  List.init n (fun i ->
      [
        vi i;
        (* unique key *)
        vs (Printf.sprintf "g%d" (i mod 7));
        (* 7 groups *)
        vi (i mod 7);
        (* function of the group attr: k -> g -> h all hold *)
      ])

let test_spill_roundtrip () =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Ooc.with_config ~spill_dir:dir ~resident_budget_words:64 ~segment_rows:32
    (fun () ->
      Ooc.reset_stats ();
      let t = table "R" [ "k"; "g"; "h" ] (skew_rows 200) in
      let s = Column_store.build t in
      Column_store.ensure_columns s [ "k"; "g"; "h" ];
      (* 64 words cannot hold two 32-row segments: the encode pass
         itself must have spilled *)
      let st = Ooc.stats () in
      Alcotest.(check bool) "segments spilled" true (st.Ooc.spill_writes > 0);
      let r = Column_store.residency s in
      Alcotest.(check bool) "some segments are on disk only" true
        (r.Column_store.spilled_segments > 0);
      (* decoding a spilled column maps its segments back; the codes
         are byte-identical to a fresh in-RAM encode *)
      let codes_spilled = Column_store.column_codes (Column_store.column s "k") in
      Alcotest.(check bool) "mmap loads happened" true
        ((Ooc.stats ()).Ooc.map_loads > 0);
      let codes_ram =
        Ooc.with_config ~resident_budget_words:max_int (fun () ->
            let s2 = Column_store.build t in
            Column_store.column_codes (Column_store.column s2 "k"))
      in
      Alcotest.(check bool) "spilled codes = resident codes" true
        (codes_spilled = codes_ram);
      (* verdicts through the spilled store hold the expected verdicts *)
      let verdicts = Column_store.fd_batch s ~lhs:[ "g" ] ~rhs:[ "h"; "k" ] in
      Alcotest.(check (list (pair string bool)))
        "fd verdicts over spilled segments"
        [ ("h", true); ("k", false) ]
        verdicts;
      Alcotest.(check int) "distinct count over spilled segments" 200
        (Column_store.count_distinct s [ "k" ]))

(* -- zone-map pruning -------------------------------------------------- *)

(* sequential unique keys: every sealed segment's code interval is
   isolated and all-distinct, so a non-retaining sweep skips them all *)
let test_zone_pruning_skips () =
  Ooc.with_config ~segment_rows:16 ~zone_pruning:true (fun () ->
      let t = table "R" [ "k"; "g"; "h" ] (skew_rows 100) in
      let s = Column_store.build t in
      Column_store.ensure_columns s [ "k"; "g"; "h" ];
      Ooc.reset_stats ();
      let v = Column_store.fd_batch s ~lhs:[ "k" ] ~rhs:[ "g"; "h" ] in
      Alcotest.(check (list (pair string bool)))
        "unique lhs: all hold"
        [ ("g", true); ("h", true) ]
        v;
      let st = Ooc.stats () in
      Alcotest.(check int) "every sealed segment skipped" 6
        st.Ooc.zone_segments_skipped;
      Alcotest.(check int) "none swept" 0 st.Ooc.zone_segments_swept)

(* fuzzed: pruning on vs off must return identical verdict batches,
   including tables engineered to defeat the skip conditions (keys
   duplicated across segments, NULLs, violations hiding in the tail) *)
let test_zone_pruning_equivalence () =
  reset_lcg ();
  for round = 1 to 60 do
    let n = 20 + rand 60 in
    let kcard = 1 + rand (n + 20) in
    let rows =
      List.init n (fun i ->
          [
            (if rand 12 = 0 then vnull
             else vi (match rand 3 with 0 -> i | _ -> rand kcard));
            (if rand 12 = 0 then vnull else vs (Printf.sprintf "g%d" (rand 9)));
            vi (rand 5);
          ])
    in
    let run pruning =
      Ooc.with_config ~segment_rows:16 ~zone_pruning:pruning (fun () ->
          let t = table "R" [ "a"; "b"; "c" ] rows in
          let s = Column_store.build t in
          Column_store.ensure_columns s [ "a"; "b"; "c" ];
          ( Column_store.fd_batch s ~lhs:[ "a" ] ~rhs:[ "b"; "c" ],
            Column_store.fd_batch s ~lhs:[ "a"; "b" ] ~rhs:[ "c" ] ))
    in
    let on = run true and off = run false in
    Alcotest.(check bool)
      (Printf.sprintf "round %d: pruned verdicts = unpruned" round)
      true (on = off)
  done

(* the IND disjoint-range short-circuit is a proof, not a heuristic *)
let test_ind_short_circuit () =
  Ooc.with_config ~zone_pruning:true (fun () ->
      let l = table "L" [ "ref" ] (List.init 50 (fun i -> [ vi (1000 + i) ])) in
      let r = table "R" [ "id" ] (List.init 50 (fun i -> [ vi i ])) in
      let sl = Column_store.build l and sr = Column_store.build r in
      Ooc.reset_stats ();
      Alcotest.(check int) "disjoint ranges join to 0" 0
        (Column_store.equijoin_distinct_count sl [ "ref" ] sr [ "id" ]);
      Alcotest.(check int) "short-circuit taken" 1
        (Ooc.stats ()).Ooc.ind_zone_short_circuits;
      (* overlapping ranges take the real intersection *)
      let r2 = table "R2" [ "id" ] (List.init 50 (fun i -> [ vi (990 + i) ])) in
      let sr2 = Column_store.build r2 in
      Alcotest.(check int) "overlap counts exactly" 40
        (Column_store.equijoin_distinct_count sl [ "ref" ] sr2 [ "id" ]))

(* -- delete compaction and code reclaim ------------------------------- *)

let mod_rows n =
  List.init n (fun i ->
      [ vi (i mod 13); vs (Printf.sprintf "s%d" (i mod 5)); vi i ])

let check_equals_fresh_encode msg t s =
  let fresh = Column_store.build t in
  List.iter
    (fun a ->
      let cm = Column_store.column s a and cf = Column_store.column fresh a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s = fresh encode" msg a)
        true
        (Column_store.column_codes cm = Column_store.column_codes cf);
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s = fresh encode" msg a)
        true
        (Column_store.column_dict cm = Column_store.column_dict cf))
    (Table.schema t).Relation.attrs

let test_delete_compaction () =
  Ooc.with_config ~segment_rows:8 (fun () ->
      let attrs = [ "a"; "b"; "c" ] in
      let t = table "R" attrs (mod_rows 50) in
      let s = Column_store.of_table t in
      Column_store.ensure_columns s attrs;
      (* tail-only delete (rows 48,49 sit past the 6th sealed segment):
         counts stay exact through the tail liveness fallback *)
      Table.delete_rows t [ 48; 49 ];
      (match Column_store.refresh ~delta_fraction:1.0 t with
      | Some (Column_store.Store_absorbed 2) -> ()
      | _ -> Alcotest.fail "expected a 2-row absorb");
      Alcotest.(check int) "distinct a after tail delete" 13
        (Column_store.count_distinct s [ "a" ]);
      Alcotest.(check int) "distinct c after tail delete" 48
        (Column_store.count_distinct s [ "c" ]);
      (* the next append reclaims dead tail codes: the store is now
         exactly a fresh encode of the surviving rows *)
      Table.insert t [ vi 99; vs "s99"; vi 999 ];
      (match Column_store.refresh ~delta_fraction:1.0 t with
      | Some (Column_store.Store_absorbed 1) -> ()
      | _ -> Alcotest.fail "expected a 1-row absorb");
      check_equals_fresh_encode "after tail reclaim" t s;
      (* deep delete (row 0 lives in the first sealed segment): full
         recompaction, again identical to a fresh encode *)
      Table.delete_rows t [ 0; 20; 40 ];
      (match Column_store.refresh ~delta_fraction:1.0 t with
      | Some (Column_store.Store_absorbed 3) -> ()
      | _ -> Alcotest.fail "expected a 3-row absorb");
      check_equals_fresh_encode "after deep compaction" t s;
      Alcotest.(check int) "distinct c after deep delete" 46
        (Column_store.count_distinct s [ "c" ]))

(* fuzzed mutation bursts: after any mix of appends and deletes, the
   delta-maintained segmented store matches a fresh encode *)
let test_fuzzed_mutations () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:8 (fun () ->
      for round = 1 to 25 do
        let attrs = [ "a"; "b" ] in
        let n = 10 + rand 40 in
        let t =
          table "R" attrs
            (List.init n (fun _ ->
                 [ vi (rand 9); vs (Printf.sprintf "s%d" (rand 6)) ]))
        in
        let s = Column_store.of_table t in
        Column_store.ensure_columns s attrs;
        ignore (Column_store.count_distinct s [ "a" ]);
        for _ = 1 to 4 do
          (match rand 3 with
          | 0 ->
              Table.insert_many t
                (List.init (1 + rand 3) (fun _ ->
                     [ vi (rand 9); vs (Printf.sprintf "s%d" (rand 6)) ]))
          | 1 ->
              let m = Table.cardinality t in
              if m > 2 then
                Table.delete_rows t
                  (List.sort_uniq compare [ rand m; rand m ])
          | _ -> Table.insert t [ vi (rand 20); vs "fresh" ]);
          ignore (Column_store.refresh ~delta_fraction:1.0 t)
        done;
        check_equals_fresh_encode (Printf.sprintf "round %d" round) t s;
        (* verdicts over the mutated store match the reference *)
        let f = fd "R" [ "a" ] [ "b" ] in
        Alcotest.(check bool)
          (Printf.sprintf "round %d: fd verdict" round)
          (Reference.Fd_infer.holds_naive t f)
          (Deps.Fd_infer.holds t f)
      done)

(* -- full pipeline under a spill budget ------------------------------- *)

let artifacts_exn config db input =
  match Pipeline.run_checked ~config db input with
  | Ok r -> Dbre.Report.artifacts r
  | Error p ->
      Alcotest.failf "pipeline failed: %s" (Error.to_string p.Pipeline.p_error)

let test_pipeline_spilled_identity () =
  let spec =
    {
      Gen.default_spec with
      Gen.seed = 77L;
      rows_per_entity = 60;
      rows_per_denorm = 120;
    }
  in
  let run () =
    let g = Gen.generate spec in
    artifacts_exn
      { Pipeline.default_config with Pipeline.engine = Engine.default }
      g.Gen.db
      (Job_spec.Equijoins g.Gen.equijoins)
  in
  let in_ram = run () in
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spilled =
    Ooc.with_config ~spill_dir:dir ~resident_budget_words:512 ~segment_rows:16
      (fun () ->
        Ooc.reset_stats ();
        run ())
  in
  Alcotest.(check bool) "the spilled run actually spilled" true
    ((Ooc.stats ()).Ooc.spill_writes > 0);
  Alcotest.(check (list (pair string string)))
    "artifacts byte-identical across the spill threshold" in_ram spilled

let suite =
  [
    Alcotest.test_case "segment boundaries: builder = reference" `Quick
      test_boundary_equivalence;
    Alcotest.test_case "16/32-bit dictionaries" `Quick test_wide_dictionaries;
    Alcotest.test_case "spill -> mmap round-trip" `Quick test_spill_roundtrip;
    Alcotest.test_case "zone maps skip isolated-key segments" `Quick
      test_zone_pruning_skips;
    Alcotest.test_case "pruned verdicts = unpruned (fuzzed)" `Quick
      test_zone_pruning_equivalence;
    Alcotest.test_case "IND disjoint-range short-circuit" `Quick
      test_ind_short_circuit;
    Alcotest.test_case "delete compaction = fresh encode" `Quick
      test_delete_compaction;
    Alcotest.test_case "fuzzed mutations = fresh encode" `Quick
      test_fuzzed_mutations;
    Alcotest.test_case "pipeline artifacts identical across spill" `Quick
      test_pipeline_spilled_identity;
  ]
