(* Incremental re-verification: delta-maintained column stores must be
   observationally identical to recomputing from scratch. Fuzzed
   insert / delete / batch-append sequences over generated workloads
   assert that a [Pipeline.refresh_checked] after mutation yields
   byte-identical F/H/IND/RIC artifacts to a cold run over the same
   mutated extension — on both sides of the rebuild-fallback
   threshold — plus pinned verdict-flip cases: an FD
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
   append (of 1-3 rows, or [burst] rows), a single insert, then a small
   delete. Deterministic in (rng seed, extension), so an identical
   database can replay it. *)
let mutate ?burst rng db names =
  List.iter
    (fun name ->
      let t = Database.table db name in
      let n = match burst with Some n -> n | None -> 1 + Rng.int rng 3 in
      let batch = List.init n (fun _ -> sample_row rng t) in
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
let check_refresh_equivalence ?burst ~msg config seed =
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
  mutate ?burst (Rng.create mut_seed) g.Gen.db names;
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
  mutate ?burst (Rng.create mut_seed) h.Gen.db names;
  List.iter (fun n -> Column_store.drop_memos (Table.store (Database.table h.Gen.db n))) names;
  let cold = artifacts_exn config h.Gen.db input in
  Alcotest.(check (list (pair string string))) msg cold refreshed;
  report

let test_fuzz_columnar () =
  List.iter
    (fun seed ->
      let report =
        check_refresh_equivalence
          ~msg:(Printf.sprintf "artifacts (seed %Ld)" seed)
          Pipeline.default_config seed
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

(* the same fuzzed refresh over segmented stores: 16-row segments put
   every delta across segment boundaries *)
let test_fuzz_segmented () =
  Ooc.with_config ~segment_rows:16 (fun () ->
      ignore
        (check_refresh_equivalence ~msg:"artifacts (16-row segments)"
           Pipeline.default_config 11L))

(* the same workload on both sides of the fallback threshold: the
   default burst stays within the fraction and every delta is absorbed,
   a burst as large as the largest table exceeds a quarter of every
   table and every store rebuilds — and the artifacts are identical
   either way *)
let test_fallback_threshold () =
  Column_store.reset_delta_stats ();
  let absorb =
    check_refresh_equivalence ~msg:"artifacts (absorb side)"
      Pipeline.default_config 31L
  in
  Alcotest.(check int) "small burst: no rebuilds" 0 absorb.Refresh.rebuilt;
  Alcotest.(check bool) "small burst: absorbed" true
    (absorb.Refresh.absorbed >= 1);
  let stats = Column_store.delta_stats () in
  Alcotest.(check bool) "incremental counter moved" true
    (stats.Column_store.incremental_refreshes >= 1);
  Alcotest.(check bool) "absorbed rows counted" true
    (stats.Column_store.rows_absorbed >= absorb.Refresh.rows_applied);
  let burst =
    let db = (Gen.generate (gen_spec 31L)).Gen.db in
    List.fold_left
      (fun acc r -> max acc (Database.cardinality db r.Relation.name))
      0
      (Schema.relations (Database.schema db))
  in
  let rebuild =
    check_refresh_equivalence ~burst ~msg:"artifacts (rebuild side)"
      Pipeline.default_config 31L
  in
  Alcotest.(check int) "large burst: no absorbs" 0 rebuild.Refresh.absorbed;
  Alcotest.(check bool) "large burst: rebuilt" true
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
      ([
         [ vi 1; vs "x"; vi 10 ];
         [ vi 1; vs "x"; vi 20 ];
         [ vi 2; vs "y"; vi 30 ];
         [ vi 3; vs "z"; vi 40 ];
       ]
      (* padding with fresh a-values keeps the 2-row deltas below within
         the fraction *)
      @ List.init 8 (fun i -> [ vi (100 + i); vs "p"; vi (100 + i) ]))
  in
  let f = fd "R" [ "a" ] [ "b" ] in
  Alcotest.(check bool) "a -> b holds before" true (Fd_infer.holds t f);
  (* harmless append: new group, then a repeat of an existing pair *)
  Table.insert t [ vi 4; vs "w"; vi 50 ];
  Table.insert t [ vi 1; vs "x"; vi 60 ];
  (match Column_store.refresh_all [ Table.store t ] with
  | [ Some (Column_store.Store_absorbed n) ] ->
      Alcotest.(check int) "two appended rows absorbed" 2 n
  | _ -> Alcotest.fail "expected an incremental absorb");
  Alcotest.(check bool) "still holds after harmless appends" true
    (Fd_infer.holds t f);
  (* breaking append: a=1 now maps to two b values *)
  Table.insert t [ vi 1; vs "DIFFERENT"; vi 70 ];
  Alcotest.(check bool) "flips to false incrementally" false
    (Fd_infer.holds t f);
  Alcotest.(check bool) "reference agrees" false
    (Reference.Fd_infer.holds_naive t f)

(* RHS equality is code equality, on the full sweep and on the delta
   re-check alike: [Int 1] and [Float 1.0] intern to different codes
   (as they key differently in the reference's hashtable), so an
   appended [(1, Float 1.0)] breaks [a -> b] even though
   [Value.equal] calls the two values equal *)
let test_fd_int_float_rhs () =
  let rows = [ vi 1; vi 1 ] :: List.init 39 (fun i -> [ vi (i + 2); vi 5 ]) in
  let t = table "r" [ "a"; "b" ] rows in
  let check_fd msg expected =
    Alcotest.(check (list (pair string bool)))
      msg
      [ ("b", expected) ]
      (Column_store.fd_batch (Table.store t) ~lhs:[ "a" ]
         ~rhs:[ "b" ])
  in
  check_fd "a -> b holds before" true;
  Table.insert t [ vi 1; Value.Float 1.0 ];
  (match Column_store.refresh_all [ Table.store t ] with
  | [ Some (Column_store.Store_absorbed 1) ] -> ()
  | _ -> Alcotest.fail "expected the one-row append to be absorbed");
  check_fd "delta re-check refutes a -> b" false;
  Alcotest.(check (list (pair string bool)))
    "a cold store agrees"
    [ ("b", false) ]
    (Column_store.fd_batch (cold_store t) ~lhs:[ "a" ] ~rhs:[ "b" ]);
  Alcotest.(check bool) "the reference agrees" false
    (Reference.Fd_infer.holds_naive t (fd "r" [ "a" ] [ "b" ]))

(* ---------- operation sequences against the reference ---------- *)

(* Seeded random sequences of appends, tail deletes, sealed deletes and
   FD batches on one delta-maintained store with 16-row segments. Every
   batch verdict is checked against the reference, and after every
   step the store's columns must equal a fresh encode of the current
   rows. Each round opens with the order a retained sweep must
   survive: values first seen in the tail are appended, one of them is
   deleted, a sweep runs, and an append brings the others back.

   A second table T(a, d) mutates alongside S: each of S's 25 random
   draws is followed by one of T's (append, tail delete, sealed delete,
   or new keys appended to both tables). After every step both
   stores are refreshed together ([Column_store.refresh_all]), and the
   IND counts of S[a] ⋈ T[a] and S[a, d] ⋈ T[a, d] — distinct counts,
   witnesses and join counts, whose memos the refresh patches on codes
   — must equal the reference's, also when one step adds the same new
   key to both tables. *)
let seq_attrs = [ "a"; "b"; "c"; "d" ]
let seq_lhss = [ [ "a" ]; [ "b" ]; [ "c" ]; [ "a"; "b" ]; [ "b"; "d" ] ]

(* One row of S(a, b, c, d): c = 10 (a mod 7) and d = b, so a -> c,
   b -> d and ab -> c hold on the initial rows. Appended rows may break
   them: c by noise, d by a Float spelling of the same number (a
   different value). Appended a-values are often brand-new to the round
   ([fresh] counts them) or one of the three newest, so values first
   seen in the tail recur, while their c-values are old ones: a delete
   renumbers the tail's a-codes but not its c-codes. *)
let seq_row rng ~appended fresh =
  let a =
    match Rng.int rng 5 with
    | (0 | 1) when appended ->
        incr fresh;
        100 + !fresh
    | 2 when appended && !fresh > 0 ->
        100 + !fresh - Rng.int rng (min 3 !fresh)
    | _ -> Rng.int rng 7
  in
  let b = Rng.int rng 4 in
  [
    (if Rng.chance rng 0.1 then vnull else vi a);
    (if Rng.chance rng 0.1 then vnull else vs (Printf.sprintf "s%d" b));
    vi (if appended && Rng.chance rng 0.2 then Rng.int rng 1000 else a mod 7 * 10);
    (if Rng.chance rng 0.08 then vnull
     else if appended && Rng.chance rng 0.05 then Value.Float (float_of_int b)
     else vi b);
  ]

(* T's rows: an S row's a and d *)
let t_row rng ~appended fresh =
  match seq_row rng ~appended fresh with
  | [ a; _; _; d ] -> [ a; d ]
  | _ -> assert false

let ind_probes = [ ("a", [ "a" ]); ("a,d", [ "a"; "d" ]) ]

let test_sequence_fuzz () =
  let rng = Rng.create 4243L in
  (* T draws from its own stream, so S's operation mix is unchanged *)
  let trng = Rng.create 8485L in
  let seg = 16 in
  Ooc.with_config ~segment_rows:seg (fun () ->
      for round = 1 to 12 do
        let fresh = ref 0 in
        let db =
          database
            [
              ( Relation.make "S" seq_attrs,
                List.init (seg + Rng.int rng 40) (fun _ ->
                    seq_row rng ~appended:false fresh) );
              ( Relation.make "T" [ "a"; "d" ],
                List.init (seg + Rng.int trng 40) (fun _ ->
                    t_row trng ~appended:false fresh) );
            ]
        in
        let t = Database.table db "S" and tt = Database.table db "T" in
        let store () = Table.store t in
        let step = ref 0 in
        let ctx () =
          Printf.sprintf "round %d, step %d" round !step
        in
        let batch lhs =
          let others = List.filter (fun a -> not (List.mem a lhs)) seq_attrs in
          let rhs =
            Rng.sample rng (Rng.int_in rng 1 (List.length others)) others
          in
          List.iter
            (fun (a, v) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s -> %s" (ctx ())
                   (String.concat "," lhs) a)
                (Reference.Fd_infer.holds_naive t (fd "S" lhs [ a ]))
                v)
            (Column_store.fd_batch (store ()) ~lhs ~rhs)
        in
        let append_to rng t row () =
          Table.insert_many t
            (List.init (Rng.int_in rng 1 5) (fun _ ->
                 row rng ~appended:true fresh))
        in
        let n_sealed t = Table.cardinality t / seg * seg in
        let tail_delete rng t () =
          let n = Table.cardinality t and ns = n_sealed t in
          if n > ns then
            Table.delete_rows t
              (List.sort_uniq compare
                 (List.init (Rng.int_in rng 1 2) (fun _ ->
                      Rng.int_in rng ns (n - 1))))
        in
        let sealed_delete rng t () =
          if n_sealed t > 0 then
            Table.delete_rows t [ Rng.int rng (n_sealed t) ]
        in
        let append = append_to rng t seq_row in
        (* refresh both stores together, then the IND counts: the join
           memos computed after the previous step are the patched ones *)
        let check_inds () =
          ignore (Column_store.refresh_all [ Table.store t; Table.store tt ]);
          let probes =
            List.map (fun (_, attrs) -> (("S", attrs), ("T", attrs))) ind_probes
          in
          List.iter2
            (fun (name, attrs) (c : Verify_plan.counts) ->
              let want =
                Reference.Counts.ind_counts db ("S", attrs) ("T", attrs)
              in
              Alcotest.(check (triple int int int))
                (Printf.sprintf "%s: S[%s] |X| T[%s]" (ctx ()) name name)
                (want.Verify_plan.n_left, want.n_right, want.n_join)
                (c.Verify_plan.n_left, c.n_right, c.n_join);
              List.iter
                (fun (rel, tbl) ->
                  Alcotest.(check int)
                    (Printf.sprintf "%s: %s[%s] witnesses" (ctx ()) rel name)
                    (reference_witnesses tbl attrs)
                    (Column_store.witness_count (Table.store tbl) attrs))
                [ ("S", t); ("T", tt) ])
            ind_probes
            (Verify_plan.ind_batch db probes)
        in
        let check_encoding () =
          let cold = cold_store t and s = store () in
          List.iter
            (fun a ->
              let cm = Column_store.column s a
              and cf = Column_store.column cold a in
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s = fresh encode" (ctx ()) a)
                true
                (Column_store.column_dict cm = Column_store.column_dict cf
                && Column_store.column_codes cm = Column_store.column_codes cf))
            seq_attrs
        in
        (* four brand-new a-values, then the oldest of them deleted *)
        let new_values () =
          Table.insert_many t
            (List.init 4 (fun _ ->
                 incr fresh;
                 let a = 100 + !fresh in
                 [ vi a; vs "s0"; vi (a mod 7 * 10); vi 0 ]))
        in
        let delete_oldest_new () =
          Table.delete_rows t [ Table.cardinality t - 4 ]
        in
        (* brand-new values appended to both tables at once: keys both
           refreshed sides add, which the join patch must count once *)
        let shared_new () =
          let vals =
            List.init (Rng.int_in trng 1 3) (fun _ ->
                incr fresh;
                100 + !fresh)
          in
          Table.insert_many t
            (List.map (fun a -> [ vi a; vs "s0"; vi (a mod 7 * 10); vi 0 ]) vals);
          Table.insert_many tt (List.map (fun a -> [ vi a; vi 0 ]) vals)
        in
        let ops =
          [
            new_values;
            delete_oldest_new;
            (fun () -> List.iter batch seq_lhss);
            append;
          ]
          (* 25 S draws over S's six arms, each followed by one T
             draw *)
          @ List.concat
              (List.init 25 (fun _ ->
                   let s_op =
                     match Rng.int rng 6 with
                     | 0 | 1 -> append
                     | 2 -> tail_delete rng t
                     | 3 -> sealed_delete rng t
                     | _ -> fun () -> batch (Rng.pick rng seq_lhss)
                   in
                   let t_op =
                     match Rng.int trng 4 with
                     | 0 -> append_to trng tt t_row
                     | 1 -> tail_delete trng tt
                     | 2 -> sealed_delete trng tt
                     | _ -> shared_new
                   in
                   [ s_op; t_op ]))
        in
        List.iter
          (fun op ->
            incr step;
            op ();
            check_inds ();
            check_encoding ())
          ops;
        List.iter batch seq_lhss
      done)

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

(* ---------- the mutation window ---------- *)

(* versions count mutations; a store nothing was asked of has no window
   to report, and once a memo watches it, the mutations up to the next
   refresh are reported together *)
let test_mutation_window () =
  let rows = List.init 20 (fun i -> [ vi i; vi (i mod 3) ]) in
  let t = table "T" [ "a"; "b" ] rows in
  let s = Table.store t in
  let v0 = Table.version t in
  Table.insert_many t [ [ vi 20; vi 0 ]; [ vi 21; vi 1 ] ];
  Alcotest.(check int) "one version bump per batch" (v0 + 1) (Table.version t);
  Alcotest.(check bool) "an unwatched store reports nothing" true
    (Column_store.refresh_all [ s ] = [ None ]);
  Alcotest.(check int) "a memo watches it" 22 (Column_store.count_distinct s [ "a"; "b" ]);
  Alcotest.(check bool) "no mutation since" true
    (Column_store.refresh_all [ s ] = [ Some Column_store.Store_fresh ]);
  Table.insert t [ vi 22; vi 2 ];
  Table.delete_rows t [ 0 ];
  Alcotest.(check int) "one bump per mutation" (v0 + 3) (Table.version t);
  Alcotest.(check bool) "both mutations reported together" true
    (Column_store.refresh_all [ s ] = [ Some (Column_store.Store_absorbed 2) ]);
  Alcotest.(check bool) "the window closed" true
    (Column_store.refresh_all [ s ] = [ Some Column_store.Store_fresh ]);
  Alcotest.(check int) "the patched memo is exact" 22
    (Column_store.count_distinct s [ "a"; "b" ]);
  Alcotest.(check value_rows) "rows" (List.tl rows @ [ [ vi 20; vi 0 ]; [ vi 21; vi 1 ]; [ vi 22; vi 2 ] ])
    (Table.to_lists t)

(* a window past the fraction drops the memos instead of patching them:
   the store still answers exactly, and reports the drop *)
let test_fraction_drops_memos () =
  let t = Table.create (Relation.make "T" [ "a"; "b" ]) in
  Table.insert_many t (List.init 2000 (fun i -> [ vi i; vi (i mod 7) ]));
  let s = Table.store t in
  Alcotest.(check (list (pair string bool))) "a -> b" [ ("b", true) ]
    (Column_store.fd_batch s ~lhs:[ "a" ] ~rhs:[ "b" ]);
  Alcotest.(check int) "a, b distinct" 2000 (Column_store.count_distinct s [ "a"; "b" ]);
  Column_store.reset_delta_stats ();
  Table.delete_rows t (List.init 1500 Fun.id);
  Alcotest.(check int) "distinct a after the delete" 500
    (Column_store.count_distinct s [ "a" ]);
  Alcotest.(check int) "distinct a, b recomputed" 500
    (Column_store.count_distinct s [ "a"; "b" ]);
  Alcotest.(check bool) "reported rebuilt" true
    (Column_store.refresh_all [ s ] = [ Some Column_store.Store_rebuilt ]);
  Alcotest.(check int) "rebuild counted" 1 (Column_store.delta_stats ()).Column_store.full_rebuilds

(* deleting the rows that brought new values cuts them from the
   dictionary and from the intern table appends and join counts probe:
   many keys, so the table's probe runs are long and interleaved, then
   every other one comes back *)
(* [t]'s column [a] is exactly a fresh encode of its rows, and a join
   count probing it through its intern table agrees with the reference *)
let check_column what t probe =
  let cold = cold_store t in
  Alcotest.(check bool)
    (what ^ ": codes and dictionary = fresh encode")
    true
    (Column_store.column_codes (Column_store.column (Table.store t) "a")
     = Column_store.column_codes (Column_store.column cold "a")
    && Column_store.column_dict (Column_store.column (Table.store t) "a")
       = Column_store.column_dict (Column_store.column cold "a"));
  Alcotest.(check int)
    (what ^ ": join count")
    (Reference.Counts.equijoin_distinct_count probe [ "a" ] t [ "a" ])
    (Column_store.equijoin_distinct_count (Table.store probe) [ "a" ] (Table.store t) [ "a" ])

let test_tail_delete_keeps_interner_exact () =
  let key i = if i mod 3 = 0 then vs (Printf.sprintf "k%d" i) else if i mod 3 = 1 then vi (i * 7919) else Value.Float (float_of_int i) in
  let t = table "T" [ "a" ] (List.init 50 (fun i -> [ key i ])) in
  (* fewer values than [t]: the join count walks them and probes [t] *)
  let probe = table "P" [ "a" ] (List.init 30 (fun i -> [ key (i * 13) ])) in
  for round = 1 to 3 do
    let what = Printf.sprintf "round %d" round in
    (* a delete of the tail's last rows drops the newest codes *)
    Table.insert_many t (List.init 300 (fun i -> [ key (50 + i) ]));
    Table.delete_rows t (List.init 300 (fun i -> 50 + i));
    Table.insert_many t (List.init 150 (fun i -> [ key (50 + (2 * i)) ]));
    check_column (what ^ ", after a suffix delete") t probe;
    (* one inside the tail renumbers the survivors; with repeated
       values, a first occurrence can move past another's *)
    Table.insert_many t (List.init 90 (fun i -> [ key (50 + (i mod 40)) ]));
    Table.delete_rows t (List.init 75 (fun i -> 50 + (2 * i)) @ List.init 20 (fun i -> 200 + i));
    check_column (what ^ ", after a renumbering delete") t probe;
    (* appends find the renumbered codes, and intern the dropped values
       afresh *)
    Table.insert_many t (List.init 60 (fun i -> [ key (50 + (3 * i)) ]));
    check_column (what ^ ", after appending again") t probe;
    Table.delete_rows t (List.init (Table.cardinality t - 50) (fun i -> 50 + i))
  done

(* appends to a loaded column, which has no intern table: the first
   read the dictionary, later ones build and use the table, and every
   one agrees with a fresh encode *)
let test_append_to_loaded_column () =
  let rel = Relation.make "T" [ "a" ] in
  let text = "a\n" ^ String.concat "\n" (List.init 40 (fun i -> if i mod 2 = 0 then string_of_int i else "s" ^ string_of_int i)) ^ "\n" in
  let t = match Csv.load rel text with Ok (t, _) -> t | Error _ -> Alcotest.fail "load" in
  let probe = table "P" [ "a" ] (List.init 10 (fun i -> [ vi (4 * i) ])) in
  let values = [ vi 6; vs "s7"; vi 1000; Value.Null; vs "new"; vi 6; Value.Float 2.5; vs "new"; vi 38 ] in
  List.iteri
    (fun i v ->
      Table.insert t [ v ];
      check_column (Printf.sprintf "append %d" (i + 1)) t probe)
    (values @ values)

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
  Alcotest.(check value_rows) "rows unchanged" [ [ vi 1; vi 2 ] ] (Table.to_lists t)

let suite =
  [
    Alcotest.test_case "fuzzed refresh = cold recompute (columnar)" `Quick
      test_fuzz_columnar;
    Alcotest.test_case "fuzzed refresh = cold recompute (segmented)" `Quick
      test_fuzz_segmented;
    Alcotest.test_case "identical across the fallback threshold" `Quick
      test_fallback_threshold;
    Alcotest.test_case "FD broken by insert flips incrementally" `Quick
      test_fd_broken_by_insert;
    Alcotest.test_case "Int/Float RHS on the delta path" `Quick
      test_fd_int_float_rhs;
    Alcotest.test_case "operation sequences = reference"
      `Quick test_sequence_fuzz;
    Alcotest.test_case "IND broken by delete flips via refresh" `Quick
      test_ind_broken_by_delete;
    Alcotest.test_case "mutation window semantics" `Quick test_mutation_window;
    Alcotest.test_case "past the fraction memos are dropped" `Quick
      test_fraction_drops_memos;
    Alcotest.test_case "a tail delete keeps its intern table exact" `Quick
      test_tail_delete_keeps_interner_exact;
    Alcotest.test_case "appends to a loaded column = fresh encode" `Quick
      test_append_to_loaded_column;
    Alcotest.test_case "insert_many is transactional" `Quick
      test_insert_many_transactional;
  ]
