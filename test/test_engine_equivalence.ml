(* Randomized equivalence suite: the library's one implementation of
   each extension primitive — FD satisfaction (single and batched), key
   checks, distinct counting, equi-join distinct counting, IND batches
   and CSV loading — must agree with the row-at-a-time [Reference]
   implementations, at 1, 2 and 4 domains, including on NULL-heavy
   extensions, and the memoized stores must never serve stale answers
   after an insert.

   Deterministic by construction: tables come from Workload.Rng streams
   and the schema-level cases from Workload.Gen_schema, both seeded. *)

open Helpers
open Relational
open Deps
module Rng = Workload.Rng

let engines =
  [
    ("1 domain", Engine.default);
    ("2 domains", Engine.parallel ~domains:2 ());
    ("4 domains", Engine.parallel ~domains:4 ());
  ]

let random_rows rng ~null_rate attrs n_rows =
  List.init n_rows (fun _ ->
      List.mapi
        (fun i _ ->
          if Rng.chance rng null_rate then Value.Null
          else if i mod 2 = 0 then Value.Int (Rng.int rng 4)
          else Value.String (Rng.pick rng [ "x"; "y"; "z" ]))
        attrs)

(* random table over [attrs]: small value pools so duplicates, shared
   projections and accidental dependencies are common; [null_rate]
   cranks up the NULL density for the NULL-semantics cases. Returns a
   maker, so every engine answers from its own cold store. About half
   the tables go through [Csv.load], so the store arrives fully encoded
   by the Builder; the rest insert row by row, so nothing is encoded
   until the first check. *)
let random_table rng ?(null_rate = 0.15) name attrs n_rows =
  let rows = random_rows rng ~null_rate attrs n_rows in
  let via_csv = Rng.bool rng in
  fun () ->
    let t = table name attrs rows in
    if not via_csv then t
    else
      match Csv.load (Table.schema t) (Csv.dump_table t) with
      | Ok (loaded, None) -> loaded
      | Ok (_, Some _) | Error _ -> Alcotest.fail "dump/load round-trip"

let random_subset rng attrs =
  let k = Rng.int_in rng 1 (min 3 (List.length attrs)) in
  List.sort String.compare (Rng.sample rng k attrs)

let attrs5 = [ "a"; "b"; "c"; "d"; "e" ]

let db_of tables =
  let db =
    Database.create (Schema.of_relations (List.map Table.schema tables))
  in
  List.iter (Database.replace_table db) tables;
  db

(* ---------- holds ---------- *)

let test_holds_agree () =
  let rng = Rng.create 7L in
  for round = 1 to 40 do
    let null_rate = if round mod 2 = 0 then 0.4 else 0.1 in
    let mk = random_table rng ~null_rate "T" attrs5 (Rng.int_in rng 0 40) in
    let t = mk () in
    let per_engine = List.map (fun (name, engine) -> (name, engine, mk ())) engines in
    for _ = 1 to 6 do
      let lhs = random_subset rng attrs5 in
      let rest = List.filter (fun a -> not (List.mem a lhs)) attrs5 in
      if rest <> [] then begin
        let f = fd "T" lhs [ Rng.pick rng rest ] in
        let expected = Reference.Fd_infer.holds_naive t f in
        List.iter
          (fun (name, engine, t) ->
            Alcotest.(check bool)
              (Printf.sprintf "round %d: %s on %s" round name (Fd.to_string f))
              expected
              (Fd_infer.holds ~engine t f))
          per_engine
      end
    done
  done

(* ---------- holds_all / fd_group ---------- *)

let test_holds_all_agree () =
  let rng = Rng.create 5L in
  for round = 1 to 40 do
    let null_rate = if round mod 2 = 0 then 0.5 else 0.1 in
    let mk = random_table rng ~null_rate "T" attrs5 (Rng.int_in rng 0 60) in
    let t = mk () in
    let lhs = random_subset rng attrs5 in
    let rhs = List.filter (fun a -> not (List.mem a lhs)) attrs5 in
    let expected =
      List.map (fun a -> (a, Reference.Fd_infer.holds_naive t (fd "T" lhs [ a ]))) rhs
    in
    List.iter
      (fun (name, engine) ->
        Alcotest.(check (list (pair string bool)))
          (Printf.sprintf "round %d: holds_all %s via %s" round
             (String.concat "," lhs) name)
          expected
          (Fd_infer.holds_all ~engine (mk ()) ~lhs ~rhs);
        Alcotest.(check (list (pair string bool)))
          (Printf.sprintf "round %d: fd_group %s via %s" round
             (String.concat "," lhs) name)
          expected
          (Verify_plan.fd_group ~engine (mk ()) ~lhs ~rhs))
      engines
  done

(* ---------- count_distinct ---------- *)

let test_count_distinct_agree () =
  let rng = Rng.create 11L in
  for round = 1 to 40 do
    let null_rate = if round mod 2 = 0 then 0.5 else 0.05 in
    let mk = random_table rng ~null_rate "T" attrs5 (Rng.int_in rng 0 50) in
    let t = mk () in
    let per_engine =
      List.map (fun (name, engine) -> (name, engine, db_of [ mk () ])) engines
    in
    for _ = 1 to 4 do
      let attrs = random_subset rng attrs5 in
      let expected = Reference.Counts.count_distinct t attrs in
      List.iter
        (fun (name, engine, db) ->
          Alcotest.(check int)
            (Printf.sprintf "round %d: ||T[%s]|| via %s" round
               (String.concat "," attrs) name)
            expected
            (Database.count_distinct ~engine db "T" attrs))
        per_engine
    done
  done

(* ---------- join_count and ind_batch ---------- *)

let test_join_count_agree () =
  let rng = Rng.create 13L in
  let attrs_l = [ "a"; "b"; "c" ] and attrs_r = [ "u"; "v"; "w"; "x" ] in
  for round = 1 to 40 do
    let null_rate = if round mod 2 = 0 then 0.4 else 0.1 in
    let mk1 = random_table rng ~null_rate "L" attrs_l (Rng.int_in rng 0 40) in
    let mk2 = random_table rng ~null_rate "R" attrs_r (Rng.int_in rng 0 40) in
    let t1 = mk1 () and t2 = mk2 () in
    let per_engine =
      List.map
        (fun (name, engine) -> (name, engine, db_of [ mk1 (); mk2 () ]))
        engines
    in
    for _ = 1 to 4 do
      let k = Rng.int_in rng 1 2 in
      let a1 = Rng.sample rng k attrs_l and a2 = Rng.sample rng k attrs_r in
      let expected = Reference.Counts.equijoin_distinct_count t1 a1 t2 a2 in
      List.iter
        (fun (name, engine, db) ->
          Alcotest.(check int)
            (Printf.sprintf "round %d: ||L[%s] ⋈ R[%s]|| via %s" round
               (String.concat "," a1) (String.concat "," a2) name)
            expected
            (Database.join_count ~engine db ("L", a1) ("R", a2)))
        per_engine
    done
  done

let counts_t =
  Alcotest.testable
    (fun ppf (c : Verify_plan.counts) ->
      Format.fprintf ppf "{%d,%d,%d}" c.Verify_plan.n_left c.n_right c.n_join)
    ( = )

let test_ind_batch_agree () =
  let rng = Rng.create 19L in
  let attrs_l = [ "a"; "b"; "c" ] and attrs_r = [ "u"; "v"; "w"; "x" ] in
  for round = 1 to 30 do
    let null_rate = if round mod 2 = 0 then 0.4 else 0.1 in
    let mk1 = random_table rng ~null_rate "L" attrs_l (Rng.int_in rng 0 40) in
    let mk2 = random_table rng ~null_rate "R" attrs_r (Rng.int_in rng 0 40) in
    let db = db_of [ mk1 (); mk2 () ] in
    let probes =
      List.init 5 (fun _ ->
          let k = Rng.int_in rng 1 2 in
          let l = ("L", Rng.sample rng k attrs_l)
          and r = ("R", Rng.sample rng k attrs_r) in
          if Rng.bool rng then (l, r) else (r, l))
    in
    let expected =
      List.map (fun (l, r) -> Reference.Counts.ind_counts db l r) probes
    in
    List.iter
      (fun (name, engine) ->
        Alcotest.(check (list counts_t))
          (Printf.sprintf "round %d: ind_batch via %s" round name)
          expected
          (Verify_plan.ind_batch ~engine (db_of [ mk1 (); mk2 () ]) probes))
      engines
  done

(* ---------- key checks ---------- *)

let test_unique_agree () =
  let rng = Rng.create 17L in
  for round = 1 to 30 do
    let mk = random_table rng ~null_rate:0.2 "T" attrs5 (Rng.int_in rng 0 30) in
    let attrs = random_subset rng attrs5 in
    let expected = Reference.Counts.unique_over_rows (mk ()) attrs in
    List.iter
      (fun (name, engine) ->
        Alcotest.(check bool)
          (Printf.sprintf "round %d: unique(%s) via %s" round
             (String.concat "," attrs) name)
          expected
          (Key_infer.unique_over ~engine (mk ()) attrs))
      engines
  done

(* ---------- CSV load ---------- *)

let rel_csv =
  Relation.make "r"
    ~domains:[ ("a", Domain.Int); ("b", Domain.String) ]
    [ "a"; "b"; "c" ]

let show = function
  | Ok (t, rep) ->
      Printf.sprintf "OK rows=%s report=%s"
        (String.concat ";"
           (List.map
              (fun row -> String.concat "," (List.map Value.to_string row))
              (Table.to_lists t)))
        (match rep with None -> "none" | Some rep -> Quarantine.to_string rep)
  | Error e -> "ERR " ^ Error.to_string e

let test_csv_load_agree () =
  let rng = Rng.create 31L in
  let cells = [ "1"; "2"; "-3"; ""; "x"; "\"q,q\""; "bad"; "4.5" ] in
  for round = 1 to 60 do
    let rows =
      List.init (Rng.int_in rng 0 30) (fun _ ->
          let w = if Rng.chance rng 0.05 then 4 else 3 in
          String.concat "," (List.init w (fun _ -> Rng.pick rng cells)))
    in
    let text = String.concat "\n" ("a,b,c" :: rows) ^ "\n" in
    List.iter
      (fun mode ->
        let expected = show (Reference.Csv.load ~mode rel_csv text) in
        List.iter
          (fun (name, engine) ->
            Alcotest.(check string)
              (Printf.sprintf "round %d: Csv.load via %s" round name)
              expected
              (show
                 (Csv.load ~mode ?pool:(Engine.pool engine)
                    ~min_parallel_bytes:16 rel_csv text)))
          engines)
      [ `Strict; `Quarantine ]
  done

(* ---------- encode-first: a store over row-inserted tables ---------- *)

(* a table built by [Table.insert] has a store with no encoded column;
   [fd_batch] encodes what it touches, then sweeps codes. Its verdicts,
   and the verdicts re-checked against the retained sweep state after
   an append, must equal the reference *)
let test_encode_first_agree () =
  let rng = Rng.create 37L in
  for round = 1 to 30 do
    let null_rate = if round mod 2 = 0 then 0.4 else 0.1 in
    let rows = random_rows rng ~null_rate attrs5 in
    let t = table "T" attrs5 (rows (Rng.int_in rng 0 40)) in
    let lhs = random_subset rng attrs5 in
    let rhs = List.filter (fun a -> not (List.mem a lhs)) attrs5 in
    let reference () =
      List.map
        (fun a -> (a, Reference.Fd_infer.holds_naive t (fd "T" lhs [ a ])))
        rhs
    in
    let store = Column_store.of_table t in
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "round %d: fresh store verdicts" round)
      (reference ())
      (Column_store.fd_batch store ~lhs ~rhs);
    Table.insert_many t (rows (Rng.int_in rng 1 6));
    (* absorb in place, so true verdicts are re-checked against the
       retained sweep state rather than recomputed *)
    (match Column_store.refresh ~delta_fraction:1.0 t with
    | Some (Column_store.Store_absorbed _) -> ()
    | _ -> Alcotest.failf "round %d: expected an in-place absorb" round);
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "round %d: verdicts after append" round)
      (reference ())
      (Column_store.fd_batch (Column_store.of_table t) ~lhs ~rhs)
  done

(* ---------- cache invalidation ---------- *)

(* the memoized store must never serve a pre-insert answer: query,
   mutate the table, query again and compare with the reference *)
let test_cache_invalidation () =
  let rng = Rng.create 23L in
  for round = 1 to 30 do
    let t = random_table rng ~null_rate:0.3 "T" attrs5 (Rng.int_in rng 1 30) () in
    let db = db_of [ t ] in
    let attrs = random_subset rng attrs5 in
    let f = fd "T" [ List.hd attrs5 ] [ List.nth attrs5 1 ] in
    (* warm every cache layer: distinct set, verdict, witness count *)
    ignore (Database.count_distinct db "T" attrs);
    ignore (Fd_infer.holds t f);
    ignore (Key_infer.unique_over t attrs);
    (* mutate: either a brand-new row or a duplicate of an existing one *)
    let row =
      if Rng.bool rng then
        List.mapi
          (fun i _ -> if i mod 2 = 0 then Value.Int (Rng.int rng 4) else Value.Null)
          attrs5
      else List.nth (Table.to_lists t) (Rng.int rng (Table.cardinality t))
    in
    Database.insert db "T" row;
    Alcotest.(check int)
      (Printf.sprintf "round %d: count after insert" round)
      (Reference.Counts.count_distinct t attrs)
      (Database.count_distinct db "T" attrs);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: holds after insert" round)
      (Reference.Fd_infer.holds_naive t f)
      (Fd_infer.holds t f);
    Alcotest.(check bool)
      (Printf.sprintf "round %d: unique after insert" round)
      (Reference.Counts.unique_over_rows t attrs)
      (Key_infer.unique_over t attrs)
  done

(* cross-store staleness: the join-count cache keys on the peer store's
   identity, so a peer insert must invalidate the pair *)
let test_join_cache_invalidation () =
  let rng = Rng.create 29L in
  for round = 1 to 20 do
    let t1 = random_table rng ~null_rate:0.2 "L" [ "a"; "b" ] 15 () in
    let t2 = random_table rng ~null_rate:0.2 "R" [ "u"; "v" ] 15 () in
    let db = db_of [ t1; t2 ] in
    ignore (Database.join_count db ("L", [ "a" ]) ("R", [ "u" ]));
    Database.insert db "R" [ Value.Int (Rng.int rng 4); Value.Null ];
    Alcotest.(check int)
      (Printf.sprintf "round %d: join count after peer insert" round)
      (Reference.Counts.equijoin_distinct_count t1 [ "a" ] t2 [ "u" ])
      (Database.join_count db ("L", [ "a" ]) ("R", [ "u" ]))
  done

(* ---------- schema-scale: Gen_schema workloads ---------- *)

(* every planted dependency and every navigation equi-join of a small
   synthetic workload gets the reference verdict at every domain count *)
let test_generated_workload_agree () =
  List.iter
    (fun seed ->
      let spec =
        {
          Workload.Gen_schema.default_spec with
          Workload.Gen_schema.seed;
          rows_per_entity = 40;
          rows_per_denorm = 80;
          null_ref_rate = 0.3;
        }
      in
      let g = Workload.Gen_schema.generate spec in
      let db = g.Workload.Gen_schema.db in
      let per_engine =
        List.map
          (fun (name, engine) ->
            (name, engine, (Workload.Gen_schema.generate spec).Workload.Gen_schema.db))
          engines
      in
      List.iter
        (fun (f : Fd.t) ->
          let expected =
            Reference.Fd_infer.holds_naive (Database.table db f.Fd.rel) f
          in
          List.iter
            (fun (name, engine, db) ->
              Alcotest.(check bool)
                (Printf.sprintf "%s via %s" (Fd.to_string f) name)
                expected
                (Fd_infer.holds ~engine (Database.table db f.Fd.rel) f))
            per_engine)
        g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds;
      List.iter
        (fun (j : Sqlx.Equijoin.t) ->
          let left = (j.Sqlx.Equijoin.rel1, j.Sqlx.Equijoin.attrs1) in
          let right = (j.Sqlx.Equijoin.rel2, j.Sqlx.Equijoin.attrs2) in
          let expected = Reference.Counts.ind_counts db left right in
          List.iter
            (fun (name, engine, db) ->
              Alcotest.(check counts_t)
                (Printf.sprintf "counts of %s via %s"
                   (Sqlx.Equijoin.to_string j) name)
                expected
                (List.hd (Verify_plan.ind_batch ~engine db [ (left, right) ])))
            per_engine)
        g.Workload.Gen_schema.equijoins)
    [ 3L; 101L ]

(* the full IND-Discovery stage returns the identical elicitation at
   every domain count, and every step's counts are the reference's *)
let test_ind_discovery_agree () =
  let spec =
    {
      Workload.Gen_schema.default_spec with
      Workload.Gen_schema.seed = 55L;
      rows_per_entity = 30;
      rows_per_denorm = 60;
      null_ref_rate = 0.2;
    }
  in
  let run engine =
    let g = Workload.Gen_schema.generate spec in
    let db = g.Workload.Gen_schema.db in
    let r =
      Dbre.Ind_discovery.run ~engine Dbre.Oracle.automatic db
        g.Workload.Gen_schema.equijoins
    in
    check_ind_steps_reference "step" db r;
    r.Dbre.Ind_discovery.inds
  in
  let expected = run Engine.default in
  List.iter
    (fun (name, engine) ->
      check_sorted_inds (Printf.sprintf "INDs via %s" name) expected
        (run engine))
    engines

let suite =
  [
    Alcotest.test_case "holds = reference" `Quick test_holds_agree;
    Alcotest.test_case "holds_all / fd_group = reference" `Quick
      test_holds_all_agree;
    Alcotest.test_case "count_distinct = reference" `Quick
      test_count_distinct_agree;
    Alcotest.test_case "join_count = reference" `Quick test_join_count_agree;
    Alcotest.test_case "ind_batch = reference" `Quick test_ind_batch_agree;
    Alcotest.test_case "unique_over = reference" `Quick test_unique_agree;
    Alcotest.test_case "Csv.load = reference" `Quick test_csv_load_agree;
    Alcotest.test_case "encode-first fd_batch = reference" `Quick
      test_encode_first_agree;
    Alcotest.test_case "insert invalidates caches" `Quick
      test_cache_invalidation;
    Alcotest.test_case "peer insert invalidates join cache" `Quick
      test_join_cache_invalidation;
    Alcotest.test_case "generated workloads = reference" `Quick
      test_generated_workload_agree;
    Alcotest.test_case "ind-discovery = reference at 1/2/4 domains" `Quick
      test_ind_discovery_agree;
  ]
