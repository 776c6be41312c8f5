(* Verify_plan + Domain_pool: the batching planner must return exactly
   what the per-candidate row-at-a-time reference returns — FD verdicts
   in RHS order, IND count triples in probe order — and identical NEI
   decisions at every domain count, on NULL-heavy and scaled
   extensions, including right after an insert; and the pool must fall
   back to in-order sequential execution on one domain, preserve result
   order on many, and propagate task exceptions.

   Deterministic by construction: tables come from seeded Workload.Rng
   streams and Workload.Gen_schema specs. *)

open Helpers
open Relational
open Deps
module Rng = Workload.Rng

let parallel_engines =
  [
    ("2 domains", Engine.parallel ~domains:2 ());
    ("4 domains", Engine.parallel ~domains:4 ());
  ]

let engines = ("1 domain", Engine.default) :: parallel_engines

let random_table rng ?(null_rate = 0.15) name attrs n_rows =
  let cell rng i =
    if Rng.chance rng null_rate then Value.Null
    else if i mod 2 = 0 then Value.Int (Rng.int rng 4)
    else Value.String (Rng.pick rng [ "x"; "y"; "z" ])
  in
  let rows =
    List.init n_rows (fun _ -> List.mapi (fun i _ -> cell rng i) attrs)
  in
  table name attrs rows

let attrs6 = [ "a"; "b"; "c"; "d"; "e"; "f" ]

(* ---------- fd_group vs the per-candidate reference ---------- *)

let per_candidate_naive table lhs rhs =
  List.map
    (fun b ->
      ( b,
        Reference.Fd_infer.holds_naive table
          (Fd.make (Table.schema table).Relation.name lhs [ b ]) ))
    rhs

let test_fd_group_matches_naive () =
  let rng = Rng.create 31L in
  for round = 1 to 30 do
    let null_rate = if round mod 2 = 0 then 0.45 else 0.1 in
    let t = random_table rng ~null_rate "T" attrs6 (Rng.int_in rng 0 50) in
    for _ = 1 to 4 do
      let k = Rng.int_in rng 1 2 in
      let lhs = List.sort String.compare (Rng.sample rng k attrs6) in
      let rhs = List.filter (fun a -> not (List.mem a lhs)) attrs6 in
      let expected = per_candidate_naive t lhs rhs in
      (* each check sweeps a cold store *)
      Column_store.drop_memos (Table.store t);
      Alcotest.(check (list (pair string bool)))
        (Printf.sprintf "round %d: fd_group (lhs=%s)" round (String.concat "," lhs))
        expected
        (Relational.Verify_plan.fd_group t ~lhs ~rhs)
    done
  done

(* batch verdicts must not depend on what an earlier batch memoized:
   interleave single checks and batches against one shared store *)
let test_fd_batch_memo_consistent () =
  let rng = Rng.create 37L in
  for round = 1 to 20 do
    let t = random_table rng ~null_rate:0.3 "T" attrs6 (Rng.int_in rng 1 40) in
    let lhs = [ Rng.pick rng attrs6 ] in
    let rhs = List.filter (fun a -> not (List.mem a lhs)) attrs6 in
    (* warm a strict subset of the verdicts through single checks *)
    List.iteri
      (fun i b -> if i mod 2 = 0 then ignore (Fd_infer.holds t (Fd.make "T" lhs [ b ])))
      rhs;
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "round %d: batch over part-memoized store" round)
      (per_candidate_naive t lhs rhs)
      (Relational.Verify_plan.fd_group t ~lhs ~rhs)
  done

(* ---------- ind_batch vs the per-probe reference ---------- *)

let triples counts =
  List.map
    (fun (c : Relational.Verify_plan.counts) ->
      (c.Relational.Verify_plan.n_left, c.n_right, c.n_join))
    counts

let naive_counts db probes =
  triples (List.map (fun (l, r) -> Reference.Counts.ind_counts db l r) probes)

let test_ind_batch_matches_naive () =
  let rng = Rng.create 41L in
  let attrs_l = [ "a"; "b"; "c" ] and attrs_r = [ "u"; "v"; "w" ] in
  for round = 1 to 25 do
    let null_rate = if round mod 2 = 0 then 0.4 else 0.1 in
    let t1 = random_table rng ~null_rate "L" attrs_l (Rng.int_in rng 0 40) in
    let t2 = random_table rng ~null_rate "R" attrs_r (Rng.int_in rng 0 40) in
    let schema = Schema.of_relations [ Table.schema t1; Table.schema t2 ] in
    let db = Database.create schema in
    Database.replace_table db t1;
    Database.replace_table db t2;
    (* repeated sides on purpose: sharing must not change any answer *)
    let probe rng =
      let k = Rng.int_in rng 1 2 in
      ( ("L", Rng.sample rng k attrs_l),
        ("R", Rng.sample rng k attrs_r) )
    in
    let probes = List.init (Rng.int_in rng 1 6) (fun _ -> probe rng) in
    let probes = probes @ probes in
    let expected = naive_counts db probes in
    List.iter
      (fun (name, engine) ->
        Column_store.drop_memos (Table.store t1);
        Column_store.drop_memos (Table.store t2);
        Alcotest.(check (list (triple int int int)))
          (Printf.sprintf "round %d: ind_batch via %s" round name)
          expected
          (triples (Relational.Verify_plan.ind_batch ~engine db probes)))
      engines
  done

(* ---------- scaled workload: full stages agree, incl. NEI ---------- *)

let scaled_spec seed =
  Workload.Gen_schema.scale 2.5
    {
      Workload.Gen_schema.default_spec with
      Workload.Gen_schema.seed;
      rows_per_entity = 30;
      rows_per_denorm = 50;
      null_ref_rate = 0.3;
    }

(* corrupt a planted reference so the elicitation hits real NEI
   decision points, then require the identical decision trace (counts
   triples, cases, INDs, FDs) at every domain count *)
let corrupted_workload () =
  let g = Workload.Gen_schema.generate (scaled_spec 77L) in
  let db = g.Workload.Gen_schema.db in
  let rng = Rng.create 99L in
  List.iter
    (fun (i : Ind.t) ->
      ignore
        (Workload.Corrupt.break_ind rng db ~rel:i.Ind.lhs_rel
           ~attr:(List.hd i.Ind.lhs_attrs) ~rate:0.15))
    g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds;
  g

let nei_trace (r : Dbre.Ind_discovery.result) =
  List.map
    (fun (s : Dbre.Ind_discovery.step) ->
      Printf.sprintf "%d/%d/%d:%s" s.Dbre.Ind_discovery.counts.Ind.n_left
        s.Dbre.Ind_discovery.counts.Ind.n_right
        s.Dbre.Ind_discovery.counts.Ind.n_join
        (match s.Dbre.Ind_discovery.case with
        | Dbre.Ind_discovery.Empty_intersection -> "empty"
        | Dbre.Ind_discovery.Included _ -> "included"
        | Dbre.Ind_discovery.Nei _ -> "nei"))
    r.Dbre.Ind_discovery.steps

let test_scaled_ind_discovery_agree () =
  (* every run's counts and cases are the reference's; the multi-domain
     runs must also repeat the sequential trace *)
  let run (name, engine) =
    let g = corrupted_workload () in
    let db = g.Workload.Gen_schema.db in
    let r =
      Dbre.Ind_discovery.run ~engine
        (Dbre.Oracle.threshold ~nei_ratio:0.8)
        db g.Workload.Gen_schema.equijoins
    in
    check_ind_steps_reference (Printf.sprintf "NEI step via %s" name) db r;
    r
  in
  let expected = run (List.hd engines) in
  Alcotest.(check bool)
    "corruption produced at least one NEI decision" true
    (List.exists
       (fun s -> contains ~sub:"nei" s)
       (nei_trace expected));
  List.iter
    (fun (name, engine) ->
      let r = run (name, engine) in
      Alcotest.(check (list string))
        (Printf.sprintf "NEI trace via %s" name)
        (nei_trace expected) (nei_trace r);
      check_sorted_inds
        (Printf.sprintf "INDs via %s" name)
        expected.Dbre.Ind_discovery.inds r.Dbre.Ind_discovery.inds)
    parallel_engines

let test_scaled_rhs_discovery_agree () =
  let lhs_of g =
    List.map
      (fun (i : Ind.t) -> Attribute.make i.Ind.lhs_rel i.Ind.lhs_attrs)
      g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds
  in
  (* every (lhs, candidate) verdict is the reference's; the
     multi-domain runs must also repeat the sequential F *)
  let run (name, engine) =
    let g = Workload.Gen_schema.generate (scaled_spec 83L) in
    let db = g.Workload.Gen_schema.db in
    let r =
      Dbre.Rhs_discovery.run ~engine Dbre.Oracle.automatic db ~lhs:(lhs_of g)
        ~hidden:[]
    in
    check_rhs_steps_reference (Printf.sprintf "F via %s" name) db r;
    r
  in
  let expected = run (List.hd engines) in
  Alcotest.(check bool)
    "workload elicits at least one FD" true
    (expected.Dbre.Rhs_discovery.fds <> []);
  List.iter
    (fun (name, engine) ->
      check_sorted_fds
        (Printf.sprintf "F via %s" name)
        expected.Dbre.Rhs_discovery.fds
        (run (name, engine)).Dbre.Rhs_discovery.fds)
    parallel_engines

(* ---------- batches stay correct across cache invalidation ---------- *)

let db_rows t =
  let rel = Table.schema t in
  let db = Database.create (Schema.of_relations [ rel ]) in
  Database.replace_table db t;
  db

let test_batch_after_invalidation () =
  let rng = Rng.create 53L in
  for round = 1 to 15 do
    let t = random_table rng ~null_rate:0.3 "T" attrs6 (Rng.int_in rng 2 30) in
    let db = db_rows t in
    let lhs = [ Rng.pick rng attrs6 ] in
    let rhs = List.filter (fun a -> not (List.mem a lhs)) attrs6 in
    let engine = Engine.default in
    (* warm the memoized store with a first batch + counts *)
    ignore (Relational.Verify_plan.fd_group t ~lhs ~rhs);
    ignore
      (Relational.Verify_plan.ind_batch ~engine db
         [ (("T", lhs), ("T", [ List.hd rhs ])) ]);
    (* the insert is absorbed by the memoized store's delta refresh;
       the next batch must see the new row *)
    let row =
      List.mapi
        (fun i _ ->
          if i mod 2 = 0 then Value.Int (Rng.int rng 4) else Value.Null)
        attrs6
    in
    Database.insert db "T" row;
    Alcotest.(check (list (pair string bool)))
      (Printf.sprintf "round %d: fd_group after insert" round)
      (per_candidate_naive t lhs rhs)
      (Relational.Verify_plan.fd_group t ~lhs ~rhs);
    let probes = [ (("T", lhs), ("T", [ List.hd rhs ])) ] in
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "round %d: ind_batch after insert" round)
      (naive_counts db probes)
      (triples (Relational.Verify_plan.ind_batch ~engine db probes))
  done

(* ---------- Domain_pool ---------- *)

(* size-1 pool: pure sequential fallback, in submission order, on the
   calling domain *)
let test_pool_sequential_fallback () =
  let pool = Domain_pool.create 1 in
  Alcotest.(check int) "size" 1 (Domain_pool.size pool);
  let order = ref [] in
  let self = Stdlib.Domain.self () in
  Domain_pool.parallel_for pool 8 (fun i ->
      Alcotest.(check bool)
        "runs on the calling domain" true
        (Stdlib.Domain.self () = self);
      order := i :: !order);
  Alcotest.(check (list int)) "in-order execution" [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.rev !order);
  Domain_pool.shutdown pool

let test_pool_reuse_and_registry () =
  (* Engine.pool: no pool for sequential engines, one shared persistent
     pool per size otherwise *)
  Alcotest.(check bool)
    "sequential engine has no pool" true
    (Engine.pool Engine.default = None);
  Alcotest.(check bool)
    "1-domain engine has no pool" true
    (Engine.pool (Engine.make ~parallelism:(Engine.Domains 1) ()) = None);
  match
    ( Engine.pool (Engine.parallel ~domains:3 ()),
      Engine.pool (Engine.parallel ~domains:3 ()) )
  with
  | Some p1, Some p2 ->
      Alcotest.(check bool) "same pool instance across calls" true (p1 == p2);
      let before = Domain_pool.batches p1 in
      Domain_pool.parallel_for p1 4 (fun _ -> ());
      Domain_pool.parallel_for p1 4 (fun _ -> ());
      Alcotest.(check int) "batches served by the one spawn" (before + 2)
        (Domain_pool.batches p1)
  | _ -> Alcotest.fail "parallel engine must expose a pool"

exception Boom of int

let test_pool_exception_propagation () =
  List.iter
    (fun size ->
      let pool = Domain_pool.create size in
      (match
         Domain_pool.parallel_for pool 16 (fun i ->
             if i = 11 then raise (Boom i))
       with
      | () -> Alcotest.fail "expected the task exception to re-raise"
      | exception Boom 11 -> ());
      (* the pool survives a failed batch *)
      let hits = Atomic.make 0 in
      Domain_pool.parallel_for pool 16 (fun _ ->
          ignore (Atomic.fetch_and_add hits 1));
      Alcotest.(check int)
        (Printf.sprintf "pool of %d usable after failure" size)
        16 (Atomic.get hits);
      Domain_pool.shutdown pool)
    [ 1; 4 ]

(* a tripped token: the batch runs no task and re-raises the latched
   verdict, on the sequential fallback and on worker domains alike *)
let test_pool_cancelled_token size () =
  let pool = Domain_pool.create size in
  let s = Supervise.create () in
  Supervise.cancel s;
  let ran = Atomic.make 0 in
  (match
     Domain_pool.parallel_for ~supervise:s pool 16 (fun _ ->
         ignore (Atomic.fetch_and_add ran 1))
   with
  | () -> Alcotest.fail "expected Supervise.Interrupt"
  | exception Supervise.Interrupt Supervise.Cancelled -> ());
  Alcotest.(check int)
    (Printf.sprintf "pool of %d runs no task" size)
    0 (Atomic.get ran);
  Domain_pool.shutdown pool

(* idempotent shutdown: the second call returns at once, after a pool
   that served batches and after one that never did *)
let test_pool_shutdown_twice () =
  List.iter
    (fun size ->
      let pool = Domain_pool.create size in
      let hits = Atomic.make 0 in
      Domain_pool.parallel_for pool 16 (fun _ ->
          ignore (Atomic.fetch_and_add hits 1));
      Domain_pool.shutdown pool;
      Alcotest.(check int)
        (Printf.sprintf "pool of %d ran its batch before shutdown" size)
        16 (Atomic.get hits);
      Domain_pool.shutdown pool;
      Alcotest.(check int)
        (Printf.sprintf "second shutdown of pool of %d serves nothing" size)
        1 (Domain_pool.batches pool);
      let idle = Domain_pool.create size in
      Domain_pool.shutdown idle;
      Domain_pool.shutdown idle)
    [ 1; 4 ]

(* the daemon's worker domains share registry pools: batches submitted
   from two submitters at once, sys-threads of one domain or two
   domains, queue on the pool and each completes as if it ran alone.
   [spawn f] starts [f] and returns its join. *)
let test_pool_concurrent_submitters ~spawn () =
  let pool = Domain_pool.get 2 in
  let before = Domain_pool.batches pool in
  let rounds = 50 in
  let submitter k () =
    let ok = ref true in
    for r = 1 to rounds do
      let input = Array.init 64 (fun i -> (k * 1000) + r + i) in
      let out = Array.make 64 0 in
      Domain_pool.parallel_for pool 64 (fun i -> out.(i) <- input.(i) * 2);
      if out <> Array.map (fun x -> x * 2) input then ok := false
    done;
    !ok
  in
  let results = Array.make 2 false in
  let joins = List.init 2 (fun k -> spawn (fun () -> results.(k) <- submitter k ())) in
  List.iter (fun join -> join ()) joins;
  Alcotest.(check (array bool)) "every batch result correct" [| true; true |]
    results;
  Alcotest.(check int) "one batch per submission" (before + (2 * rounds))
    (Domain_pool.batches pool)

let suite =
  [
    Alcotest.test_case "fd_group matches per-candidate reference" `Quick
      test_fd_group_matches_naive;
    Alcotest.test_case "fd batches compose with memoized verdicts" `Quick
      test_fd_batch_memo_consistent;
    Alcotest.test_case "ind_batch matches per-probe reference" `Quick
      test_ind_batch_matches_naive;
    Alcotest.test_case "scaled IND-Discovery agrees (NEI trace)" `Quick
      test_scaled_ind_discovery_agree;
    Alcotest.test_case "scaled RHS-Discovery agrees" `Quick
      test_scaled_rhs_discovery_agree;
    Alcotest.test_case "batches see inserts" `Quick
      test_batch_after_invalidation;
    Alcotest.test_case "pool: 1-domain sequential fallback" `Quick
      test_pool_sequential_fallback;
    Alcotest.test_case "pool: persistent + engine registry" `Quick
      test_pool_reuse_and_registry;
    Alcotest.test_case "pool: cancelled token runs no task (1 domain)" `Quick
      (test_pool_cancelled_token 1);
    Alcotest.test_case "pool: cancelled token runs no task (4 domains)" `Quick
      (test_pool_cancelled_token 4);
    Alcotest.test_case "pool: second shutdown is a no-op" `Quick
      test_pool_shutdown_twice;
    Alcotest.test_case "pool: concurrent submitters share a pool" `Quick
      (test_pool_concurrent_submitters ~spawn:(fun f ->
           let th = Thread.create f () in
           fun () -> Thread.join th));
    Alcotest.test_case "pool: submitters on two domains share a pool" `Quick
      (test_pool_concurrent_submitters ~spawn:(fun f ->
           let d = Stdlib.Domain.spawn f in
           fun () -> Stdlib.Domain.join d));
    Alcotest.test_case "pool: task exceptions propagate" `Quick
      test_pool_exception_propagation;
  ]
