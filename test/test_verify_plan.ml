(* Verify_plan: the batching planner must return exactly what the
   per-candidate row-at-a-time reference returns — FD verdicts in RHS
   order, IND count triples in probe order — on NULL-heavy and scaled
   extensions, including right after an insert; poll its token once per
   batch and once per probe; and answer batches run on two domains at
   once like batches run alone.

   Deterministic by construction: tables come from seeded Workload.Rng
   streams and Workload.Gen_schema specs. *)

open Helpers
open Relational
open Deps
module Rng = Workload.Rng

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
    Column_store.drop_memos (Table.store t1);
    Column_store.drop_memos (Table.store t2);
    Alcotest.(check (list (triple int int int)))
      (Printf.sprintf "round %d: ind_batch" round)
      expected
      (triples (Relational.Verify_plan.ind_batch db probes))
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
   decision points *)
let corrupted_workload () =
  let g = Workload.Gen_schema.generate (scaled_spec 77L) in
  let db = g.Workload.Gen_schema.db in
  let rng = Rng.create 99L in
  List.iter
    (fun (i : Ind.t) ->
      ignore
        (Support.Corrupt.break_ind rng db ~rel:i.Ind.lhs_rel
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
  (* every step's counts and case are the reference's *)
  let g = corrupted_workload () in
  let db = g.Workload.Gen_schema.db in
  let r =
    Dbre.Ind_discovery.run
      (Dbre.Oracle.of_mode (Threshold 0.8))
      db g.Workload.Gen_schema.equijoins
  in
  check_ind_steps_reference "NEI step" db r;
  Alcotest.(check bool)
    "corruption produced at least one NEI decision" true
    (List.exists (fun s -> contains ~sub:"nei" s) (nei_trace r))

let test_scaled_rhs_discovery_agree () =
  let lhs_of g =
    List.map
      (fun (i : Ind.t) -> Attribute.make i.Ind.lhs_rel i.Ind.lhs_attrs)
      g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_inds
  in
  (* every (lhs, candidate) verdict is the reference's *)
  let g = Workload.Gen_schema.generate (scaled_spec 83L) in
  let db = g.Workload.Gen_schema.db in
  let r =
    Dbre.Rhs_discovery.run Dbre.Oracle.automatic db ~lhs:(lhs_of g) ~hidden:[]
  in
  check_rhs_steps_reference "F" db r;
  Alcotest.(check bool)
    "workload elicits at least one FD" true
    (r.Dbre.Rhs_discovery.fds <> [])

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
    (* warm the memoized store with a first batch + counts *)
    ignore (Relational.Verify_plan.fd_group t ~lhs ~rhs);
    ignore
      (Relational.Verify_plan.ind_batch db
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
      (triples (Relational.Verify_plan.ind_batch db probes))
  done

(* ---------- the batch contract: order, supervision, errors ---------- *)

(* a fixed two-table database for the contract cases *)
let contract_db seed =
  let rng = Rng.create seed in
  let t1 = random_table rng "L" [ "a"; "b"; "c" ] 30 in
  let t2 = random_table rng "R" [ "u"; "v"; "w" ] 30 in
  let db = Database.create (Schema.of_relations [ Table.schema t1; Table.schema t2 ]) in
  Database.replace_table db t1;
  Database.replace_table db t2;
  db

let contract_probes =
  [
    (("L", [ "a" ]), ("R", [ "u" ]));
    (("L", [ "b" ]), ("R", [ "v" ]));
    (("L", [ "a"; "c" ]), ("R", [ "u"; "w" ]));
    (("R", [ "w" ]), ("L", [ "c" ]));
  ]

(* answers follow submission order: a permuted batch is answered by the
   same permutation, for IND probes and for FD right-hand sides *)
let test_submission_order () =
  let db = contract_db 61L in
  let forward = triples (Relational.Verify_plan.ind_batch db contract_probes) in
  let backward =
    triples (Relational.Verify_plan.ind_batch db (List.rev contract_probes))
  in
  Alcotest.(check (list (triple int int int)))
    "reversed probes, reversed answers" (List.rev forward) backward;
  let t = Database.table db "L" in
  let forward = Relational.Verify_plan.fd_group t ~lhs:[ "a" ] ~rhs:[ "b"; "c" ] in
  let backward = Relational.Verify_plan.fd_group t ~lhs:[ "a" ] ~rhs:[ "c"; "b" ] in
  Alcotest.(check (list (pair string bool)))
    "reversed rhs, reversed verdicts" (List.rev forward) backward

(* a probe and its mirror count the same join, with the sides' distinct
   counts swapped *)
let test_mirrored_probe () =
  let db = contract_db 67L in
  let mirrored = List.map (fun (l, r) -> (r, l)) contract_probes in
  List.iter2
    (fun (l, r, j) (l', r', j') ->
      Alcotest.(check (triple int int int)) "mirror swaps the sides" (r, l, j)
        (l', r', j'))
    (triples (Relational.Verify_plan.ind_batch db contract_probes))
    (triples (Relational.Verify_plan.ind_batch db mirrored))

(* an empty batch is answered without a poll: even a token whose first
   poll trips is left untouched *)
let test_empty_batches () =
  let db = contract_db 71L in
  let s = Supervise.create ~fuel:0 () in
  Alcotest.(check int) "no probes, no counts" 0
    (List.length (Relational.Verify_plan.ind_batch ~supervise:s db []));
  Alcotest.(check int) "no rhs, no verdicts" 0
    (List.length
       (Relational.Verify_plan.fd_group ~supervise:s (Database.table db "L")
          ~lhs:[ "a" ] ~rhs:[]));
  Alcotest.(check bool) "token never polled" true (Supervise.tripped s = None)

(* one poll per batch and one per probe, none in the pre-pass: k probes
   complete on k + 2 fuel and trip on k + 1 *)
let test_ind_batch_fuel () =
  let db = contract_db 73L in
  let k = List.length contract_probes in
  Alcotest.(check (list (triple int int int)))
    "completes on k + 2 fuel" (naive_counts db contract_probes)
    (triples
       (Relational.Verify_plan.ind_batch
          ~supervise:(Supervise.create ~fuel:(k + 2) ())
          db contract_probes));
  match
    Relational.Verify_plan.ind_batch
      ~supervise:(Supervise.create ~fuel:(k + 1) ())
      db contract_probes
  with
  | _ -> Alcotest.fail "expected Supervise.Interrupt on k + 1 fuel"
  | exception Supervise.Interrupt Supervise.Cancelled -> ()

(* a cancelled token stops both batch kinds before any answer *)
let test_cancelled_batches () =
  let db = contract_db 79L in
  let s = Supervise.create () in
  Supervise.cancel s;
  (match Relational.Verify_plan.ind_batch ~supervise:s db contract_probes with
  | _ -> Alcotest.fail "ind_batch: expected Supervise.Interrupt"
  | exception Supervise.Interrupt Supervise.Cancelled -> ());
  match
    Relational.Verify_plan.fd_group ~supervise:s (Database.table db "L")
      ~lhs:[ "a" ] ~rhs:[ "b"; "c" ]
  with
  | _ -> Alcotest.fail "fd_group: expected Supervise.Interrupt"
  | exception Supervise.Interrupt Supervise.Cancelled -> ()

(* sides that do not resolve raise, as the interface states *)
let test_unresolved_sides () =
  let db = contract_db 83L in
  (match
     Relational.Verify_plan.ind_batch db [ (("L", [ "a" ]), ("Nowhere", [ "u" ])) ]
   with
  | _ -> Alcotest.fail "unknown relation: expected Not_found"
  | exception Not_found -> ());
  match
    Relational.Verify_plan.ind_batch db [ (("L", [ "zz" ]), ("R", [ "u" ])) ]
  with
  | _ -> Alcotest.fail "unknown attribute: expected Invalid_argument"
  | exception Invalid_argument _ -> ()

(* the daemon runs jobs on worker domains: batches over separate
   databases, on two domains at once, each get the reference counts *)
let test_batches_on_two_domains () =
  let run seed () =
    let db = contract_db seed in
    let ok = ref true in
    for _ = 1 to 20 do
      List.iter
        (fun rel -> Column_store.drop_memos (Table.store (Database.table db rel)))
        [ "L"; "R" ];
      if
        triples (Relational.Verify_plan.ind_batch db contract_probes)
        <> naive_counts db contract_probes
      then ok := false
    done;
    !ok
  in
  let domains = List.map (fun seed -> Stdlib.Domain.spawn (run seed)) [ 89L; 97L ] in
  Alcotest.(check (list bool)) "every batch matches the reference" [ true; true ]
    (List.map Stdlib.Domain.join domains)

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
    Alcotest.test_case "answers follow submission order" `Quick
      test_submission_order;
    Alcotest.test_case "mirrored probe swaps the sides" `Quick
      test_mirrored_probe;
    Alcotest.test_case "empty batches poll nothing" `Quick test_empty_batches;
    Alcotest.test_case "ind_batch: one poll per batch and probe" `Quick
      test_ind_batch_fuel;
    Alcotest.test_case "cancelled token stops both batches" `Quick
      test_cancelled_batches;
    Alcotest.test_case "unresolved sides raise" `Quick test_unresolved_sides;
    Alcotest.test_case "batches on two domains at once" `Quick
      test_batches_on_two_domains;
  ]
