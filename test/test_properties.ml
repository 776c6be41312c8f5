(* Property-based suites (qcheck) over the core data structures and the
   dependency-checking engines. *)

open Relational
open Deps

(* ---------- generators ---------- *)

let attr_pool = [ "a"; "b"; "c"; "d"; "e" ]

let gen_attr = QCheck.Gen.oneofl attr_pool

let gen_attr_set =
  QCheck.Gen.(map Attribute.Names.normalize (list_size (int_range 1 3) gen_attr))

let gen_fd =
  QCheck.Gen.(
    let* lhs = gen_attr_set in
    let* rhs = gen_attr_set in
    let rhs' = Attribute.Names.diff rhs lhs in
    if rhs' = [] then
      let leftover = Attribute.Names.diff attr_pool lhs in
      match leftover with
      | [] -> return None
      | x :: _ -> return (Some (Fd.make "R" lhs [ x ]))
    else return (Some (Fd.make "R" lhs rhs')))

let gen_fds =
  QCheck.Gen.(
    map (List.filter_map Fun.id) (list_size (int_range 0 6) gen_fd))

let arb_fds = QCheck.make ~print:(fun fds -> String.concat "; " (List.map Fd.to_string fds)) gen_fds

let arb_attr_set =
  QCheck.make ~print:Attribute.Names.to_string gen_attr_set

(* random small tables over attrs a..e with values from a tiny domain so
   that dependencies sometimes hold *)
(* columns a,b hold small ints (or NULL), columns c,d,e small strings (or
   NULL) — homogeneous columns keep CSV round-trips exact *)
let gen_cell i =
  QCheck.Gen.(
    if i < 2 then
      frequency
        [ (5, map (fun v -> Value.Int v) (int_range 0 3)); (1, return Value.Null) ]
    else
      frequency
        [
          (5, map (fun s -> Value.String s) (oneofl [ "x"; "y"; "z" ]));
          (1, return Value.Null);
        ])

let gen_row = QCheck.Gen.(flatten_l (List.init (List.length attr_pool) gen_cell))

let gen_table =
  QCheck.Gen.(
    let* n_rows = int_range 0 25 in
    let* rows = list_repeat n_rows gen_row in
    return
      (let rel = Relation.make "R" attr_pool in
       let t = Table.create rel in
       List.iter (Table.insert t) rows;
       t))

let print_table t =
  String.concat "\n"
    (List.map
       (fun row -> String.concat "," (List.map Value.to_string row))
       (Table.to_lists t))

let arb_table = QCheck.make ~print:print_table gen_table

(* NULL-free variant: the TANE engine's NULL-as-value semantics coincide
   with the naive engine only on NULL-free extensions *)
let gen_cell_no_null i =
  QCheck.Gen.(
    if i < 2 then map (fun v -> Value.Int v) (int_range 0 3)
    else map (fun s -> Value.String s) (oneofl [ "x"; "y"; "z" ]))

let gen_table_no_null =
  QCheck.Gen.(
    let* n_rows = int_range 0 25 in
    let* rows =
      list_repeat n_rows
        (flatten_l (List.init (List.length attr_pool) gen_cell_no_null))
    in
    return
      (let rel = Relation.make "R" attr_pool in
       let t = Table.create rel in
       List.iter (Table.insert t) rows;
       t))

let arb_table_no_null = QCheck.make ~print:print_table gen_table_no_null

let gen_value =
  QCheck.Gen.(
    oneof
      [
        return Value.Null;
        map (fun b -> Value.Bool b) bool;
        map (fun i -> Value.Int i) (int_range (-1000) 1000);
        map (fun f -> Value.Float f) (float_bound_inclusive 100.0);
        map (fun s -> Value.String s) (string_size ~gen:(char_range 'a' 'z') (int_range 0 6));
        map2 (fun m d -> Value.date 2020 (1 + (m mod 12)) (1 + (d mod 28))) nat nat;
      ])

let arb_value = QCheck.make ~print:Value.to_string gen_value

let arb_value_triple = QCheck.triple arb_value arb_value arb_value

(* ---------- properties ---------- *)

let count = 300

let prop name arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb f)

(* value ordering is a total order *)
let value_order_props =
  [
    prop "compare reflexive" arb_value (fun v -> Value.compare v v = 0);
    prop "compare antisymmetric" (QCheck.pair arb_value arb_value) (fun (a, b) ->
        Value.compare a b = -Value.compare b a);
    prop "compare transitive-ish" arb_value_triple (fun (a, b, c) ->
        (* if a<=b and b<=c then a<=c *)
        QCheck.assume (Value.compare a b <= 0 && Value.compare b c <= 0);
        Value.compare a c <= 0);
    prop "hash respects equal" (QCheck.pair arb_value arb_value) (fun (a, b) ->
        (not (Value.equal a b)) || Value.hash a = Value.hash b);
  ]

(* closure laws *)
let closure_props =
  [
    prop "closure extensive" (QCheck.pair arb_fds arb_attr_set) (fun (fds, x) ->
        Attribute.Names.subset x (Closure.closure fds x));
    prop "closure idempotent" (QCheck.pair arb_fds arb_attr_set) (fun (fds, x) ->
        let c = Closure.closure fds x in
        Attribute.Names.equal c (Closure.closure fds c));
    prop "closure monotone" (QCheck.triple arb_fds arb_attr_set arb_attr_set)
      (fun (fds, x, y) ->
        let xy = Attribute.Names.union x y in
        Attribute.Names.subset (Closure.closure fds x) (Closure.closure fds xy));
    prop "minimal cover equivalent" arb_fds (fun fds ->
        Closure.equivalent fds (Closure.minimal_cover fds));
    prop "candidate keys are superkeys" arb_fds (fun fds ->
        List.for_all
          (fun k -> Closure.is_superkey fds ~all:attr_pool k)
          (Closure.candidate_keys fds ~all:attr_pool));
    prop "candidate keys are pairwise incomparable" arb_fds (fun fds ->
        let keys = Closure.candidate_keys fds ~all:attr_pool in
        List.for_all
          (fun k1 ->
            List.for_all
              (fun k2 ->
                Attribute.Names.equal k1 k2
                || not (Attribute.Names.subset k1 k2))
              keys)
          keys);
    prop "every key determines every attribute" arb_fds (fun fds ->
        match Closure.candidate_keys fds ~all:attr_pool with
        | [] -> false (* there is always at least one key *)
        | keys ->
            List.for_all
              (fun k ->
                Attribute.Names.equal (Closure.closure fds k)
                  (Attribute.Names.normalize attr_pool))
              keys);
  ]

(* the FD check and its references agree with the specification *)
let fd_engine_props =
  [
    prop "holds = spec" (QCheck.pair arb_table arb_attr_set) (fun (t, lhs) ->
        let rhs = Attribute.Names.diff attr_pool lhs in
        QCheck.assume (rhs <> []);
        let f = Fd.make "R" lhs rhs in
        Fd_infer.holds t f = Reference.Fd_infer.satisfied_by t f);
    prop "naive = spec" (QCheck.pair arb_table arb_attr_set) (fun (t, lhs) ->
        let rhs = Attribute.Names.diff attr_pool lhs in
        QCheck.assume (rhs <> []);
        let f = Fd.make "R" lhs rhs in
        Reference.Fd_infer.holds_naive t f = Reference.Fd_infer.satisfied_by t f);
    prop "partition = spec" (QCheck.pair arb_table arb_attr_set) (fun (t, lhs) ->
        let rhs = Attribute.Names.diff attr_pool lhs in
        QCheck.assume (rhs <> []);
        let f = Fd.make "R" lhs rhs in
        Reference.Fd_infer.holds_partition t f = Reference.Fd_infer.satisfied_by t f);
    prop "error rate zero iff holds" (QCheck.pair arb_table arb_attr_set)
      (fun (t, lhs) ->
        let rhs = Attribute.Names.diff attr_pool lhs in
        QCheck.assume (rhs <> []);
        let f = Fd.make "R" lhs rhs in
        Reference.Fd_infer.satisfied_by t f = (Reference.Fd_infer.error_rate t f = 0.0));
    prop "tane = discover on null-free tables" arb_table_no_null (fun t ->
        let d, _ = Fd_infer.discover ~max_lhs:3 ~rel:"R" t in
        let tn, _ = Reference.Fd_infer.discover_tane ~max_lhs:3 ~rel:"R" t in
        List.sort Fd.compare d = List.sort Fd.compare tn);
    prop "discovered fds hold and are minimal" arb_table (fun t ->
        let fds, _ = Fd_infer.discover ~max_lhs:2 ~rel:"R" t in
        List.for_all (Reference.Fd_infer.satisfied_by t) fds
        && List.for_all
             (fun (f : Fd.t) ->
               (* removing any lhs attr breaks it (minimality) *)
               List.length f.Fd.lhs = 1
               || List.for_all
                    (fun a ->
                      let smaller = Attribute.Names.diff f.Fd.lhs [ a ] in
                      not
                        (List.for_all
                           (fun b ->
                             Reference.Fd_infer.satisfied_by t (Fd.make "R" smaller [ b ]))
                           f.Fd.rhs))
                    f.Fd.lhs)
             fds);
  ]

(* reference stripped partitions *)
module Partition = Reference.Partition

let partition_props =
  [
    prop "product agrees with direct partition"
      (QCheck.triple arb_table arb_attr_set arb_attr_set) (fun (t, x, y) ->
        let px = Partition.of_table t x in
        let py = Partition.of_table t y in
        let direct = Partition.of_table t (Attribute.Names.union x y) in
        let prod = Partition.product px py in
        Partition.error direct = Partition.error prod
        && Partition.num_groups direct = Partition.num_groups prod);
    prop "refinement only shrinks error" (QCheck.pair arb_table arb_attr_set)
      (fun (t, x) ->
        let more = Attribute.Names.union x [ "e" ] in
        Partition.error (Partition.of_table t more)
        <= Partition.error (Partition.of_table t x));
    prop "rank counts distinct groupings" arb_table (fun t ->
        let p = Partition.of_table t [ "a" ] in
        (* rank = number of distinct 'a' values with NULL as a value *)
        let g = Reference.Counts.group_rows t [ "a" ] in
        Partition.rank p = Hashtbl.length g);
  ]

let join_count t1 a1 t2 a2 =
  Column_store.equijoin_distinct_count (Table.store t1) a1
    (Table.store t2) a2

(* IND count-based test = materialized test *)
let ind_props =
  [
    prop "count-based = materialized" (QCheck.pair arb_table arb_table)
      (fun (t1, t2) ->
        let db =
          let schema =
            Schema.of_relations
              [ Relation.make "T1" attr_pool; Relation.make "T2" attr_pool ]
          in
          let db = Database.create schema in
          Array.iter (fun r -> Table.insert_tuple (Database.table db "T1") r) (Table.rows t1);
          Array.iter (fun r -> Table.insert_tuple (Database.table db "T2") r) (Table.rows t2);
          db
        in
        let i = Ind.make ("T1", [ "a" ]) ("T2", [ "b" ]) in
        Ind.satisfied db i = Reference.Counts.ind_satisfied db i);
    prop "join count bounded by both sides" (QCheck.pair arb_table arb_table)
      (fun (t1, t2) ->
        let n = join_count t1 [ "a" ] t2 [ "b" ] in
        n <= Reference.Counts.count_distinct t1 [ "a" ] && n <= Reference.Counts.count_distinct t2 [ "b" ]);
    prop "join count symmetric" (QCheck.pair arb_table arb_table) (fun (t1, t2) ->
        join_count t1 [ "a" ] t2 [ "b" ] = join_count t2 [ "b" ] t1 [ "a" ]);
    prop "join count = reference" (QCheck.pair arb_table arb_table)
      (fun (t1, t2) ->
        join_count t1 [ "a"; "c" ] t2 [ "b"; "d" ]
        = Reference.Counts.equijoin_distinct_count t1 [ "a"; "c" ] t2
            [ "b"; "d" ]);
  ]

(* CSV: dump/load identity on typed tables *)
let csv_props =
  [
    prop "dump/load preserves typed tables" arb_table (fun t ->
        (* type every column as its inferred domain so parsing is exact;
           mixed columns fall back to Unknown which may re-infer values,
           so restrict to tables where inference is stable *)
        let rel = Table.schema t in
        let cols = rel.Relation.attrs in
        let domains =
          List.map
            (fun a ->
              let i = Relation.attr_index rel a in
              ( a,
                Domain.infer_column
                  (Array.to_list (Array.map (fun r -> r.(i)) (Table.rows t))) ))
            cols
        in
        QCheck.assume
          (List.for_all
             (fun (_, d) -> not (Domain.equal d Domain.Float))
             domains);
        let typed = Relation.make ~domains "R" cols in
        match Csv.load typed (Csv.dump_table t) with
        | Error _ -> false
        | Ok (reloaded, _) -> Table.to_lists reloaded = Table.to_lists t);
  ]

(* equi-join extraction: generated navigation queries are recovered *)
let equijoin_props =
  let gen_query =
    QCheck.Gen.(
      let* a1 = gen_attr in
      let* a2 = gen_attr in
      return (a1, a2))
  in
  let arb = QCheck.make ~print:(fun (a, b) -> a ^ "=" ^ b) gen_query in
  [
    prop "emitted query is re-extracted" arb (fun (a1, a2) ->
        let schema =
          Schema.of_relations
            [ Relation.make "T1" attr_pool; Relation.make "T2" attr_pool ]
        in
        let sql =
          Printf.sprintf "SELECT T1.a FROM T1, T2 WHERE T1.%s = T2.%s" a1 a2
        in
        Sqlx.Equijoin.of_statement schema (Helpers.parse_statement sql)
        = [ Sqlx.Equijoin.make ("T1", [ a1 ]) ("T2", [ a2 ]) ]);
  ]

(* rng *)
let rng_props =
  [
    prop "int in bounds" (QCheck.pair QCheck.small_int QCheck.pos_int)
      (fun (seed, bound) ->
        QCheck.assume (bound > 0);
        let v = Workload.Rng.int (Workload.Rng.create (Int64.of_int seed)) bound in
        v >= 0 && v < bound);
    prop "shuffle is a permutation" QCheck.(list small_int) (fun l ->
        let rng = Workload.Rng.create 1L in
        List.sort compare (Workload.Rng.shuffle rng l) = List.sort compare l);
  ]

let suite =
  value_order_props @ closure_props @ fd_engine_props @ partition_props
  @ ind_props @ csv_props @ equijoin_props @ rng_props
