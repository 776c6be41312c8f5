(* Reference counting primitives over the raw row array: the seed's
   row-at-a-time hashing, with SQL COUNT(DISTINCT) semantics (rows
   holding a NULL in any projected attribute are skipped). *)

open Relational

let count_distinct = Table.count_distinct

(* ||r1[x1] |X| r2[x2]||: iterate the smaller distinct set, probe the
   larger *)
let equijoin_distinct_count t1 a1 t2 a2 =
  if List.length a1 <> List.length a2 then
    invalid_arg "Reference.Counts.equijoin_distinct_count: width mismatch";
  let d1 = Table.distinct_table t1 a1 and d2 = Table.distinct_table t2 a2 in
  let small, large =
    if Hashtbl.length d1 <= Hashtbl.length d2 then (d1, d2) else (d2, d1)
  in
  Hashtbl.fold
    (fun k () acc -> if Hashtbl.mem large k then acc + 1 else acc)
    small 0

(* SQL UNIQUE: NULL-holding rows skipped; at least one non-null
   witness required *)
let unique_over_rows table attrs =
  let idx = Table.positions table attrs in
  let seen = Hashtbl.create (max 16 (Table.cardinality table)) in
  let witnesses = ref 0 in
  try
    Array.iter
      (fun tup ->
        if not (Tuple.has_null_at idx tup) then begin
          incr witnesses;
          let key = Tuple.project_list idx tup in
          if Hashtbl.mem seen key then raise Exit else Hashtbl.add seen key ()
        end)
      (Table.rows table);
    !witnesses > 0
  with Exit -> false

(* the §6.1 triple of one IND probe *)
let ind_counts db (lrel, lattrs) (rrel, rattrs) =
  let tl = Database.table db lrel and tr = Database.table db rrel in
  {
    Verify_plan.n_left = count_distinct tl lattrs;
    n_right = count_distinct tr rattrs;
    n_join = equijoin_distinct_count tl lattrs tr rattrs;
  }
