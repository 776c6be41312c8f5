(* Reference counting primitives over the raw row array: the seed's
   row-at-a-time hashing, with SQL COUNT(DISTINCT) semantics (rows
   holding a NULL in any projected attribute are skipped). None of it
   goes through a column store. *)

open Relational

(* the set of distinct NULL-free projections on positions [idx], keyed
   by value lists. [Table.rows] decodes on every call, so the callers
   that loop read the rows once and come here. *)
let distinct_rows rows idx =
  let seen = Hashtbl.create (max 16 (Array.length rows)) in
  Array.iter
    (fun tup ->
      if not (Tuple.has_null_at idx tup) then
        let key = Tuple.project_list idx tup in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key ())
    rows;
  seen

let distinct_table t attrs = distinct_rows (Table.rows t) (Table.positions t attrs)

let project_distinct t attrs =
  Hashtbl.fold (fun k () acc -> k :: acc) (distinct_table t attrs) []

(* ||r[X]|| *)
let count_distinct t attrs = Hashtbl.length (distinct_table t attrs)

(* ||r1[x1] |X| r2[x2]||: iterate the smaller distinct set, probe the
   larger *)
let equijoin_distinct_count t1 a1 t2 a2 =
  if List.length a1 <> List.length a2 then
    invalid_arg "Reference.Counts.equijoin_distinct_count: width mismatch";
  let d1 = distinct_table t1 a1 and d2 = distinct_table t2 a2 in
  let small, large =
    if Hashtbl.length d1 <= Hashtbl.length d2 then (d1, d2) else (d2, d1)
  in
  Hashtbl.fold
    (fun k () acc -> if Hashtbl.mem large k then acc + 1 else acc)
    small 0

(* rows projected onto [attrs] in source order; with [~non_null] the
   projection is distinct (first occurrences kept) and skips rows
   holding NULL in any of [non_null] — the data moves of Restruct *)
let project ?non_null t attrs =
  let idx = Table.positions t attrs in
  let rows = Array.to_list (Table.rows t) in
  match non_null with
  | None -> List.map (Tuple.project_list idx) rows
  | Some xs ->
      let nidx = Table.positions t xs in
      let seen = Hashtbl.create 64 in
      List.filter_map
        (fun tup ->
          if Tuple.has_null_at nidx tup then None
          else
            let key = Tuple.project_list idx tup in
            if Hashtbl.mem seen key then None
            else begin
              Hashtbl.add seen key ();
              Some key
            end)
        rows

(* row indices grouped by projection, NULL as an ordinary value (the
   grouping an FD check needs) *)
let group_rows t attrs =
  let idx = Table.positions t attrs in
  let groups = Hashtbl.create (max 16 (Table.cardinality t)) in
  Array.iteri
    (fun i tup ->
      let key = Tuple.project_list idx tup in
      let prev = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (i :: prev))
    (Table.rows t);
  groups

let select t pred =
  Array.fold_right
    (fun tup acc -> if pred tup then tup :: acc else acc)
    (Table.rows t) []

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

(* a declared UNIQUE constraint: all NULL-free projections distinct
   (no witness required) *)
let unique_in rows idx =
  let witnesses =
    Array.fold_left
      (fun n tup -> if Tuple.has_null_at idx tup then n else n + 1)
      0 rows
  in
  Hashtbl.length (distinct_rows rows idx) = witnesses

let check_unique t attrs = unique_in (Table.rows t) (Table.positions t attrs)
let not_null_in rows i = Array.for_all (fun tup -> not (Value.is_null tup.(i))) rows

let check_not_null t attr =
  not_null_in (Table.rows t) (Relation.attr_index (Table.schema t) attr)

(* every declared unique and not-null constraint; [Error] lists the
   violated ones *)
let check_constraints t =
  let rel = Table.schema t in
  let name = rel.Relation.name in
  let rows = Table.rows t in
  let unique_errors =
    List.filter_map
      (fun u ->
        if unique_in rows (Table.positions t u) then None
        else
          Some
            (Printf.sprintf "%s: unique(%s) violated" name
               (Attribute.Names.to_string u)))
      rel.Relation.uniques
  in
  let null_errors =
    List.filter_map
      (fun a ->
        if not_null_in rows (Relation.attr_index rel a) then None
        else Some (Printf.sprintf "%s: not null(%s) violated" name a))
      (Relation.not_null_attrs rel)
  in
  match unique_errors @ null_errors with [] -> Ok () | errs -> Error errs

let database_constraints db =
  match
    List.concat_map
      (fun r ->
        match check_constraints (Database.table db r.Relation.name) with
        | Ok () -> []
        | Error msgs -> msgs)
      (Schema.relations (Database.schema db))
  with
  | [] -> Ok ()
  | errs -> Error errs

(* the §6.1 triple of one IND probe *)
let ind_counts db (lrel, lattrs) (rrel, rattrs) =
  let tl = Database.table db lrel and tr = Database.table db rrel in
  {
    Verify_plan.n_left = count_distinct tl lattrs;
    n_right = count_distinct tr rattrs;
    n_join = equijoin_distinct_count tl lattrs tr rattrs;
  }

(* r[X] ⊆ s[Y] by materializing both projections and testing set
   inclusion directly *)
let ind_satisfied db (ind : Deps.Ind.t) =
  let left = distinct_table (Database.table db ind.lhs_rel) ind.lhs_attrs in
  let right = distinct_table (Database.table db ind.rhs_rel) ind.rhs_attrs in
  Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem right k) left true

(* every non-trivial satisfied unary IND, each ordered attribute pair
   tested directly by set inclusion of the two value sets: no domain
   filter, no shared value index; each table's rows are read once *)
let discover_unary_brute db =
  let sides =
    List.concat_map
      (fun r ->
        let t = Database.table db r.Relation.name in
        let rows = Table.rows t in
        List.map
          (fun a -> ((r.Relation.name, a), distinct_rows rows (Table.positions t [ a ])))
          r.Relation.attrs)
      (Schema.relations (Database.schema db))
  in
  List.concat_map
    (fun (s1, d1) ->
      List.filter_map
        (fun (s2, d2) ->
          if s1 = s2 then None
          else if
            Hashtbl.length d1 > 0
            && Hashtbl.fold (fun k () ok -> ok && Hashtbl.mem d2 k) d1 true
          then Some (Deps.Ind.make (fst s1, [ snd s1 ]) (fst s2, [ snd s2 ]))
          else None)
        sides)
    sides
