(* Database-level coordinated refresh: close every relation's mutation
   window in one pass so cross-store join memos can be patched exactly
   (see Column_store.refresh_all). *)

type outcome = Column_store.refresh_outcome =
  | Store_fresh
  | Store_absorbed of int
  | Store_rebuilt

type report = {
  relations : (string * outcome) list;
      (* relations whose store holds or held a memo, in schema order *)
  fresh : int;
  absorbed : int;  (* stores whose memos were patched *)
  rebuilt : int;
  rows_applied : int;  (* rows mutated across those stores *)
}

let database db =
  let rels = Schema.relations (Database.schema db) in
  let named =
    List.filter_map
      (fun r ->
        let name = r.Relation.name in
        Option.map (fun tbl -> (name, tbl)) (Database.table_opt db name))
      rels
  in
  let outcomes =
    Column_store.refresh_all (List.map (fun (_, t) -> Table.store t) named)
  in
  let relations =
    List.concat
      (List.map2
         (fun (name, _) o ->
           match o with Some o -> [ (name, o) ] | None -> [])
         named outcomes)
  in
  List.fold_left
    (fun acc (_, o) ->
      match o with
      | Store_fresh -> { acc with fresh = acc.fresh + 1 }
      | Store_absorbed n ->
          {
            acc with
            absorbed = acc.absorbed + 1;
            rows_applied = acc.rows_applied + n;
          }
      | Store_rebuilt -> { acc with rebuilt = acc.rebuilt + 1 })
    { relations; fresh = 0; absorbed = 0; rebuilt = 0; rows_applied = 0 }
    relations

let pp_outcome ppf = function
  | Store_fresh -> Format.pp_print_string ppf "fresh"
  | Store_absorbed n -> Format.fprintf ppf "absorbed %d rows" n
  | Store_rebuilt -> Format.pp_print_string ppf "rebuilt"

let pp ppf r =
  Format.fprintf ppf
    "@[<v>refresh: %d store%s (%d fresh, %d incremental, %d rebuilt), %d \
     delta rows applied"
    (List.length r.relations)
    (if List.length r.relations = 1 then "" else "s")
    r.fresh r.absorbed r.rebuilt r.rows_applied;
  List.iter
    (fun (name, o) ->
      match o with
      | Store_fresh -> ()
      | o -> Format.fprintf ppf "@ - %s: %a" name pp_outcome o)
    r.relations;
  Format.fprintf ppf "@]"

let to_string r = Format.asprintf "%a" pp r
