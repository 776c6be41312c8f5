type t = {
  mutable schema : Schema.t;
  tables : (string, Table.t) Hashtbl.t;
}

let create schema =
  let tables = Hashtbl.create 16 in
  List.iter
    (fun r -> Hashtbl.replace tables r.Relation.name (Table.create r))
    (Schema.relations schema);
  { schema; tables }

let schema t = t.schema

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None -> raise Not_found

let table_opt t name = Hashtbl.find_opt t.tables name
let insert t name values = Table.insert (table t name) values
let insert_many t name rows = Table.insert_many (table t name) rows

let replace_table t tbl =
  let r = Table.schema tbl in
  t.schema <- Schema.replace t.schema r;
  Hashtbl.replace t.tables r.Relation.name tbl

let add_relation t r =
  t.schema <- Schema.add t.schema r;
  Hashtbl.replace t.tables r.Relation.name (Table.create r)

let cardinality t name = Table.cardinality (table t name)

let count_distinct ?(engine = Engine.default) t name attrs =
  Column_store.count_distinct
    (Column_store.of_table ~delta_fraction:engine.Engine.delta_fraction
       (table t name))
    attrs

let join_count ?(engine = Engine.default) t (r1, x1) (r2, x2) =
  let delta_fraction = engine.Engine.delta_fraction in
  Column_store.equijoin_distinct_count
    (Column_store.of_table ~delta_fraction (table t r1))
    x1
    (Column_store.of_table ~delta_fraction (table t r2))
    x2

let total_tuples t =
  Hashtbl.fold (fun _ tbl acc -> acc + Table.cardinality tbl) t.tables 0

let check_constraints t =
  let errors =
    List.concat_map
      (fun r ->
        match Table.check_constraints (table t r.Relation.name) with
        | Ok () -> []
        | Error msgs -> msgs)
      (Schema.relations t.schema)
  in
  match errors with [] -> Ok () | errs -> Error errs

let copy_structure t = create t.schema

let pp_stats ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-20s arity=%d  rows=%d@ " r.Relation.name
        (Relation.arity r)
        (cardinality t r.Relation.name))
    (Schema.relations t.schema);
  Format.fprintf ppf "@]"
