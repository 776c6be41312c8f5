open Relational

type stats = { sets_tested : int; keys_found : int }

let unique_over ?(engine = Engine.default) table attrs =
  Column_store.unique
    (Column_store.of_table ~delta_fraction:engine.Engine.delta_fraction table)
    attrs

let minimal_unique_sets ?engine ?(max_size = 3) table =
  let attrs = Array.of_list (Table.schema table).Relation.attrs in
  let n = Array.length attrs in
  let max_size = min max_size n in
  let found = ref [] and tested = ref 0 in
  let superset_of_key set =
    List.exists (fun k -> Attribute.Names.subset k set) !found
  in
  if Table.cardinality table > 0 then
    for size = 1 to max_size do
      let rec choose start acc count =
        if count = 0 then begin
          let set = Attribute.Names.normalize acc in
          if not (superset_of_key set) then begin
            incr tested;
            if unique_over ?engine table set then found := set :: !found
          end
        end
        else
          for i = start to n - count do
            choose (i + 1) (attrs.(i) :: acc) (count - 1)
          done
      in
      choose 0 [] size
    done;
  let keys =
    List.sort
      (fun a b ->
        match Int.compare (List.length a) (List.length b) with
        | 0 -> Attribute.Names.compare a b
        | c -> c)
      !found
  in
  (keys, { sets_tested = !tested; keys_found = List.length keys })

let suggest ?engine ?max_size db =
  List.filter_map
    (fun rel ->
      if rel.Relation.uniques <> [] then None
      else
        let keys, _ =
          minimal_unique_sets ?engine ?max_size
            (Database.table db rel.Relation.name)
        in
        if keys = [] then None else Some (rel.Relation.name, keys))
    (Schema.relations (Database.schema db))

let apply_suggestions ?engine ?max_size ~confirm db =
  let added = ref 0 in
  List.iter
    (fun (rel_name, keys) ->
      List.iter
        (fun key ->
          if confirm rel_name key then begin
            let table = Database.table db rel_name in
            let updated = Relation.add_unique (Table.schema table) key in
            (* constraint-only schema update: share the backing storage
               and the encoded column store instead of an O(n) rebuild *)
            Database.replace_table db (Table.with_schema table updated);
            incr added
          end)
        keys)
    (suggest ?engine ?max_size db);
  !added
