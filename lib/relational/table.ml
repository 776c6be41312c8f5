type t = { schema : Relation.t; store : Column_store.t }

let create schema = { schema; store = Column_store.create schema }

let check_attrs fn store schema =
  if not (Column_store.same_attributes store schema) then
    invalid_arg
      (Printf.sprintf "Table.%s(%s): attribute lists differ" fn
         schema.Relation.name)

let of_store schema store =
  check_attrs "of_store" store schema;
  { schema; store }

let with_schema t schema =
  check_attrs "with_schema" t.store schema;
  { t with schema }

let schema t = t.schema
let store t = t.store
let cardinality t = Column_store.cardinality t.store
let version t = Column_store.version t.store

let check_arity t tup =
  if Array.length tup <> Relation.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity mismatch (%d, expected %d)"
         t.schema.Relation.name (Array.length tup)
         (Relation.arity t.schema))

let insert_tuple t tup =
  check_arity t tup;
  Column_store.append t.store [| tup |]

let insert t values = insert_tuple t (Tuple.of_list values)

(* every arity is validated before anything is touched *)
let insert_many t values =
  let tups = Array.of_list (List.map Tuple.of_list values) in
  Array.iter (check_arity t) tups;
  Column_store.append t.store tups

let delete_rows t idxs =
  let n = cardinality t in
  List.iter
    (fun i ->
      if i < 0 || i >= n then
        invalid_arg
          (Printf.sprintf "Table.delete_rows(%s): index %d out of bounds (size %d)"
             t.schema.Relation.name i n))
    idxs;
  Column_store.delete t.store (Array.of_list (List.sort_uniq Int.compare idxs))

let rows t = Column_store.decode t.store
let to_lists t = Array.to_list (Array.map Tuple.to_list (rows t))

let positions t attrs =
  let pos a =
    try Relation.attr_index t.schema a
    with Not_found ->
      invalid_arg
        (Printf.sprintf "Table(%s): unknown attribute %s"
           t.schema.Relation.name a)
  in
  Array.of_list (List.map pos attrs)

let value t tup a = tup.(Relation.attr_index t.schema a)

let pp ?(max_rows = 20) ppf t =
  Format.fprintf ppf "@[<v>%a@ " Relation.pp t.schema;
  let all = rows t in
  let n = Array.length all in
  let shown = min n max_rows in
  for i = 0 to shown - 1 do
    Format.fprintf ppf "%a@ " Tuple.pp all.(i)
  done;
  if n > shown then Format.fprintf ppf "... (%d more rows)@ " (n - shown);
  Format.fprintf ppf "@]"
