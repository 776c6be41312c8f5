(* Extension sources: see source.mli. *)

type t =
  | Csv_file of string
  | Csv_inline of string
  | In_memory of Table.t

let csv_file path = Csv_file path
let csv_inline text = Csv_inline text
let in_memory table = In_memory table

let describe = function
  | Csv_file path -> "csv-file:" ^ path
  | Csv_inline text -> Printf.sprintf "csv-inline:%db" (String.length text)
  | In_memory table -> "in-memory:" ^ (Table.schema table).Relation.name

(* adopt an in-memory table only when its relation agrees with the
   declared one: same name, same attributes in the same order — nothing
   downstream revalidates an adopted table *)
let adopt rel table =
  let have = Table.schema table in
  if
    String.equal have.Relation.name rel.Relation.name
    && have.Relation.attrs = rel.Relation.attrs
  then Ok (table, None)
  else
    Error
      (Error.make ~stage:Error.Load ~relation:rel.Relation.name
         Error.Type_mismatch
         (Printf.sprintf
            "in-memory extension declares %s(%s) but the schema expects \
             %s(%s)"
            have.Relation.name
            (String.concat ", " have.Relation.attrs)
            rel.Relation.name
            (String.concat ", " rel.Relation.attrs)))

let load ?header ?mode ?pool ?supervise ?min_parallel_bytes rel = function
  | Csv_file path ->
      Csv.load_file ?header ?mode ?pool ?supervise ?min_parallel_bytes rel
        path
  | Csv_inline text ->
      Csv.load ?header ?mode ?pool ?supervise ?min_parallel_bytes rel text
  | In_memory table -> adopt rel table
