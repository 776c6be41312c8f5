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

(* Not-nulls compare as the paper's N ([Relation.not_null_attrs]): a
   DDL's PRIMARY KEY declares its columns NOT NULL where a relation
   built in memory may leave that implied by the key. *)
let disagreement (rel : Relation.t) table =
  let have = Table.schema table in
  let list l = "(" ^ String.concat ", " l ^ ")" in
  if not (String.equal have.name rel.name && have.attrs = rel.attrs) then
    Some
      (Printf.sprintf
         "in-memory extension declares %s%s but the schema expects %s%s"
         have.name (list have.attrs) rel.name (list rel.attrs))
  else
    let domains (r : Relation.t) =
      list (List.map (fun (a, d) -> a ^ " " ^ Domain.to_string d) r.domains)
    and uniques (r : Relation.t) = list (List.map list r.uniques)
    and not_nulls r = list (Relation.not_null_attrs r) in
    match
      List.filter_map
        (fun (field, show) ->
          if String.equal (show have) (show rel) then None
          else
            Some
              (Printf.sprintf "%s %s, expected %s" field (show have) (show rel)))
        [ ("domains", domains); ("uniques", uniques); ("not-nulls", not_nulls) ]
    with
    | [] -> None
    | differ ->
        Some
          (Printf.sprintf
             "in-memory extension of %s disagrees with the schema: %s"
             rel.name (String.concat "; " differ))

let adopt rel table =
  match disagreement rel table with
  | None -> Ok (table, None)
  | Some msg ->
      Error
        (Error.make ~stage:Error.Load ~relation:rel.Relation.name
           Error.Type_mismatch msg)

let load ?header ?mode ?supervise rel = function
  | Csv_file path -> Csv.load_file ?header ?mode ?supervise rel path
  | Csv_inline text -> Csv.load ?header ?mode ?supervise rel text
  | In_memory table -> adopt rel table
