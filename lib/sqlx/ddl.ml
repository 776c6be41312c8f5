open Relational

(* a statement the schema refuses; caught by the entry points *)
exception Refused of string

(* A statement [Relation.make] would refuse is malformed SQL: say so
   as a parse error naming the table and the column. *)
let check_create (ct : Ast.create_table) attrs keys =
  let fail fmt =
    Printf.ksprintf (fun m -> raise (Refused m)) ("CREATE TABLE %s: " ^^ fmt) ct.ct_name
  in
  let rec distinct = function
    | [] -> ()
    | a :: rest ->
        if a = "" then fail "empty column name";
        if List.mem a rest then fail "column %s declared twice" a;
        distinct rest
  in
  if attrs = [] then fail "no column declared";
  distinct attrs;
  List.iter
    (List.iter (fun a -> if not (List.mem a attrs) then fail "key names undeclared column %s" a))
    keys

let relation (ct : Ast.create_table) =
  let attrs = List.map (fun (c : Ast.column_def) -> c.col_name) ct.columns in
  let domains =
    List.map
      (fun (c : Ast.column_def) -> (c.col_name, Domain.of_sql_type c.sql_type))
      ct.columns
  in
  let col_uniques =
    List.filter_map
      (fun (c : Ast.column_def) ->
        if
          List.mem Ast.C_unique c.col_constraints
          || List.mem Ast.C_primary_key c.col_constraints
        then Some [ c.col_name ]
        else None)
      ct.columns
  in
  let table_uniques =
    List.filter_map
      (function
        | Ast.T_unique cols | Ast.T_primary_key cols -> Some cols
        | Ast.T_foreign_key _ -> None)
      ct.constraints
  in
  let not_nulls =
    List.filter_map
      (fun (c : Ast.column_def) ->
        if
          List.mem Ast.C_not_null c.col_constraints
          || List.mem Ast.C_primary_key c.col_constraints
        then Some c.col_name
        else None)
      ct.columns
  in
  check_create ct attrs table_uniques;
  Relation.make ~domains
    ~uniques:(col_uniques @ table_uniques)
    ~not_nulls ct.ct_name attrs

let relation_of_create ct =
  match relation ct with rel -> Ok rel | exception Refused msg -> Error msg

let foreign_keys_of_create (ct : Ast.create_table) =
  List.filter_map
    (function
      | Ast.T_foreign_key (cols, target, tcols) ->
          Some (ct.ct_name, cols, target, tcols)
      | Ast.T_unique _ | Ast.T_primary_key _ -> None)
    ct.constraints

let add schema (ct : Ast.create_table) =
  if Schema.mem schema ct.ct_name then
    raise (Refused (Printf.sprintf "CREATE TABLE %s: table declared twice" ct.ct_name));
  Schema.add schema (relation ct)

let add_relation schema ct =
  match add schema ct with s -> Ok s | exception Refused msg -> Error msg

let schema_of_script script =
  let schema_of stmts =
    List.fold_left
      (fun (schema, fks) stmt ->
        match stmt with
        | Ast.Create ct -> (add schema ct, fks @ foreign_keys_of_create ct)
        | Ast.Query _ | Ast.Insert _ | Ast.Insert_select _ | Ast.Update _
        | Ast.Delete _ | Ast.Alter _ | Ast.Select_into _ | Ast.Declare_cursor _
        | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _
        | Ast.Create_view _ ->
            (* views are macro-expanded at analysis time, not materialized
               as schema relations *)
            (schema, fks))
      (Schema.empty, []) stmts
  in
  match Parser.parse_script script with
  | Error _ as e -> e
  | Ok stmts -> (
      match schema_of stmts with
      | v -> Ok v
      | exception Refused msg -> Error msg)

let sql_type_of_domain = function
  | Domain.Int -> "INT"
  | Domain.Float -> "FLOAT"
  | Domain.Bool -> "BOOLEAN"
  | Domain.Date -> "DATE"
  | Domain.String | Domain.Unknown -> "VARCHAR(80)"

let create_table_sql (rel : Relation.t) =
  let cols =
    List.map
      (fun a ->
        Printf.sprintf "%s %s%s" a
          (sql_type_of_domain (Relation.domain_of rel a))
          (if List.mem a rel.Relation.not_nulls then " NOT NULL" else ""))
      rel.Relation.attrs
  in
  let uniques =
    List.map
      (fun u -> Printf.sprintf "UNIQUE (%s)" (String.concat ", " u))
      rel.Relation.uniques
  in
  Printf.sprintf "CREATE TABLE %s (%s)" rel.Relation.name
    (String.concat ", " (cols @ uniques))
