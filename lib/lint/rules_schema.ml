open Relational
open Sqlx

let diag = Diagnostic.make

(* the stem of a repeated-group member: name minus trailing digits; None
   when the name has no digit suffix or nothing else *)
let repeated_stem name =
  let n = String.length name in
  let rec first_digit i =
    if i = 0 then 0
    else
      match name.[i - 1] with '0' .. '9' -> first_digit (i - 1) | _ -> i
  in
  let cut = first_digit n in
  if cut = n || cut = 0 then None else Some (String.sub name 0 cut)

let lower = String.lowercase_ascii

(* group (stem, representative members) preserving first-seen order *)
let repeated_groups names =
  let tbl = Hashtbl.create 8 in
  let order = ref [] in
  List.iter
    (fun name ->
      match repeated_stem (lower name) with
      | None -> ()
      | Some stem -> (
          match Hashtbl.find_opt tbl stem with
          | Some cell -> cell := name :: !cell
          | None ->
              Hashtbl.add tbl stem (ref [ name ]);
              order := stem :: !order))
    names;
  List.filter_map
    (fun stem ->
      match !(Hashtbl.find tbl stem) with
      | [ _ ] | [] -> None
      | members -> Some (stem, List.rev members))
    (List.rev !order)

(* ---------------------------------------------------------------- *)
(* AST-level checks                                                   *)
(* ---------------------------------------------------------------- *)

let has_key (ct : Ast.create_table) =
  List.exists
    (fun (c : Ast.column_def) ->
      List.mem Ast.C_unique c.col_constraints
      || List.mem Ast.C_primary_key c.col_constraints)
    ct.columns
  || List.exists
       (function
         | Ast.T_unique _ | Ast.T_primary_key _ -> true
         | Ast.T_foreign_key _ -> false)
       ct.constraints

let l001 ?source_name (ct : Ast.create_table) =
  if has_key ct then []
  else
    [
      diag ?source_name ~span:ct.ct_span ~code:"L001" Diagnostic.Warning
        (Printf.sprintf
           "relation %s declares no key: it contributes nothing to K and \
            no referential constraint can target it"
           ct.ct_name);
    ]

let l002 ?source_name (ct : Ast.create_table) =
  (* attributes under a (non-PRIMARY) unique constraint that may be NULL *)
  let col_def name =
    List.find_opt
      (fun (c : Ast.column_def) -> lower c.col_name = lower name)
      ct.columns
  in
  let nullable name =
    match col_def name with
    | None -> false (* unknown attr: L005/L003 territory *)
    | Some c ->
        not
          (List.mem Ast.C_not_null c.col_constraints
          || List.mem Ast.C_primary_key c.col_constraints)
  in
  let unique_sets =
    List.filter_map
      (function Ast.T_unique cols -> Some cols | _ -> None)
      ct.constraints
    @ List.filter_map
        (fun (c : Ast.column_def) ->
          if
            List.mem Ast.C_unique c.col_constraints
            && not (List.mem Ast.C_primary_key c.col_constraints)
          then Some [ c.col_name ]
          else None)
        ct.columns
  in
  List.concat_map
    (fun cols ->
      List.filter_map
        (fun a ->
          if nullable a then
            let span =
              match col_def a with
              | Some c -> c.cd_span
              | None -> ct.ct_span
            in
            Some
              (diag ?source_name ~span ~code:"L002" Diagnostic.Warning
                 (Printf.sprintf
                    "attribute %s.%s belongs to a UNIQUE key but is not \
                     declared NOT NULL: SQL UNIQUE admits NULLs, so this \
                     dictionary key may not identify tuples"
                    ct.ct_name a))
          else None)
        cols)
    unique_sets

let l003 ?source_name (ct : Ast.create_table) =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun (c : Ast.column_def) ->
      let k = lower c.col_name in
      if Hashtbl.mem seen k then
        Some
          (diag ?source_name ~span:c.cd_span ~code:"L003" Diagnostic.Error
             (Printf.sprintf "duplicate attribute %s in relation %s"
                c.col_name ct.ct_name))
      else begin
        Hashtbl.add seen k ();
        None
      end)
    ct.columns

let l004 ?source_name (ct : Ast.create_table) =
  List.map
    (fun (stem, members) ->
      let span =
        match
          List.find_opt
            (fun (c : Ast.column_def) -> List.mem c.col_name members)
            ct.columns
        with
        | Some c -> c.cd_span
        | None -> ct.ct_span
      in
      diag ?source_name ~span ~code:"L004" Diagnostic.Info
        (Printf.sprintf
           "relation %s repeats attribute group '%s' (%s): a denormalized \
            repeated group the Restruct step cannot split without expert \
            help"
           ct.ct_name stem
           (String.concat ", " members)))
    (repeated_groups
       (List.map (fun (c : Ast.column_def) -> c.col_name) ct.columns))

let l005 ?source_name (creates : Ast.create_table list)
    (ct : Ast.create_table) =
  let find_table name =
    List.find_opt (fun (t : Ast.create_table) -> lower t.ct_name = lower name) creates
  in
  let has_col (t : Ast.create_table) a =
    List.exists (fun (c : Ast.column_def) -> lower c.col_name = lower a) t.columns
  in
  let declares_key (t : Ast.create_table) cols =
    let canon l = List.sort String.compare (List.map lower l) in
    let want = canon cols in
    List.exists
      (function
        | Ast.T_unique k | Ast.T_primary_key k -> canon k = want
        | Ast.T_foreign_key _ -> false)
      t.constraints
    || (match cols with
       | [ a ] ->
           List.exists
             (fun (c : Ast.column_def) ->
               lower c.col_name = lower a
               && (List.mem Ast.C_unique c.col_constraints
                  || List.mem Ast.C_primary_key c.col_constraints))
             t.columns
       | _ -> false)
  in
  List.concat_map
    (function
      | Ast.T_unique _ | Ast.T_primary_key _ -> []
      | Ast.T_foreign_key (cols, target, tcols) -> (
          let fk_label =
            Printf.sprintf "FOREIGN KEY (%s) REFERENCES %s(%s)"
              (String.concat ", " cols)
              target
              (String.concat ", " tcols)
          in
          let err msg =
            [
              diag ?source_name ~span:ct.ct_span ~code:"L005" Diagnostic.Error
                (Printf.sprintf "%s in %s: %s" fk_label ct.ct_name msg);
            ]
          in
          if List.length cols <> List.length tcols then
            err "referencing and referenced column lists differ in width"
          else
            let local_missing =
              List.filter (fun a -> not (has_col ct a)) cols
            in
            if local_missing <> [] then
              err
                (Printf.sprintf "unknown local column %s"
                   (String.concat ", " local_missing))
            else
              match find_table target with
              | None ->
                  err (Printf.sprintf "unknown referenced table %s" target)
              | Some t ->
                  let missing =
                    List.filter (fun a -> not (has_col t a)) tcols
                  in
                  if missing <> [] then
                    err
                      (Printf.sprintf "unknown referenced column %s"
                         (String.concat ", " missing))
                  else if not (declares_key t tcols) then
                    [
                      diag ?source_name ~span:ct.ct_span ~code:"L005"
                        Diagnostic.Warning
                        (Printf.sprintf
                           "%s in %s: referenced columns are not a declared \
                            key of %s, so this constraint is not a \
                            referential integrity constraint in the \
                            paper's sense"
                           fk_label ct.ct_name target);
                    ]
                  else []))
    ct.constraints

let check_creates ?source_name creates =
  List.concat_map
    (fun ct ->
      l003 ?source_name ct
      @ l001 ?source_name ct
      @ l002 ?source_name ct
      @ l004 ?source_name ct
      @ l005 ?source_name creates ct)
    creates

let check_script ?source_name script =
  match Parser.parse_script script with
  | stmts ->
      check_creates ?source_name
        (List.filter_map
           (function Ast.Create ct -> Some ct | _ -> None)
           stmts)
  | exception Parser.Error msg ->
      [
        diag ?source_name ~code:"L006" Diagnostic.Error
          (Printf.sprintf "DDL script does not parse: %s" msg);
      ]

(* ---------------------------------------------------------------- *)
(* Dictionary-only checks                                             *)
(* ---------------------------------------------------------------- *)

let check_schema schema =
  List.concat_map
    (fun (r : Relation.t) ->
      let keyless =
        if r.Relation.uniques = [] then
          [
            diag ~code:"L001" Diagnostic.Warning
              (Printf.sprintf
                 "relation %s declares no key: it contributes nothing to K \
                  and no referential constraint can target it"
                 r.Relation.name);
          ]
        else []
      in
      let repeated =
        List.map
          (fun (stem, members) ->
            diag ~code:"L004" Diagnostic.Info
              (Printf.sprintf
                 "relation %s repeats attribute group '%s' (%s): a \
                  denormalized repeated group the Restruct step cannot \
                  split without expert help"
                 r.Relation.name stem
                 (String.concat ", " members)))
          (repeated_groups r.Relation.attrs)
      in
      keyless @ repeated)
    (Schema.relations schema)
