open Relational

type column = { rc_rel : string; rc_attr : string; rc_span : Span.t }

(* ------------------------------------------------------------------ *)
(* The name environment                                                 *)
(* ------------------------------------------------------------------ *)

(* a view exports named columns, each mapping (when resolvable) to a
   base-relation column *)
type env = { schema : Schema.t; views : (string * (string * column option) list) list }

let of_schema schema = { schema; views = [] }
let schema env = env.schema

let known env rel = Schema.mem env.schema rel || List.mem_assoc rel env.views

let base env rel attr span =
  match Schema.find env.schema rel with
  | Some r ->
      if Relation.has_attr r attr then Some { rc_rel = rel; rc_attr = attr; rc_span = span }
      else None
  | None -> (
      match List.assoc_opt rel env.views with
      | Some cols -> (
          match List.assoc_opt attr cols with
          | Some (Some rc) -> Some { rc with rc_span = span }
          | _ -> None)
      | None -> None)

let provides env rel attr =
  match Schema.find env.schema rel with
  | Some r -> Relation.has_attr r attr
  | None -> (
      match List.assoc_opt rel env.views with
      | Some cols -> List.mem_assoc attr cols
      | None -> false)

(* ------------------------------------------------------------------ *)
(* FROM frames                                                          *)
(* ------------------------------------------------------------------ *)

type entry = { e_alias : string; e_rel : string; e_span : Span.t; e_scope : int }
type frame = entry list

let of_from scope (from : Ast.table_ref list) =
  List.map
    (fun (r : Ast.table_ref) ->
      {
        e_alias = Option.value ~default:r.rel r.alias;
        e_rel = r.rel;
        e_span = r.t_span;
        e_scope = scope;
      })
    from

let target scope rel = [ { e_alias = rel; e_rel = rel; e_span = Span.dummy; e_scope = scope } ]

(* ------------------------------------------------------------------ *)
(* Resolution                                                           *)
(* ------------------------------------------------------------------ *)

type resolution =
  | Found of entry
  | Ambiguous of entry list
  | No_column of entry option
  | Unknown_qualifier
  | Unknown_owner

let resolve env (frames : frame list) (c : Ast.column) =
  match c.tbl with
  | Some q ->
      let rec search = function
        | [] -> Unknown_qualifier
        | f :: rest -> (
            match List.find_opt (fun e -> e.e_alias = q) f with
            | Some e ->
                if not (known env e.e_rel) then Unknown_owner
                else if provides env e.e_rel c.col then Found e
                else No_column (Some e)
            | None -> search rest)
      in
      search frames
  | None ->
      let rec search = function
        | [] ->
            if List.exists (List.exists (fun e -> not (known env e.e_rel))) frames
            then Unknown_owner
            else No_column None
        | f :: rest -> (
            match List.filter (fun e -> provides env e.e_rel c.col) f with
            | [ e ] -> Found e
            | [] -> search rest
            | hits -> Ambiguous hits)
      in
      search frames

let found env frames c =
  match resolve env frames c with
  | Found e -> Some e
  | Ambiguous _ | No_column _ | Unknown_qualifier | Unknown_owner -> None

let column env frames (c : Ast.column) =
  Option.bind (found env frames c) (fun e -> base env e.e_rel c.col c.c_span)

(* ------------------------------------------------------------------ *)
(* View column maps                                                     *)
(* ------------------------------------------------------------------ *)

let attrs_of env rel =
  match Schema.find env.schema rel with
  | Some r -> r.Relation.attrs
  | None -> (
      match List.assoc_opt rel env.views with
      | Some cols -> List.map fst cols
      | None -> [])

let define_view env (cv : Ast.create_view) =
  let computed =
    match Ast.query_selects cv.cv_query with
    | [] -> []
    | s :: _ ->
        let frame = of_from 0 s.from in
        List.concat_map
          (function
            | Ast.Star ->
                List.concat_map
                  (fun e ->
                    List.map (fun a -> (a, base env e.e_rel a Span.dummy)) (attrs_of env e.e_rel))
                  frame
            | Ast.Proj (Ast.Col c, alias) ->
                [ (Option.value ~default:c.col alias, column env [ frame ] c) ]
            | Ast.Proj (_, Some alias) | Ast.Agg (_, Some alias) -> [ (alias, None) ]
            | Ast.Proj (_, None) | Ast.Agg (_, None) -> [])
          s.projections
  in
  (* of two exports with one name the first wins *)
  let computed =
    List.rev
      (List.fold_left
         (fun acc (n, rc) -> if List.mem_assoc n acc then acc else (n, rc) :: acc)
         [] computed)
  in
  let cols =
    match cv.cv_cols with
    | None -> computed
    | Some names ->
        let rec rename names cols =
          match (names, cols) with
          | [], _ | _, [] -> []
          | n :: ns, (_, rc) :: cs -> (n, rc) :: rename ns cs
        in
        rename names computed
  in
  { env with views = (cv.cv_name, cols) :: env.views }
