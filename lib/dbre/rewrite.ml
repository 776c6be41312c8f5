open Relational
open Deps
open Sqlx

(* one FD split: [source] lost [moved]; they now live in [target],
   reachable by joining on [lhs] *)
type split = {
  source : string;
  lhs : string list;
  moved : string list;
  target : string;
}

type plan = {
  splits : split list;
  (* per relation name, its pre-restructuring attributes (final attrs
     plus anything moved out) — used to resolve unqualified columns *)
  original_attrs : (string * string list) list;
}

let plan (result : Pipeline.result) =
  let final_schema = result.Pipeline.restruct_result.Restruct.schema in
  let renamings = result.Pipeline.restruct_result.Restruct.renamings in
  let splits =
    List.filter_map
      (fun (fd : Fd.t) ->
        match List.assoc_opt (Attribute.make fd.Fd.rel fd.Fd.lhs) renamings with
        | None -> None
        | Some target -> (
            match Schema.find final_schema fd.Fd.rel with
            | None -> None
            | Some now ->
                let moved =
                  List.filter (fun a -> not (Relation.has_attr now a)) fd.Fd.rhs
                in
                if moved = [] then None
                else Some { source = fd.Fd.rel; lhs = fd.Fd.lhs; moved; target }))
      result.Pipeline.rhs_result.Rhs_discovery.fds
  in
  let original_attrs =
    List.map
      (fun rel ->
        let name = rel.Relation.name in
        let moved_back =
          List.concat_map
            (fun s -> if String.equal s.source name then s.moved else [])
            splits
        in
        (name, rel.Relation.attrs @ moved_back))
      (Schema.relations final_schema)
  in
  { splits; original_attrs }

(* ---------- column collection / resolution within one SELECT ---------- *)

let rec expr_columns = function
  | Ast.Col c -> [ c ]
  | Ast.Lit _ | Ast.Host _ -> []
  | Ast.Agg_of agg -> agg_columns agg

and agg_columns = function
  | Ast.Count_star -> []
  | Ast.Count (_, c) | Ast.Sum c | Ast.Avg c | Ast.Min c | Ast.Max c -> [ c ]

and cond_columns (c : Ast.cond) =
  (* columns of THIS scope only: subqueries are rewritten recursively *)
  match c with
  | Ast.Cmp (_, e1, e2) -> expr_columns e1 @ expr_columns e2
  | Ast.And (a, b) | Ast.Or (a, b) -> cond_columns a @ cond_columns b
  | Ast.Not a -> cond_columns a
  | Ast.In (e, _) -> expr_columns e
  | Ast.In_list (e, es) -> expr_columns e @ List.concat_map expr_columns es
  | Ast.Exists _ -> []
  | Ast.Between (e, lo, hi) ->
      expr_columns e @ expr_columns lo @ expr_columns hi
  | Ast.Like (e, _) -> expr_columns e
  | Ast.Is_null (e, _) -> expr_columns e

let select_columns (s : Ast.select) =
  List.concat_map
    (function
      | Ast.Star -> []
      | Ast.Proj (e, _) -> expr_columns e
      | Ast.Agg (Ast.Count_star, _) -> []
      | Ast.Agg ((Ast.Count (_, c) | Ast.Sum c | Ast.Avg c | Ast.Min c | Ast.Max c), _)
        -> [ c ])
    s.Ast.projections
  @ (match s.Ast.where with Some c -> cond_columns c | None -> [])
  @ (match s.Ast.having with Some c -> cond_columns c | None -> [])
  @ s.Ast.group_by
  @ List.map fst s.Ast.order_by

(* which FROM entry does a column belong to? *)
let resolve_entry plan (from : Ast.table_ref list) (c : Ast.column) =
  let alias_of (r : Ast.table_ref) = Option.value ~default:r.Ast.rel r.Ast.alias in
  match c.Ast.tbl with
  | Some t -> List.find_opt (fun r -> String.equal (alias_of r) t) from
  | None -> (
      let holders =
        List.filter
          (fun (r : Ast.table_ref) ->
            match List.assoc_opt r.Ast.rel plan.original_attrs with
            | Some attrs -> List.mem c.Ast.col attrs
            | None -> false)
          from
      in
      match holders with [ r ] -> Some r | _ -> None)

(* ---------- the rewrite ---------- *)

type join_add = {
  entry_alias : string;  (** the FROM entry being extended *)
  split : split;
  fresh : string;  (** alias of the joined split relation *)
}

let rec rewrite_query plan (q : Ast.query) =
  match q with
  | Ast.Select s -> Ast.Select (rewrite_select plan s)
  | Ast.Intersect (a, b) -> Ast.Intersect (rewrite_query plan a, rewrite_query plan b)
  | Ast.Union (a, b) -> Ast.Union (rewrite_query plan a, rewrite_query plan b)
  | Ast.Except (a, b) -> Ast.Except (rewrite_query plan a, rewrite_query plan b)

and rewrite_select plan (s : Ast.select) =
  let alias_of (r : Ast.table_ref) = Option.value ~default:r.Ast.rel r.Ast.alias in
  let referenced = select_columns s in
  (* decide, per FROM entry and per split of its relation, whether any
     referenced column resolving to that entry was moved *)
  let counter = ref 0 in
  let joins =
    List.concat_map
      (fun (r : Ast.table_ref) ->
        List.filter_map
          (fun split ->
            if not (String.equal split.source r.Ast.rel) then None
            else
              let uses_moved =
                List.exists
                  (fun c ->
                    List.mem c.Ast.col split.moved
                    &&
                    match resolve_entry plan s.Ast.from c with
                    | Some entry -> String.equal (alias_of entry) (alias_of r)
                    | None -> false)
                  referenced
              in
              if uses_moved then begin
                let fresh = Printf.sprintf "__dbre%d" !counter in
                incr counter;
                Some { entry_alias = alias_of r; split; fresh }
              end
              else None)
          plan.splits)
      s.Ast.from
  in
  if joins = [] then
    (* still rewrite subqueries *)
    { s with Ast.where = Option.map (rewrite_cond plan) s.Ast.where }
  else begin
    (* requalify moved column references *)
    let fix_col (c : Ast.column) =
      let target_join =
        List.find_opt
          (fun j ->
            List.mem c.Ast.col j.split.moved
            &&
            match resolve_entry plan s.Ast.from c with
            | Some entry -> String.equal (alias_of entry) j.entry_alias
            | None -> false)
          joins
      in
      match target_join with
      | Some j -> { c with Ast.tbl = Some j.fresh }
      | None -> (
          (* the added joins can make previously-unambiguous unqualified
             columns ambiguous (the split relation repeats the join
             attributes): qualify them with their resolved entry *)
          match c.Ast.tbl with
          | Some _ -> c
          | None -> (
              match resolve_entry plan s.Ast.from c with
              | Some entry ->
                  { c with Ast.tbl = Some (alias_of entry) }
              | None -> c))
    in
    let fix_agg = function
      | Ast.Count_star -> Ast.Count_star
      | Ast.Count (d, c) -> Ast.Count (d, fix_col c)
      | Ast.Sum c -> Ast.Sum (fix_col c)
      | Ast.Avg c -> Ast.Avg (fix_col c)
      | Ast.Min c -> Ast.Min (fix_col c)
      | Ast.Max c -> Ast.Max (fix_col c)
    in
    let fix_expr = function
      | Ast.Col c -> Ast.Col (fix_col c)
      | Ast.Agg_of agg -> Ast.Agg_of (fix_agg agg)
      | (Ast.Lit _ | Ast.Host _) as e -> e
    in
    let rec fix_cond (c : Ast.cond) =
      match c with
      | Ast.Cmp (op, a, b) -> Ast.Cmp (op, fix_expr a, fix_expr b)
      | Ast.And (a, b) -> Ast.And (fix_cond a, fix_cond b)
      | Ast.Or (a, b) -> Ast.Or (fix_cond a, fix_cond b)
      | Ast.Not a -> Ast.Not (fix_cond a)
      | Ast.In (e, q) -> Ast.In (fix_expr e, rewrite_query plan q)
      | Ast.In_list (e, es) -> Ast.In_list (fix_expr e, List.map fix_expr es)
      | Ast.Exists q -> Ast.Exists (rewrite_query plan q)
      | Ast.Between (e, lo, hi) -> Ast.Between (fix_expr e, fix_expr lo, fix_expr hi)
      | Ast.Like (e, p) -> Ast.Like (fix_expr e, p)
      | Ast.Is_null (e, b) -> Ast.Is_null (fix_expr e, b)
    in
    let fix_proj = function
      | Ast.Star -> Ast.Star
      | Ast.Proj (e, a) -> Ast.Proj (fix_expr e, a)
      | Ast.Agg (agg, a) -> Ast.Agg (fix_agg agg, a)
    in
    let join_conds =
      List.concat_map
        (fun j ->
          List.map
            (fun a ->
              Ast.Cmp
                ( Ast.Eq,
                  Ast.Col (Ast.column ~tbl:j.entry_alias a),
                  Ast.Col (Ast.column ~tbl:j.fresh a) ))
            j.split.lhs)
        joins
    in
    let where =
      List.fold_left
        (fun acc c ->
          match acc with None -> Some c | Some w -> Some (Ast.And (w, c)))
        (Option.map fix_cond s.Ast.where)
        join_conds
    in
    {
      s with
      Ast.projections = List.map fix_proj s.Ast.projections;
      from =
        s.Ast.from
        @ List.map
            (fun j -> Ast.table_ref ~alias:j.fresh j.split.target)
            joins;
      where;
      group_by = List.map fix_col s.Ast.group_by;
      having = Option.map fix_cond s.Ast.having;
      order_by = List.map (fun (c, d) -> (fix_col c, d)) s.Ast.order_by;
    }
  end

and rewrite_cond plan (c : Ast.cond) =
  (* subquery-only rewriting used when the enclosing scope needs no join *)
  match c with
  | Ast.And (a, b) -> Ast.And (rewrite_cond plan a, rewrite_cond plan b)
  | Ast.Or (a, b) -> Ast.Or (rewrite_cond plan a, rewrite_cond plan b)
  | Ast.Not a -> Ast.Not (rewrite_cond plan a)
  | Ast.In (e, q) -> Ast.In (e, rewrite_query plan q)
  | Ast.Exists q -> Ast.Exists (rewrite_query plan q)
  | Ast.Cmp _ | Ast.In_list _ | Ast.Between _ | Ast.Like _ | Ast.Is_null _ ->
      c

let query = rewrite_query

let statement plan (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q -> Ast.Query (rewrite_query plan q)
  | Ast.Insert_select (rel, cols, q) ->
      Ast.Insert_select (rel, cols, rewrite_query plan q)
  | Ast.Select_into (targets, q) ->
      Ast.Select_into (targets, rewrite_query plan q)
  | Ast.Declare_cursor (c, q, sp) ->
      Ast.Declare_cursor (c, rewrite_query plan q, sp)
  | Ast.Create_view cv ->
      Ast.Create_view { cv with Ast.cv_query = rewrite_query plan cv.Ast.cv_query }
  | Ast.Create _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Alter _
  | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _ ->
      stmt

let sql plan text =
  Result.map
    (fun stmt -> Pretty.statement_to_string (statement plan stmt))
    (Parser.parse_statement text)
