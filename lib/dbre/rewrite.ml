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
  (* the pre-restructuring schema: every final relation with the
     attributes moved out of it added back, so legacy references still
     resolve *)
  env : Scope.env;
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
  let original =
    List.fold_left
      (fun schema rel ->
        let name = rel.Relation.name in
        let moved_back =
          List.concat_map
            (fun s -> if String.equal s.source name then s.moved else [])
            splits
        in
        Schema.add schema
          (Relation.make name (List.sort_uniq String.compare (rel.Relation.attrs @ moved_back))))
      Schema.empty (Schema.relations final_schema)
  in
  { splits; env = Scope.of_schema original }

(* [s] with [col] applied to its own column references and [sub] to its
   subqueries *)
let map_select col sub (s : Ast.select) =
  let agg = function
    | Ast.Count_star -> Ast.Count_star
    | Ast.Count (d, c) -> Ast.Count (d, col c)
    | Ast.Sum c -> Ast.Sum (col c)
    | Ast.Avg c -> Ast.Avg (col c)
    | Ast.Min c -> Ast.Min (col c)
    | Ast.Max c -> Ast.Max (col c)
  in
  let expr = function
    | Ast.Col c -> Ast.Col (col c)
    | Ast.Agg_of a -> Ast.Agg_of (agg a)
    | (Ast.Lit _ | Ast.Host _) as e -> e
  in
  let rec cond (c : Ast.cond) =
    match c with
    | Ast.Cmp (op, a, b) -> Ast.Cmp (op, expr a, expr b)
    | Ast.And (a, b) -> Ast.And (cond a, cond b)
    | Ast.Or (a, b) -> Ast.Or (cond a, cond b)
    | Ast.Not a -> Ast.Not (cond a)
    | Ast.In (e, q) -> Ast.In (expr e, sub q)
    | Ast.In_list (e, es) -> Ast.In_list (expr e, List.map expr es)
    | Ast.Exists q -> Ast.Exists (sub q)
    | Ast.Between (e, lo, hi) -> Ast.Between (expr e, expr lo, expr hi)
    | Ast.Like (e, p) -> Ast.Like (expr e, p)
    | Ast.Is_null (e, b) -> Ast.Is_null (expr e, b)
  in
  {
    s with
    Ast.projections =
      List.map
        (function
          | Ast.Star -> Ast.Star
          | Ast.Proj (e, a) -> Ast.Proj (expr e, a)
          | Ast.Agg (g, a) -> Ast.Agg (agg g, a))
        s.Ast.projections;
    where = Option.map cond s.Ast.where;
    group_by = List.map col s.Ast.group_by;
    having = Option.map cond s.Ast.having;
    order_by = List.map (fun (c, d) -> (col c, d)) s.Ast.order_by;
  }

(* ---------- the rewrite ---------- *)

type join_add = {
  entry : Scope.entry;  (** the FROM entry being extended *)
  split : split;
  fresh : string;  (** alias of the joined split relation *)
}

type ctx = { plan : plan; mutable next_scope : int }

let frame ctx (s : Ast.select) =
  let n = ctx.next_scope in
  ctx.next_scope <- n + 1;
  Scope.of_from n s.Ast.from

(* every column reference of a select and of its subqueries, with the
   FROM entry it resolves to; [frames] starts with the select's own *)
let rec refs ctx frames (s : Ast.select) =
  let acc = ref [] in
  ignore
    (map_select
       (fun c ->
         Option.iter (fun e -> acc := (c, e) :: !acc) (Scope.found ctx.plan.env frames c);
         c)
       (fun q ->
         List.iter
           (fun sub -> acc := refs ctx (frame ctx sub :: frames) sub @ !acc)
           (Ast.query_selects q);
         q)
       s);
  !acc

(* [visible]: the joins the enclosing selects added, which correlated
   references to their moved columns requalify onto *)
let rec rewrite_query ctx visible frames (q : Ast.query) =
  let go = rewrite_query ctx visible frames in
  match q with
  | Ast.Select s -> Ast.Select (rewrite_select ctx visible frames s)
  | Ast.Intersect (a, b) -> Ast.Intersect (go a, go b)
  | Ast.Union (a, b) -> Ast.Union (go a, go b)
  | Ast.Except (a, b) -> Ast.Except (go a, go b)

and rewrite_select ctx visible outer (s : Ast.select) =
  let own = frame ctx s in
  let frames = own :: outer in
  let referenced = refs ctx frames s in
  (* fresh aliases never shadow an enclosing select's *)
  let counter = ref 0 in
  let rec fresh_alias () =
    let a = Printf.sprintf "__dbre%d" !counter in
    incr counter;
    if List.exists (fun j -> String.equal j.fresh a) visible then fresh_alias () else a
  in
  (* per FROM entry and per split of its relation: does a reference to
     that entry, here or in a subquery, read a moved column? *)
  let joins =
    List.concat_map
      (fun (entry : Scope.entry) ->
        List.filter_map
          (fun split ->
            if
              String.equal split.source entry.e_rel
              && List.exists
                   (fun ((c : Ast.column), e) -> e = entry && List.mem c.Ast.col split.moved)
                   referenced
            then Some { entry; split; fresh = fresh_alias () }
            else None)
          ctx.plan.splits)
      own
  in
  let visible = joins @ visible in
  let fix_col (c : Ast.column) =
    match Scope.found ctx.plan.env frames c with
    | None -> c
    | Some e -> (
        match
          List.find_opt (fun j -> j.entry = e && List.mem c.Ast.col j.split.moved) visible
        with
        | Some j -> { c with Ast.tbl = Some j.fresh }
        | None ->
            (* the added joins can make previously-unambiguous
               unqualified columns ambiguous (the split relation
               repeats the join attributes): qualify them with their
               resolved entry *)
            if c.Ast.tbl = None && List.exists (fun j -> j.entry.e_scope = e.e_scope) visible
            then { c with Ast.tbl = Some e.e_alias }
            else c)
  in
  let s = map_select fix_col (rewrite_query ctx visible frames) s in
  if joins = [] then s
  else
    let join_conds =
      List.concat_map
        (fun j ->
          List.map
            (fun a ->
              Ast.Cmp
                ( Ast.Eq,
                  Ast.Col (Ast.column ~tbl:j.entry.e_alias a),
                  Ast.Col (Ast.column ~tbl:j.fresh a) ))
            j.split.lhs)
        joins
    in
    {
      s with
      Ast.from = s.Ast.from @ List.map (fun j -> Ast.table_ref ~alias:j.fresh j.split.target) joins;
      where =
        List.fold_left
          (fun acc c ->
            match acc with None -> Some c | Some w -> Some (Ast.And (w, c)))
          s.Ast.where join_conds;
    }

let query plan q = rewrite_query { plan; next_scope = 0 } [] [] q

let statement plan (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q -> Ast.Query (query plan q)
  | Ast.Insert_select (rel, cols, q) -> Ast.Insert_select (rel, cols, query plan q)
  | Ast.Select_into (targets, q) -> Ast.Select_into (targets, query plan q)
  | Ast.Declare_cursor (c, q, sp) -> Ast.Declare_cursor (c, query plan q, sp)
  | Ast.Create_view cv ->
      Ast.Create_view { cv with Ast.cv_query = query plan cv.Ast.cv_query }
  | Ast.Create _ | Ast.Insert _ | Ast.Update _ | Ast.Delete _ | Ast.Alter _
  | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _ ->
      stmt

let sql plan text =
  Result.map
    (fun stmt -> Pretty.statement_to_string (statement plan stmt))
    (Parser.parse_statement text)
