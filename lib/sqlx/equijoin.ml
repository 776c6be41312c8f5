open Relational

type t = {
  rel1 : string;
  attrs1 : string list;
  rel2 : string;
  attrs2 : string list;
}

let make (rel1, attrs1) (rel2, attrs2) =
  if attrs1 = [] || attrs2 = [] then invalid_arg "Equijoin.make: empty side";
  if List.length attrs1 <> List.length attrs2 then
    invalid_arg "Equijoin.make: width mismatch";
  (* order the sides, then sort the attribute pairs for canonical form *)
  let (rel1, attrs1), (rel2, attrs2) =
    if Stdlib.compare (rel1, attrs1) (rel2, attrs2) <= 0 then
      ((rel1, attrs1), (rel2, attrs2))
    else ((rel2, attrs2), (rel1, attrs1))
  in
  let pairs = List.combine attrs1 attrs2 in
  let pairs = List.sort_uniq Stdlib.compare pairs in
  let attrs1 = List.map fst pairs and attrs2 = List.map snd pairs in
  { rel1; attrs1; rel2; attrs2 }

let compare a b =
  Stdlib.compare
    (a.rel1, a.attrs1, a.rel2, a.attrs2)
    (b.rel1, b.attrs1, b.rel2, b.attrs2)

let equal a b = compare a b = 0

let pp ppf t =
  Format.fprintf ppf "%s[%s] |X| %s[%s]" t.rel1
    (String.concat "," t.attrs1)
    t.rel2
    (String.concat "," t.attrs2)

let to_string t = Format.asprintf "%a" pp t

let dedupe joins =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun j ->
      if Hashtbl.mem seen j then false
      else begin
        Hashtbl.add seen j ();
        true
      end)
    joins

(* ------------------------------------------------------------------ *)
(* Grouping                                                             *)
(* ------------------------------------------------------------------ *)

let group links =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (key, (a : Scope.column), (b : Scope.column)) ->
      match Hashtbl.find_opt tbl key with
      | Some (_, _, cell) -> cell := (a.rc_attr, b.rc_attr) :: !cell
      | None ->
          Hashtbl.add tbl key (a.rc_rel, b.rc_rel, ref [ (a.rc_attr, b.rc_attr) ]);
          order := key :: !order)
    links;
  dedupe
    (List.rev_map
       (fun key ->
         let rel_a, rel_b, cell = Hashtbl.find tbl key in
         (* sorted before [make] picks the side order of a self-join *)
         let attr_pairs = List.sort_uniq Stdlib.compare !cell in
         make (rel_a, List.map fst attr_pairs) (rel_b, List.map snd attr_pairs))
       !order)

(* ------------------------------------------------------------------ *)
(* The statement walk                                                   *)
(* ------------------------------------------------------------------ *)

type ctx = {
  env : Scope.env;
  mutable next_scope : int;
  mutable links : ((Scope.entry * Scope.entry) * Scope.column * Scope.column) list;
}

let fresh_scope ctx =
  let s = ctx.next_scope in
  ctx.next_scope <- s + 1;
  s

let from_frame ctx from = Scope.of_from (fresh_scope ctx) from

let found ctx frames (c : Ast.column) =
  Option.map
    (fun (e : Scope.entry) ->
      (e, { Scope.rc_rel = e.e_rel; rc_attr = c.col; rc_span = c.c_span }))
    (Scope.found ctx.env frames c)

let same_instance (a : Scope.entry) (b : Scope.entry) =
  a.e_scope = b.e_scope && a.e_alias = b.e_alias

(* two sides read the same value: keep one canonical orientation per
   instance pair, and no pair within one instance *)
let record ctx ((ea : Scope.entry), ca) ((eb : Scope.entry), cb) =
  if not (same_instance ea eb) then
    ctx.links <-
      (if Stdlib.compare (ea.e_scope, ea.e_alias) (eb.e_scope, eb.e_alias) <= 0
       then ((ea, eb), ca, cb)
       else ((eb, ea), cb, ca))
      :: ctx.links

let record_opt ctx a b =
  match (a, b) with Some a, Some b -> record ctx a b | _ -> ()

(* the single (column) projection of a simple select, if any *)
let single_projected_column (s : Ast.select) =
  match s.projections with
  | [ Ast.Proj (Ast.Col c, _) ] -> Some c
  | _ -> None

let projected_columns (s : Ast.select) =
  let cols =
    List.map
      (function Ast.Proj (Ast.Col c, _) -> Some c | _ -> None)
      s.projections
  in
  if List.for_all Option.is_some cols then Some (List.map Option.get cols)
  else None

let rec walk_query ctx frames (q : Ast.query) =
  match q with
  | Ast.Select s -> walk_select ctx frames (from_frame ctx s.from) s
  | Ast.Union (q1, q2) | Ast.Except (q1, q2) ->
      walk_query ctx frames q1;
      walk_query ctx frames q2
  | Ast.Intersect (q1, q2) ->
      walk_query ctx frames q1;
      walk_query ctx frames q2;
      intersect_pairs ctx frames q1 q2

and intersect_pairs ctx frames q1 q2 =
  (* SELECT x FROM R ... INTERSECT SELECT y FROM S ...  ⇒  R[x] ⋈ S[y] *)
  match (q1, q2) with
  | Ast.Select s1, (Ast.Select s2 | Ast.Intersect (Ast.Select s2, _)) -> (
      match (projected_columns s1, projected_columns s2) with
      | Some cs1, Some cs2 when List.length cs1 = List.length cs2 ->
          let f1 = from_frame ctx s1.from in
          let f2 = from_frame ctx s2.from in
          List.iter2
            (fun c1 c2 ->
              record_opt ctx (found ctx (f1 :: frames) c1) (found ctx (f2 :: frames) c2))
            cs1 cs2
      | _ -> ())
  | _ -> ()

(* a select whose frame is already numbered; outer frames stay visible
   for correlation *)
and walk_select ctx outer frame (s : Ast.select) =
  let frames = frame :: outer in
  Option.iter (fun w -> List.iter (walk_conjunct ctx frames) (Ast.cond_conjuncts w)) s.where

and walk_conjunct ctx frames (c : Ast.cond) =
  match c with
  | Ast.Cmp (Ast.Eq, Ast.Col c1, Ast.Col c2) ->
      record_opt ctx (found ctx frames c1) (found ctx frames c2)
  | Ast.Cmp (_, _, _) -> ()
  | Ast.In (Ast.Col c1, (Ast.Select sub as q)) -> (
      (* x IN (SELECT y FROM S ...) *)
      match (found ctx frames c1, single_projected_column sub) with
      | Some a, Some proj_col ->
          let sub_frame = from_frame ctx sub.from in
          record_opt ctx (Some a) (found ctx (sub_frame :: frames) proj_col);
          (* the subquery body, with its own frame, for correlated
             equalities *)
          walk_select ctx frames sub_frame sub
      | _ -> walk_query ctx frames q)
  | Ast.In (_, q) | Ast.Exists q -> walk_query ctx frames q
  | Ast.And _ -> assert false (* flattened by cond_conjuncts *)
  | Ast.Or (c1, c2) ->
      (* equalities under OR are not elicited, but nested subqueries are *)
      walk_nested_only ctx frames c1;
      walk_nested_only ctx frames c2
  | Ast.Not c -> walk_nested_only ctx frames c
  | Ast.In_list _ | Ast.Between _ | Ast.Like _ | Ast.Is_null _ -> ()

and walk_nested_only ctx frames (c : Ast.cond) =
  match c with
  | Ast.And (c1, c2) | Ast.Or (c1, c2) ->
      walk_nested_only ctx frames c1;
      walk_nested_only ctx frames c2
  | Ast.Not c -> walk_nested_only ctx frames c
  | Ast.In (_, q) | Ast.Exists q -> walk_query ctx frames q
  | Ast.Cmp _ | Ast.In_list _ | Ast.Between _ | Ast.Like _ | Ast.Is_null _ ->
      ()

(* [INSERT INTO t (c1, c2) SELECT a, b FROM s ...] equates t.c_i with the
   i-th projected column: the copied values must agree, which is exactly
   the equi-join evidence the paper elicits from navigation. The target
   is one instance of its own, so pairs group per source FROM instance. *)
let insert_select ctx rel cols (q : Ast.query) =
  match Schema.find (Scope.schema ctx.env) rel with
  | None -> ()
  | Some target_rel ->
      let targets = Option.value ~default:target_rel.Relation.attrs cols in
      let target = List.hd (Scope.target (fresh_scope ctx) rel) in
      List.iter
        (fun (s : Ast.select) ->
          match projected_columns s with
          | Some pcols when List.length pcols = List.length targets ->
              let frame = from_frame ctx s.from in
              List.iter2
                (fun tattr pcol ->
                  if Relation.has_attr target_rel tattr then
                    match found ctx [ frame ] pcol with
                    | Some (e, src) when not (src.rc_rel = rel && src.rc_attr = tattr) ->
                        ctx.links <-
                          ( (target, e),
                            { Scope.rc_rel = rel; rc_attr = tattr; rc_span = Span.dummy },
                            src )
                          :: ctx.links
                    | _ -> ())
                targets pcols
          | _ -> ())
        (Ast.query_selects q)

let pairs schema (stmt : Ast.statement) =
  let ctx = { env = Scope.of_schema schema; next_scope = 0; links = [] } in
  (match stmt with
  | Ast.Query q | Ast.Select_into (_, q) | Ast.Declare_cursor (_, q, _) ->
      walk_query ctx [] q
  | Ast.Create_view cv -> walk_query ctx [] cv.cv_query
  | Ast.Update (rel, _, Some where) | Ast.Delete (rel, Some where) ->
      let frames = [ Scope.target (fresh_scope ctx) rel ] in
      List.iter (walk_conjunct ctx frames) (Ast.cond_conjuncts where)
  | Ast.Insert_select (rel, cols, q) ->
      walk_query ctx [] q;
      insert_select ctx rel cols q
  | Ast.Update (_, _, None) | Ast.Delete (_, None)
  | Ast.Create _ | Ast.Insert _ | Ast.Alter _
  | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _ ->
      ());
  List.rev ctx.links

let of_statement schema stmt = group (pairs schema stmt)
