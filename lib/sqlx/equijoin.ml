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
(* Column resolution through nested scopes                              *)
(* ------------------------------------------------------------------ *)

(* one frame per SELECT scope: (alias or relation name, relation name),
   plus a unique scope id so that two FROM instances of the same relation
   (self-join) stay distinct *)
type frame = { scope : int; entries : (string * string) list }

(* a resolved column: which FROM instance and which attribute, plus the
   source span of the reference it resolved from *)
type resolved = {
  r_scope : int;
  r_alias : string;
  r_rel : string;
  r_attr : string;
  r_span : Span.t;
}

let resolve schema (frames : frame list) (c : Ast.column) =
  match c.tbl with
  | Some alias ->
      let rec search = function
        | [] -> None
        | f :: rest -> (
            match List.assoc_opt alias f.entries with
            | Some rel when Schema.mem schema rel ->
                if
                  match Schema.find schema rel with
                  | Some r -> Relation.has_attr r c.col
                  | None -> false
                then
                  Some
                    {
                      r_scope = f.scope;
                      r_alias = alias;
                      r_rel = rel;
                      r_attr = c.col;
                      r_span = c.c_span;
                    }
                else None
            | Some _ -> None
            | None -> search rest)
      in
      search frames
  | None ->
      (* innermost frame containing exactly one relation with this attr *)
      let rec search = function
        | [] -> None
        | f :: rest -> (
            let hits =
              List.filter
                (fun (_, rel) ->
                  match Schema.find schema rel with
                  | Some r -> Relation.has_attr r c.col
                  | None -> false)
                f.entries
            in
            match hits with
            | [ (alias, rel) ] ->
                Some
                  {
                    r_scope = f.scope;
                    r_alias = alias;
                    r_rel = rel;
                    r_attr = c.col;
                    r_span = c.c_span;
                  }
            | [] -> search rest
            | _ :: _ :: _ -> None (* ambiguous *))
      in
      search frames

(* ------------------------------------------------------------------ *)
(* Traversal                                                            *)
(* ------------------------------------------------------------------ *)

type ctx = {
  schema : Schema.t;
  mutable next_scope : int;
  mutable pairs : (resolved * resolved) list;
}

let fresh_scope ctx =
  let s = ctx.next_scope in
  ctx.next_scope <- s + 1;
  s

let record ctx a b =
  (* keep one canonical orientation per instance pair *)
  let a, b =
    if
      Stdlib.compare (a.r_scope, a.r_alias) (b.r_scope, b.r_alias) <= 0
    then (a, b)
    else (b, a)
  in
  ctx.pairs <- (a, b) :: ctx.pairs

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
  | Ast.Select s -> walk_select ctx frames s
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
          let f1 = { scope = fresh_scope ctx; entries = entries_of_from s1.from } in
          let f2 = { scope = fresh_scope ctx; entries = entries_of_from s2.from } in
          let r1 = List.map (resolve ctx.schema (f1 :: frames)) cs1 in
          let r2 = List.map (resolve ctx.schema (f2 :: frames)) cs2 in
          List.iter2
            (fun a b ->
              match (a, b) with
              | Some a, Some b
                when (a.r_scope, a.r_alias) <> (b.r_scope, b.r_alias) ->
                  record ctx a b
              | _ -> ())
            r1 r2
      | _ -> ())
  | _ -> ()

and entries_of_from from =
  List.map
    (fun (r : Ast.table_ref) ->
      (Option.value ~default:r.rel r.alias, r.rel))
    from

and walk_select ctx frames (s : Ast.select) =
  let frame = { scope = fresh_scope ctx; entries = entries_of_from s.from } in
  let frames = frame :: frames in
  match s.where with
  | None -> ()
  | Some where ->
      List.iter (walk_conjunct ctx frames) (Ast.cond_conjuncts where)

and walk_conjunct ctx frames (c : Ast.cond) =
  match c with
  | Ast.Cmp (Ast.Eq, Ast.Col c1, Ast.Col c2) -> (
      match (resolve ctx.schema frames c1, resolve ctx.schema frames c2) with
      | Some a, Some b when (a.r_scope, a.r_alias) <> (b.r_scope, b.r_alias) ->
          record ctx a b
      | _ -> ())
  | Ast.Cmp (_, _, _) -> ()
  | Ast.In (Ast.Col c1, q) ->
      (* x IN (SELECT y FROM S ...) *)
      (match (resolve ctx.schema frames c1, q) with
      | Some a, Ast.Select sub -> (
          match single_projected_column sub with
          | Some proj_col ->
              let sub_frame =
                { scope = fresh_scope ctx; entries = entries_of_from sub.from }
              in
              (match resolve ctx.schema (sub_frame :: frames) proj_col with
              | Some b when (a.r_scope, a.r_alias) <> (b.r_scope, b.r_alias) ->
                  record ctx a b
              | _ -> ());
              (* visit the subquery body with its own frame for
                 correlated equalities *)
              walk_subselect ctx frames sub_frame sub
          | None -> walk_query ctx frames q)
      | _ -> walk_query ctx frames q)
  | Ast.In (_, q) -> walk_query ctx frames q
  | Ast.Exists q -> (
      match q with
      | Ast.Select sub ->
          let sub_frame =
            { scope = fresh_scope ctx; entries = entries_of_from sub.from }
          in
          walk_subselect ctx frames sub_frame sub
      | _ -> walk_query ctx frames q)
  | Ast.And _ -> assert false (* flattened by cond_conjuncts *)
  | Ast.Or (c1, c2) ->
      (* equalities under OR are not elicited, but nested subqueries are *)
      walk_nested_only ctx frames c1;
      walk_nested_only ctx frames c2
  | Ast.Not c -> walk_nested_only ctx frames c
  | Ast.In_list _ | Ast.Between _ | Ast.Like _ | Ast.Is_null _ -> ()

and walk_subselect ctx outer_frames sub_frame (sub : Ast.select) =
  (* like walk_select, but reuse the given frame (already numbered) and
     keep outer frames visible for correlation *)
  let frames = sub_frame :: outer_frames in
  match sub.where with
  | None -> ()
  | Some where -> List.iter (walk_conjunct ctx frames) (Ast.cond_conjuncts where)

and walk_nested_only ctx frames (c : Ast.cond) =
  match c with
  | Ast.And (c1, c2) | Ast.Or (c1, c2) ->
      walk_nested_only ctx frames c1;
      walk_nested_only ctx frames c2
  | Ast.Not c -> walk_nested_only ctx frames c
  | Ast.In (_, q) | Ast.Exists q -> walk_query ctx frames q
  | Ast.Cmp _ | Ast.In_list _ | Ast.Between _ | Ast.Like _ | Ast.Is_null _ ->
      ()

(* group recorded column pairs by FROM-instance pair and build the
   multi-attribute equi-joins *)
let joins_of_pairs pairs =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun (a, b) ->
      let key = ((a.r_scope, a.r_alias, a.r_rel), (b.r_scope, b.r_alias, b.r_rel)) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := (a.r_attr, b.r_attr) :: !cell
      | None ->
          Hashtbl.add tbl key (ref [ (a.r_attr, b.r_attr) ]);
          order := key :: !order)
    (List.rev pairs);
  List.rev_map
    (fun (((_, _, rel_a) as ka), ((_, _, rel_b) as _kb)) ->
      let cell = Hashtbl.find tbl (ka, _kb) in
      let attr_pairs = List.sort_uniq Stdlib.compare !cell in
      make (rel_a, List.map fst attr_pairs) (rel_b, List.map snd attr_pairs))
    !order

let of_query schema q =
  let ctx = { schema; next_scope = 0; pairs = [] } in
  walk_query ctx [] q;
  dedupe (joins_of_pairs ctx.pairs)

(* ------------------------------------------------------------------ *)
(* Span-carrying column pairs (for diagnostics)                         *)
(* ------------------------------------------------------------------ *)

type resolved_col = { rc_rel : string; rc_attr : string; rc_span : Span.t }

let export_pairs pairs =
  List.rev_map
    (fun (a, b) ->
      ( { rc_rel = a.r_rel; rc_attr = a.r_attr; rc_span = a.r_span },
        { rc_rel = b.r_rel; rc_attr = b.r_attr; rc_span = b.r_span } ))
    pairs

let column_pairs_of_query schema q =
  let ctx = { schema; next_scope = 0; pairs = [] } in
  walk_query ctx [] q;
  export_pairs ctx.pairs

(* ------------------------------------------------------------------ *)
(* INSERT ... SELECT value flow                                         *)
(* ------------------------------------------------------------------ *)

(* [INSERT INTO t (c1, c2) SELECT a, b FROM s ...] equates t.c_i with the
   i-th projected column: the copied values must agree, which is exactly
   the equi-join evidence the paper elicits from navigation. Pairs are
   grouped per source FROM instance, like WHERE equalities. *)
let insert_select_flows schema rel cols (q : Ast.query) =
  match Schema.find schema rel with
  | None -> []
  | Some target_rel ->
      let targets =
        match cols with
        | Some cs -> cs
        | None -> target_rel.Relation.attrs
      in
      let ctx = { schema; next_scope = 0; pairs = [] } in
      List.concat_map
        (fun (s : Ast.select) ->
          match projected_columns s with
          | Some pcols when List.length pcols = List.length targets ->
              let frame =
                { scope = fresh_scope ctx; entries = entries_of_from s.from }
              in
              List.filter_map
                (fun (tattr, pcol) ->
                  if not (Relation.has_attr target_rel tattr) then None
                  else
                    match resolve schema [ frame ] pcol with
                    | Some r when not (r.r_rel = rel && r.r_attr = tattr) ->
                        Some (tattr, r)
                    | _ -> None)
                (List.combine targets pcols)
          | _ -> [])
        (Ast.query_selects q)

let insert_select_joins schema rel cols q =
  let flows = insert_select_flows schema rel cols q in
  let tbl = Hashtbl.create 4 in
  let order = ref [] in
  List.iter
    (fun (tattr, r) ->
      let key = (r.r_scope, r.r_alias, r.r_rel) in
      match Hashtbl.find_opt tbl key with
      | Some cell -> cell := (tattr, r.r_attr) :: !cell
      | None ->
          Hashtbl.add tbl key (ref [ (tattr, r.r_attr) ]);
          order := key :: !order)
    flows;
  List.rev_map
    (fun ((_, _, src_rel) as key) ->
      let pairs = List.sort_uniq Stdlib.compare !(Hashtbl.find tbl key) in
      make (rel, List.map fst pairs) (src_rel, List.map snd pairs))
    !order

let insert_select_pairs schema rel cols q =
  List.map
    (fun (tattr, r) ->
      ( { rc_rel = rel; rc_attr = tattr; rc_span = Span.dummy },
        { rc_rel = r.r_rel; rc_attr = r.r_attr; rc_span = r.r_span } ))
    (insert_select_flows schema rel cols q)

let column_pairs_of_statement schema (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q -> column_pairs_of_query schema q
  | Ast.Update (rel, _, Some where) | Ast.Delete (rel, Some where) ->
      let ctx = { schema; next_scope = 0; pairs = [] } in
      let frame = { scope = fresh_scope ctx; entries = [ (rel, rel) ] } in
      List.iter (walk_conjunct ctx [ frame ]) (Ast.cond_conjuncts where);
      export_pairs ctx.pairs
  | Ast.Insert_select (rel, cols, q) ->
      column_pairs_of_query schema q @ insert_select_pairs schema rel cols q
  | Ast.Select_into (_, q) | Ast.Declare_cursor (_, q, _) ->
      column_pairs_of_query schema q
  | Ast.Create_view cv -> column_pairs_of_query schema cv.cv_query
  | Ast.Update (_, _, None) | Ast.Delete (_, None)
  | Ast.Create _ | Ast.Insert _ | Ast.Alter _
  | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _ ->
      []

let of_statement schema (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q -> of_query schema q
  | Ast.Update (rel, _, Some where) | Ast.Delete (rel, Some where) ->
      let ctx = { schema; next_scope = 0; pairs = [] } in
      let frame = { scope = fresh_scope ctx; entries = [ (rel, rel) ] } in
      List.iter (walk_conjunct ctx [ frame ]) (Ast.cond_conjuncts where);
      dedupe (joins_of_pairs ctx.pairs)
  | Ast.Insert_select (rel, cols, q) ->
      dedupe (of_query schema q @ insert_select_joins schema rel cols q)
  | Ast.Select_into (_, q) | Ast.Declare_cursor (_, q, _) ->
      of_query schema q
  | Ast.Create_view cv -> of_query schema cv.cv_query
  | Ast.Update (_, _, None) | Ast.Delete (_, None)
  | Ast.Create _ | Ast.Insert _ | Ast.Alter _
  | Ast.Open_cursor _ | Ast.Fetch _ | Ast.Close_cursor _ ->
      []
