open Relational
open Sqlx

let diag = Diagnostic.make

type entry = Scope.entry = { e_alias : string; e_rel : string; e_span : Span.t; e_scope : int }

type ctx = {
  env : Scope.env;  (* the schema plus the views defined before the statement *)
  source_name : string option;
  mutable scope_ctr : int;
  mutable diags : Diagnostic.t list;
  mutable edges : ((int * string) * (int * string)) list;
      (* equality predicates between FROM instances, for connectivity *)
  mutable multi_frames : entry list list;  (* frames with >= 2 entries *)
  mutable rels_seen : string list;  (* schema relations the statement uses *)
  mutable first_span : Span.t;  (* anchor for statement-level findings *)
}

let add ctx d = ctx.diags <- d :: ctx.diags

let fresh ctx =
  let s = ctx.scope_ctr in
  ctx.scope_ctr <- s + 1;
  s

let known ctx rel = Scope.known ctx.env rel

(* only schema relations count for L107: elicitation resolves against
   the schema alone *)
let note_rel ctx span rel =
  if Schema.mem (Scope.schema ctx.env) rel && not (List.mem rel ctx.rels_seen) then
    ctx.rels_seen <- rel :: ctx.rels_seen;
  if Span.is_dummy ctx.first_span then ctx.first_span <- span

let qualify c =
  match c.Ast.tbl with
  | Some t -> t ^ "." ^ c.Ast.col
  | None -> c.Ast.col

(* ---------------------------------------------------------------- *)
(* FROM-clause checks: L101, L104                                     *)
(* ---------------------------------------------------------------- *)

let check_frame ctx (outer : entry list list) (frame : entry list) =
  List.iter
    (fun e ->
      if not (known ctx e.e_rel) then
        add ctx
          (diag ?source_name:ctx.source_name ~span:e.e_span ~code:"L101"
             Diagnostic.Error
             (Printf.sprintf
                "unknown table %s: the dictionary declares no such relation"
                e.e_rel)))
    frame;
  ignore
    (List.fold_left
       (fun seen e ->
         if List.mem e.e_alias seen then
           add ctx
             (diag ?source_name:ctx.source_name ~span:e.e_span ~code:"L104"
                Diagnostic.Warning
                (Printf.sprintf
                   "duplicate FROM entry %s: this instance shadows the \
                    earlier one, making references through it ambiguous"
                   e.e_alias));
         e.e_alias :: seen)
       [] frame);
  List.iter
    (fun e ->
      if
        List.exists
          (fun f -> List.exists (fun o -> o.e_alias = e.e_alias) f)
          outer
      then
        add ctx
          (diag ?source_name:ctx.source_name ~span:e.e_span ~code:"L104"
             Diagnostic.Info
             (Printf.sprintf
                "FROM entry %s shadows an entry of an enclosing query: \
                 correlated references now bind to the inner instance"
                e.e_alias)))
    frame

(* ---------------------------------------------------------------- *)
(* Column resolution: L102, L103                                      *)
(* ---------------------------------------------------------------- *)

let check_column ctx frames (c : Ast.column) =
  let r = Scope.resolve ctx.env frames c in
  (match r with
  | Scope.Found _ | Scope.Unknown_owner -> ()
  | Scope.Unknown_qualifier ->
      add ctx
        (diag ?source_name:ctx.source_name ~span:c.Ast.c_span ~code:"L102"
           Diagnostic.Error
           (Printf.sprintf
              "unknown table or alias %s qualifying column %s"
              (Option.get c.Ast.tbl) (qualify c)))
  | Scope.No_column (Some e) ->
      add ctx
        (diag ?source_name:ctx.source_name ~span:c.Ast.c_span ~code:"L102"
           Diagnostic.Error
           (Printf.sprintf "relation %s has no attribute %s" e.e_rel
              c.Ast.col))
  | Scope.No_column None ->
      add ctx
        (diag ?source_name:ctx.source_name ~span:c.Ast.c_span ~code:"L102"
           Diagnostic.Error
           (Printf.sprintf "no relation in scope provides attribute %s"
              c.Ast.col))
  | Scope.Ambiguous hits ->
      add ctx
        (diag ?source_name:ctx.source_name ~span:c.Ast.c_span ~code:"L103"
           Diagnostic.Warning
           (Printf.sprintf
              "ambiguous column %s (provided by %s): elicitation drops \
               predicates it cannot resolve — qualify the reference"
              c.Ast.col
              (String.concat ", "
                 (List.map (fun e -> e.e_alias) hits)))));
  r

(* ---------------------------------------------------------------- *)
(* Traversal                                                          *)
(* ---------------------------------------------------------------- *)

let node (e : entry) = (e.e_scope, e.e_alias)

let edge ctx a b =
  match (a, b) with
  | Scope.Found ea, Scope.Found eb when node ea <> node eb ->
      ctx.edges <- (node ea, node eb) :: ctx.edges
  | _ -> ()

let rec walk_expr ctx frames = function
  | Ast.Col c -> ignore (check_column ctx frames c)
  | Ast.Lit _ | Ast.Host _ -> ()
  | Ast.Agg_of a -> walk_agg ctx frames a

and walk_agg ctx frames = function
  | Ast.Count_star -> ()
  | Ast.Count (_, c) | Ast.Sum c | Ast.Avg c | Ast.Min c | Ast.Max c ->
      ignore (check_column ctx frames c)

and walk_cond ctx frames (cond : Ast.cond) =
  match cond with
  | Ast.Cmp (Ast.Eq, Ast.Col c1, Ast.Col c2) ->
      let r1 = check_column ctx frames c1 in
      let r2 = check_column ctx frames c2 in
      edge ctx r1 r2
  | Ast.Cmp (_, e1, e2) ->
      walk_expr ctx frames e1;
      walk_expr ctx frames e2
  | Ast.And (c1, c2) | Ast.Or (c1, c2) ->
      walk_cond ctx frames c1;
      walk_cond ctx frames c2
  | Ast.Not c -> walk_cond ctx frames c
  | Ast.In (e, q) ->
      walk_expr ctx frames e;
      (* x IN (SELECT y FROM …) links x's instance to y's *)
      let sub_edge =
        match (e, q) with
        | Ast.Col c, Ast.Select sub -> (
            match sub.Ast.projections with
            | [ Ast.Proj (Ast.Col proj, _) ] ->
                Some (Scope.resolve ctx.env frames c, sub, proj)
            | _ -> None)
        | _ -> None
      in
      (match sub_edge with
      | Some (outer_res, sub, proj) ->
          (* walk the subquery once, then resolve the projection against
             the frame the walk just used — rebuild it deterministically *)
          let frame = walk_select ctx frames sub in
          edge ctx outer_res (Scope.resolve ctx.env (frame :: frames) proj)
      | None -> walk_query ctx frames q)
  | Ast.In_list (e, es) ->
      walk_expr ctx frames e;
      List.iter (walk_expr ctx frames) es
  | Ast.Exists q -> walk_query ctx frames q
  | Ast.Between (e1, e2, e3) ->
      walk_expr ctx frames e1;
      walk_expr ctx frames e2;
      walk_expr ctx frames e3
  | Ast.Like (e, _) | Ast.Is_null (e, _) -> walk_expr ctx frames e

and walk_query ctx frames (q : Ast.query) =
  match q with
  | Ast.Select s -> ignore (walk_select ctx frames s)
  | Ast.Union (q1, q2) | Ast.Intersect (q1, q2) | Ast.Except (q1, q2) ->
      walk_query ctx frames q1;
      walk_query ctx frames q2

and walk_select ctx outer (s : Ast.select) =
  List.iter (fun (r : Ast.table_ref) -> note_rel ctx r.t_span r.rel) s.Ast.from;
  let frame = Scope.of_from (fresh ctx) s.Ast.from in
  check_frame ctx outer frame;
  let frames = frame :: outer in
  List.iter
    (function
      | Ast.Star -> ()
      | Ast.Proj (e, _) -> walk_expr ctx frames e
      | Ast.Agg (a, _) -> walk_agg ctx frames a)
    s.Ast.projections;
  Option.iter (walk_cond ctx frames) s.Ast.where;
  List.iter (fun c -> ignore (check_column ctx frames c)) s.Ast.group_by;
  Option.iter (walk_cond ctx frames) s.Ast.having;
  List.iter
    (fun (c, _) -> ignore (check_column ctx frames c))
    s.Ast.order_by;
  if List.length frame >= 2 then ctx.multi_frames <- frame :: ctx.multi_frames;
  frame

(* ---------------------------------------------------------------- *)
(* Statement-level rules: L105, L106, L107                            *)
(* ---------------------------------------------------------------- *)

let l106 ctx =
  let parent = Hashtbl.create 16 in
  let rec find x =
    match Hashtbl.find_opt parent x with
    | Some p when p <> x ->
        let r = find p in
        Hashtbl.replace parent x r;
        r
    | _ -> x
  in
  let union a b =
    let ra = find a and rb = find b in
    if ra <> rb then Hashtbl.replace parent ra rb
  in
  List.iter (fun (a, b) -> union a b) ctx.edges;
  List.iter
    (fun frame ->
      if List.for_all (fun e -> known ctx e.e_rel) frame then begin
        let roots =
          List.sort_uniq Stdlib.compare (List.map (fun e -> find (node e)) frame)
        in
        if List.length roots > 1 then
          let span =
            List.fold_left (fun sp e -> Span.join sp e.e_span) Span.dummy frame
          in
          add ctx
            (diag ?source_name:ctx.source_name ~span ~code:"L106"
               Diagnostic.Warning
               (Printf.sprintf
                  "cartesian product: FROM entries %s are not all \
                   connected by equality predicates (%d disconnected \
                   groups)"
                  (String.concat ", " (List.map (fun e -> e.e_alias) frame))
                  (List.length roots)))
      end)
    ctx.multi_frames

(* the declared domain of a resolved column *)
let dom schema (rc : Scope.column) =
  match Schema.find schema rc.rc_rel with
  | Some r when Relation.has_attr r rc.rc_attr -> Relation.domain_of r rc.rc_attr
  | _ -> Domain.Unknown

(* L105 and L107 read the statement's one elicitation walk *)
let l105 ctx pairs =
  List.iter
    (fun (_, (a : Scope.column), (b : Scope.column)) ->
      let da = dom (Scope.schema ctx.env) a and db = dom (Scope.schema ctx.env) b in
      if not (Domain.compatible da db) then
        add ctx
          (diag ?source_name:ctx.source_name
             ~span:(Span.join a.rc_span b.rc_span)
             ~code:"L105" Diagnostic.Warning
             (Printf.sprintf
                "equi-join compares %s.%s (%s) with %s.%s (%s): \
                 incompatible attribute domains undermine the elicited \
                 dependency"
                a.rc_rel a.rc_attr (Domain.to_string da) b.rc_rel b.rc_attr
                (Domain.to_string db))))
    pairs

let l107 ctx stmt pairs =
  match stmt with
  | Ast.Query _ | Ast.Update _ | Ast.Delete _ | Ast.Insert_select _
  | Ast.Select_into _ | Ast.Declare_cursor _ | Ast.Create_view _ ->
      if List.length ctx.rels_seen >= 2 && pairs = [] then
        add ctx
          (diag ?source_name:ctx.source_name ~span:ctx.first_span
             ~code:"L107" Diagnostic.Info
             (Printf.sprintf
                "statement navigates %s but contributes no equi-join to Q"
                (String.concat ", " (List.rev ctx.rels_seen))))
  | Ast.Create _ | Ast.Insert _ | Ast.Alter _ | Ast.Open_cursor _
  | Ast.Fetch _ | Ast.Close_cursor _ ->
      ()

(* ---------------------------------------------------------------- *)
(* Dataflow rules: L109 - L112                                        *)
(* ---------------------------------------------------------------- *)

let dataflow_rules ?source_name schema (stmts : Ast.statement list) =
  let df = Dataflow.analyze schema stmts in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (u : Dataflow.use) ->
      add
        (diag ?source_name ~span:u.Dataflow.u_span ~code:"L109"
           Diagnostic.Warning
           (Printf.sprintf
              "host variable %s is used before any SQL statement defines \
               it (its SELECT INTO/FETCH appears later): the value read \
               here is whatever the host program left in it"
              u.Dataflow.u_var)))
    df.Dataflow.undefined_uses;
  List.iter
    (fun (d : Dataflow.def) ->
      add
        (diag ?source_name ~span:d.Dataflow.d_span ~code:"L110"
           Diagnostic.Warning
           (Printf.sprintf
              "host variable %s is written here but never read by a \
               later SQL statement (dead write)"
              d.Dataflow.d_var)))
    df.Dataflow.dead_defs;
  (* one L111 per (def site, use site), not per chain: fallback pairing
     can thread one use through many defs *)
  let seen = ref [] in
  List.iter
    (fun (ch : Dataflow.chain) ->
      match (ch.Dataflow.c_def.d_col, ch.Dataflow.c_use.u_col) with
      | Some (dc : Scope.column), Some (uc : Scope.column) ->
          let dd = dom schema dc and du = dom schema uc in
          let key = (ch.Dataflow.c_def.d_span, ch.Dataflow.c_use.u_span) in
          if (not (Domain.compatible dd du)) && not (List.mem key !seen)
          then begin
            seen := key :: !seen;
            add
              (diag ?source_name
                 ~span:
                   (Span.join ch.Dataflow.c_def.d_span
                      ch.Dataflow.c_use.u_span)
                 ~code:"L111" Diagnostic.Warning
                 (Printf.sprintf
                    "host variable %s carries %s.%s (%s) into a use \
                     against %s.%s (%s): incompatible attribute domains \
                     undermine the recovered dataflow join"
                    ch.Dataflow.c_use.u_var dc.rc_rel dc.rc_attr
                    (Domain.to_string dd) uc.rc_rel uc.rc_attr
                    (Domain.to_string du)))
          end
      | _ -> ())
    df.Dataflow.chains;
  List.iter
    (fun (c : Dataflow.cursor_info) ->
      match c.Dataflow.cur_opened with
      | first :: _ when c.Dataflow.cur_fetches = 0 ->
          add
            (diag ?source_name ~span:first ~code:"L112" Diagnostic.Warning
               (Printf.sprintf
                  "cursor %s is opened but never fetched: its declared \
                   query runs for nothing"
                  c.Dataflow.cur_name))
      | _ -> ())
    df.Dataflow.cursors;
  List.rev !diags

(* ---------------------------------------------------------------- *)
(* Entry points                                                       *)
(* ---------------------------------------------------------------- *)

let synthetic_frame ctx rel =
  note_rel ctx Span.dummy rel;
  let frame = Scope.target (fresh ctx) rel in
  check_frame ctx [] frame;
  frame

(* a column an INSERT or UPDATE names on its target resolves like a
   qualified reference *)
let check_target_column ctx rel a =
  match Scope.resolve ctx.env [ Scope.target 0 rel ] (Ast.column ~tbl:rel a) with
  | Scope.No_column _ ->
      add ctx
        (diag ?source_name:ctx.source_name ~code:"L102" Diagnostic.Error
           (Printf.sprintf "relation %s has no attribute %s" rel a))
  | Scope.Found _ | Scope.Ambiguous _ | Scope.Unknown_qualifier
  | Scope.Unknown_owner ->
      ()

let check_statement ?source_name env (stmt : Ast.statement) =
  let ctx =
    {
      env;
      source_name;
      scope_ctr = 0;
      diags = [];
      edges = [];
      multi_frames = [];
      rels_seen = [];
      first_span = Span.dummy;
    }
  in
  (match stmt with
  | Ast.Query q | Ast.Select_into (_, q) | Ast.Declare_cursor (_, q, _) ->
      walk_query ctx [] q
  | Ast.Create_view cv -> walk_query ctx [] cv.Ast.cv_query
  | Ast.Update (rel, sets, where) ->
      let frame = synthetic_frame ctx rel in
      List.iter
        (fun (a, e) ->
          check_target_column ctx rel a;
          walk_expr ctx [ frame ] e)
        sets;
      Option.iter (walk_cond ctx [ frame ]) where
  | Ast.Delete (rel, where) ->
      let frame = synthetic_frame ctx rel in
      Option.iter (walk_cond ctx [ frame ]) where
  | Ast.Insert (rel, cols, _) | Ast.Insert_select (rel, cols, _) ->
      (if not (known ctx rel) then
         add ctx
           (diag ?source_name ~code:"L101" Diagnostic.Error
              (Printf.sprintf
                 "unknown table %s: the dictionary declares no such relation"
                 rel))
       else Option.iter (List.iter (check_target_column ctx rel)) cols);
      (match stmt with
      | Ast.Insert_select (_, _, q) -> walk_query ctx [] q
      | _ -> ())
  | Ast.Create _ | Ast.Alter _ | Ast.Open_cursor _ | Ast.Fetch _
  | Ast.Close_cursor _ ->
      ());
  l106 ctx;
  let pairs = Equijoin.pairs (Scope.schema env) stmt in
  l105 ctx pairs;
  l107 ctx stmt pairs;
  List.rev ctx.diags

(* statements in order: a view is a known relation from the statement
   after its CREATE VIEW on *)
let check_statements ?source_name schema stmts =
  let _, diags =
    List.fold_left
      (fun (env, acc) stmt ->
        let env' =
          match stmt with Ast.Create_view cv -> Scope.define_view env cv | _ -> env
        in
        (env', List.rev_append (check_statement ?source_name env stmt) acc))
      (Scope.of_schema schema, [])
      stmts
  in
  List.rev diags @ dataflow_rules ?source_name schema stmts

let check_script ?source_name schema text =
  match Parser.parse_script text with
  | Ok stmts -> check_statements ?source_name schema stmts
  | Error msg ->
      [
        diag ?source_name ~code:"L108" Diagnostic.Warning
          (Printf.sprintf "SQL script does not parse: %s" msg);
      ]

let check_program ?source_name schema text =
  let e = Embedded.scan text in
  let failures =
    List.map
      (fun (fragment, span) ->
        diag ?source_name ~span ~code:"L108" Diagnostic.Warning
          (Printf.sprintf
             "embedded SQL fragment does not parse (skipped by \
              extraction): %s"
             (Embedded.first_line fragment)))
      e.Embedded.failures
  in
  failures @ check_statements ?source_name schema e.Embedded.statements
