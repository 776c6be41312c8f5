open Relational

(* ------------------------------------------------------------------ *)
(* Facts                                                                *)
(* ------------------------------------------------------------------ *)

type def = {
  d_var : string;
  d_col : Scope.column option;
  d_span : Span.t;
  d_stmt : int;
}

type use_kind =
  | U_cmp of Ast.cmp_op
  | U_insert
  | U_update_set
  | U_other

type use = {
  u_var : string;
  u_col : Scope.column option;
  u_kind : use_kind;
  u_span : Span.t;
  u_stmt : int;
}

type flow = Sensitive | Fallback

type chain = { c_def : def; c_use : use; c_flow : flow }

type cursor_info = {
  cur_name : string;
  cur_span : Span.t;
  cur_opened : Span.t list;
  cur_fetches : int;
  cur_closes : int;
}

type t = {
  defs : def list;
  uses : use list;
  chains : chain list;
  dead_defs : def list;
  undefined_uses : use list;
  cursors : cursor_info list;
  view_joins : Equijoin.t list;
}

(* dataflow keys nothing on FROM instances: every frame is scope 0 *)
let frame_of (s : Ast.select) = Scope.of_from 0 s.Ast.from

(* ------------------------------------------------------------------ *)
(* Def and use collection                                               *)
(* ------------------------------------------------------------------ *)

(* pair INTO targets with the projections of the query's first select:
   the i-th target receives the i-th projected column *)
let defs_of_into env stmt_idx (targets : Ast.host_target list) q =
  let projections =
    match Ast.query_selects q with
    | s :: _ -> (
        match s.Ast.projections with
        | [ Ast.Star ] -> []
        | ps ->
            List.map
              (function
                | Ast.Proj (Ast.Col c, _) -> Scope.column env [ frame_of s ] c
                | _ -> None)
              ps)
    | [] -> []
  in
  List.mapi
    (fun i (t : Ast.host_target) ->
      {
        d_var = t.Ast.hv_name;
        d_col = List.nth_opt projections i |> Option.join;
        d_span = t.Ast.hv_span;
        d_stmt = stmt_idx;
      })
    targets

type collector = {
  mutable env : Scope.env;
  mutable c_uses : use list;
  mutable eq_pairs : (Scope.column * Scope.column) list;
      (* Col = Col equalities, for view macro-expansion *)
}

let add_use col u = col.c_uses <- u :: col.c_uses

let rec uses_in_expr col _frames stmt_idx kind = function
  | Ast.Host (h, sp) ->
      add_use col
        { u_var = h; u_col = None; u_kind = kind; u_span = sp; u_stmt = stmt_idx }
  | Ast.Col _ | Ast.Lit _ | Ast.Agg_of _ -> ()

and uses_in_cond col frames stmt_idx (c : Ast.cond) =
  match c with
  | Ast.Cmp (op, Ast.Host (h, sp), Ast.Col cref)
  | Ast.Cmp (op, Ast.Col cref, Ast.Host (h, sp)) ->
      add_use col
        {
          u_var = h;
          u_col = Scope.column col.env frames cref;
          u_kind = U_cmp op;
          u_span = sp;
          u_stmt = stmt_idx;
        }
  | Ast.Cmp (Ast.Eq, Ast.Col c1, Ast.Col c2) -> (
      (* view macro-expansion: an equality whose sides resolve through a
         view contributes base-column join evidence *)
      match (Scope.column col.env frames c1, Scope.column col.env frames c2) with
      | Some a, Some b -> col.eq_pairs <- (a, b) :: col.eq_pairs
      | _ -> ())
  | Ast.Cmp (_, e1, e2) ->
      uses_in_expr col frames stmt_idx U_other e1;
      uses_in_expr col frames stmt_idx U_other e2
  | Ast.And (c1, c2) | Ast.Or (c1, c2) ->
      uses_in_cond col frames stmt_idx c1;
      uses_in_cond col frames stmt_idx c2
  | Ast.Not c -> uses_in_cond col frames stmt_idx c
  | Ast.In (e, q) ->
      uses_in_expr col frames stmt_idx U_other e;
      uses_in_query col frames stmt_idx q
  | Ast.In_list (e, es) ->
      uses_in_expr col frames stmt_idx U_other e;
      List.iter (uses_in_expr col frames stmt_idx U_other) es
  | Ast.Exists q -> uses_in_query col frames stmt_idx q
  | Ast.Between (e1, e2, e3) ->
      uses_in_expr col frames stmt_idx U_other e1;
      uses_in_expr col frames stmt_idx U_other e2;
      uses_in_expr col frames stmt_idx U_other e3
  | Ast.Like (e, _) | Ast.Is_null (e, _) ->
      uses_in_expr col frames stmt_idx U_other e

and uses_in_select col frames stmt_idx (s : Ast.select) =
  let frames = frame_of s :: frames in
  List.iter
    (function
      | Ast.Proj (e, _) -> uses_in_expr col frames stmt_idx U_other e
      | Ast.Star | Ast.Agg _ -> ())
    s.Ast.projections;
  Option.iter (uses_in_cond col frames stmt_idx) s.Ast.where;
  Option.iter (uses_in_cond col frames stmt_idx) s.Ast.having

and uses_in_query col frames stmt_idx (q : Ast.query) =
  List.iter (uses_in_select col frames stmt_idx) (Ast.query_selects q)

let uses_in_insert col stmt_idx rel cols rows =
  let attrs =
    match cols with
    | Some cs -> Some cs
    | None -> (
        match Schema.find (Scope.schema col.env) rel with
        | Some r -> Some r.Relation.attrs
        | None -> None)
  in
  List.iter
    (fun row ->
      List.iteri
        (fun i e ->
          match e with
          | Ast.Host (h, sp) ->
              let u_col =
                Option.bind attrs (fun attrs ->
                    Option.bind (List.nth_opt attrs i) (fun a -> Scope.base col.env rel a sp))
              in
              add_use col
                { u_var = h; u_col; u_kind = U_insert; u_span = sp; u_stmt = stmt_idx }
          | _ -> ())
        row)
    rows

let uses_in_update col stmt_idx rel sets where =
  let frames = [ Scope.target 0 rel ] in
  List.iter
    (fun (a, e) ->
      match e with
      | Ast.Host (h, sp) ->
          add_use col
            {
              u_var = h;
              u_col = Scope.base col.env rel a sp;
              u_kind = U_update_set;
              u_span = sp;
              u_stmt = stmt_idx;
            }
      | _ -> ())
    sets;
  Option.iter (uses_in_cond col frames stmt_idx) where

(* ------------------------------------------------------------------ *)
(* The analysis                                                         *)
(* ------------------------------------------------------------------ *)

type cursor_state = {
  cs_query : Ast.query;
  cs_span : Span.t;
  mutable cs_opened : Span.t list;
  mutable cs_fetches : int;
  mutable cs_closes : int;
}

let analyze schema (stmts : Ast.statement list) =
  let col = { env = Scope.of_schema schema; c_uses = []; eq_pairs = [] } in
  let all_defs = ref [] in
  let cursors : (string * cursor_state) list ref = ref [] in
  let cursor_order = ref [] in
  let view_joins = ref [] in
  (* reaching definition per host variable (kill on redefinition) *)
  let reaching : (string, def) Hashtbl.t = Hashtbl.create 8 in
  let chains = ref [] in
  let pending = ref [] (* uses with no reaching def yet *) in
  let commit_uses since stmt_defs =
    (* uses collected for this statement read the env *before* the
       statement's own defs *)
    let stmt_uses =
      let rec take acc l =
        if l == since then acc
        else match l with [] -> acc | u :: rest -> take (u :: acc) rest
      in
      take [] col.c_uses
    in
    List.iter
      (fun u ->
        match Hashtbl.find_opt reaching u.u_var with
        | Some d -> chains := { c_def = d; c_use = u; c_flow = Sensitive } :: !chains
        | None -> pending := u :: !pending)
      stmt_uses;
    List.iter
      (fun d ->
        all_defs := d :: !all_defs;
        Hashtbl.replace reaching d.d_var d)
      stmt_defs
  in
  List.iteri
    (fun idx stmt ->
      let since = col.c_uses in
      let stmt_defs =
        match stmt with
        | Ast.Select_into (targets, q) ->
            uses_in_query col [] idx q;
            defs_of_into col.env idx targets q
        | Ast.Declare_cursor (name, q, sp) ->
            (* the query is *evaluated* at OPEN; record it, defer the
               host-variable reads to the OPEN site *)
            let cs =
              {
                cs_query = q;
                cs_span = sp;
                cs_opened = [];
                cs_fetches = 0;
                cs_closes = 0;
              }
            in
            if not (List.mem_assoc name !cursors) then
              cursor_order := name :: !cursor_order;
            cursors := (name, cs) :: List.remove_assoc name !cursors;
            []
        | Ast.Open_cursor (name, _sp) ->
            (match List.assoc_opt name !cursors with
            | Some cs ->
                cs.cs_opened <- cs.cs_opened @ [ _sp ];
                uses_in_query col [] idx cs.cs_query
            | None -> ());
            []
        | Ast.Fetch (name, targets, _) -> (
            match List.assoc_opt name !cursors with
            | Some cs ->
                cs.cs_fetches <- cs.cs_fetches + 1;
                defs_of_into col.env idx targets cs.cs_query
            | None -> [])
        | Ast.Close_cursor (name, _) ->
            (match List.assoc_opt name !cursors with
            | Some cs -> cs.cs_closes <- cs.cs_closes + 1
            | None -> ());
            []
        | Ast.Create_view cv ->
            col.env <- Scope.define_view col.env cv;
            (* the view body's own equalities are join evidence for every
               referencing query *)
            view_joins := Equijoin.of_statement schema stmt @ !view_joins;
            []
        | Ast.Query q ->
            uses_in_query col [] idx q;
            []
        | Ast.Insert (rel, cols, rows) ->
            uses_in_insert col idx rel cols rows;
            []
        | Ast.Insert_select (_, _, q) ->
            uses_in_query col [] idx q;
            []
        | Ast.Update (rel, sets, where) ->
            uses_in_update col idx rel sets where;
            []
        | Ast.Delete (rel, where) ->
            Option.iter (uses_in_cond col [ Scope.target 0 rel ] idx) where;
            []
        | Ast.Create _ | Ast.Alter _ -> []
      in
      commit_uses since stmt_defs)
    stmts;
  let all_defs = List.rev !all_defs in
  let defined v = List.exists (fun d -> d.d_var = v) all_defs in
  (* flow-insensitive fallback: a use no def reaches still pairs with
     every def of its variable — per-program granularity keeps this
     sound enough for evidence (not for diagnostics, which only report
     the use-before-def itself) *)
  let undefined_uses =
    List.filter (fun u -> defined u.u_var) (List.rev !pending)
  in
  List.iter
    (fun u ->
      List.iter
        (fun d ->
          if d.d_var = u.u_var then
            chains := { c_def = d; c_use = u; c_flow = Fallback } :: !chains)
        all_defs)
    undefined_uses;
  let chains = List.rev !chains in
  let dead_defs =
    List.filter
      (fun d -> not (List.exists (fun ch -> ch.c_def == d) chains))
      all_defs
  in
  let cursor_infos =
    List.rev_map
      (fun name ->
        let cs = List.assoc name !cursors in
        {
          cur_name = name;
          cur_span = cs.cs_span;
          cur_opened = cs.cs_opened;
          cur_fetches = cs.cs_fetches;
          cur_closes = cs.cs_closes;
        })
      !cursor_order
  in
  (* view macro-expansion evidence: equalities that resolved through a
     view to distinct base columns (schema-only equalities are already
     covered by the per-statement path, but duplicating them is harmless
     — join extraction dedupes) *)
  let expanded =
    List.filter_map
      (fun ((a : Scope.column), (b : Scope.column)) ->
        if a.rc_rel = b.rc_rel && a.rc_attr = b.rc_attr then None
        else Some (Equijoin.make (a.rc_rel, [ a.rc_attr ]) (b.rc_rel, [ b.rc_attr ])))
      (List.rev col.eq_pairs)
  in
  {
    defs = all_defs;
    uses = List.rev col.c_uses;
    chains;
    dead_defs;
    undefined_uses;
    cursors = cursor_infos;
    view_joins = Equijoin.dedupe (List.rev !view_joins @ expanded);
  }

(* ------------------------------------------------------------------ *)
(* Join extraction                                                      *)
(* ------------------------------------------------------------------ *)

let joins t =
  (* keyed by (def stmt, use stmt, def rel, use rel): several variables
     flowing between the same two statements form one multi-attribute
     equi-join, mirroring the per-statement merge rule *)
  let chained =
    List.filter_map
      (fun ch ->
        match (ch.c_def.d_col, ch.c_use.u_col, ch.c_use.u_kind) with
        | ( Some (dc : Scope.column),
            Some (uc : Scope.column),
            (U_cmp Ast.Eq | U_insert | U_update_set) )
          when not (dc.rc_rel = uc.rc_rel && dc.rc_attr = uc.rc_attr) ->
            Some ((ch.c_def.d_stmt, ch.c_use.u_stmt, dc.rc_rel, uc.rc_rel), dc, uc)
        | _ -> None)
      t.chains
  in
  Equijoin.dedupe (Equijoin.group chained @ t.view_joins)

let joins_of_statements schema stmts = joins (analyze schema stmts)
