open Relational
open Sqlx

exception Error of string

let err fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt

(* rows carry alias-qualified column names: "alias.col" *)
type row_ctx = { cols : string list; row : Value.t list; outer : row_ctx option }

let rec lookup ctx (c : Ast.column) =
  let target_suffix = "." ^ c.col in
  let matches =
    match c.tbl with
    | Some t ->
        let qualified = t ^ "." ^ c.col in
        List.filteri (fun _ name -> String.equal name qualified)
          ctx.cols
        |> fun hits -> if hits = [] then [] else [ qualified ]
    | None ->
        List.filter
          (fun name ->
            String.length name > String.length target_suffix
            && String.sub name
                 (String.length name - String.length target_suffix)
                 (String.length target_suffix)
               = target_suffix)
          ctx.cols
  in
  match matches with
  | [ name ] ->
      let rec pos i = function
        | [] -> assert false
        | x :: _ when String.equal x name -> i
        | _ :: rest -> pos (i + 1) rest
      in
      Some (List.nth ctx.row (pos 0 ctx.cols))
  | [] -> (
      match ctx.outer with Some o -> lookup o c | None -> None)
  | _ :: _ :: _ -> err "ambiguous column reference %s" c.col

let eval_expr host ctx = function
  | Ast.Lit v -> v
  | Ast.Host (h, _) -> host h
  | Ast.Agg_of _ -> err "aggregate used outside HAVING"
  | Ast.Col c -> (
      match lookup ctx c with
      | Some v -> v
      | None -> err "unknown column %s" c.col)

let cmp_holds op v1 v2 =
  if Value.is_null v1 || Value.is_null v2 then false
  else
    let c = Value.compare v1 v2 in
    match op with
    | Ast.Eq -> c = 0
    | Ast.Neq -> c <> 0
    | Ast.Lt -> c < 0
    | Ast.Leq -> c <= 0
    | Ast.Gt -> c > 0
    | Ast.Geq -> c >= 0

let like_match pat s =
  (* SQL LIKE: % = any sequence, _ = any single char *)
  let np = String.length pat and ns = String.length s in
  let rec go i j =
    if i >= np then j >= ns
    else
      match pat.[i] with
      | '%' ->
          let rec try_from k = k <= ns && (go (i + 1) k || try_from (k + 1)) in
          try_from j
      | '_' -> j < ns && go (i + 1) (j + 1)
      | c -> j < ns && s.[j] = c && go (i + 1) (j + 1)
  in
  go 0 0

let rec eval_cond host db ctx = function
  | Ast.Cmp (op, e1, e2) ->
      cmp_holds op (eval_expr host ctx e1) (eval_expr host ctx e2)
  | Ast.And (c1, c2) -> eval_cond host db ctx c1 && eval_cond host db ctx c2
  | Ast.Or (c1, c2) -> eval_cond host db ctx c1 || eval_cond host db ctx c2
  | Ast.Not c -> not (eval_cond host db ctx c)
  | Ast.In (e, q) ->
      let v = eval_expr host ctx e in
      if Value.is_null v then false
      else
        let d = eval_query host db (Some ctx) q in
        List.exists
          (fun row ->
            match row with
            | [ v' ] -> Value.equal v v'
            | _ -> err "IN subquery must project one column")
          d.Algebra.rows
  | Ast.In_list (e, items) ->
      let v = eval_expr host ctx e in
      (not (Value.is_null v))
      && List.exists (fun it -> Value.equal v (eval_expr host ctx it)) items
  | Ast.Exists q ->
      let d = eval_query host db (Some ctx) q in
      d.Algebra.rows <> []
  | Ast.Between (e, lo, hi) ->
      let v = eval_expr host ctx e in
      cmp_holds Ast.Geq v (eval_expr host ctx lo)
      && cmp_holds Ast.Leq v (eval_expr host ctx hi)
  | Ast.Like (e, pat) -> (
      match eval_expr host ctx e with
      | Value.String s -> like_match pat s
      | _ -> false)
  | Ast.Is_null (e, positive) ->
      Bool.equal (Value.is_null (eval_expr host ctx e)) positive

and from_product db (from : Ast.table_ref list) =
  List.fold_left
    (fun (cols, rows) (r : Ast.table_ref) ->
      let table =
        match Database.table_opt db r.rel with
        | Some t -> t
        | None -> err "unknown relation %s" r.rel
      in
      let alias = Option.value ~default:r.rel r.alias in
      let tcols =
        List.map (fun a -> alias ^ "." ^ a) (Table.schema table).Relation.attrs
      in
      let trows = Table.to_lists table in
      match rows with
      | None -> (cols @ tcols, Some trows)
      | Some rows ->
          ( cols @ tcols,
            Some
              (List.concat_map
                 (fun row -> List.map (fun trow -> row @ trow) trows)
                 rows) ))
    ([], None) from
  |> fun (cols, rows) -> (cols, Option.value ~default:[ [] ] rows)

and eval_query host db outer (q : Ast.query) : Algebra.derived =
  match q with
  | Ast.Select s -> eval_select host db outer s
  | Ast.Intersect (q1, q2) -> set_op host db outer `Inter q1 q2
  | Ast.Union (q1, q2) -> set_op host db outer `Union q1 q2
  | Ast.Except (q1, q2) -> set_op host db outer `Except q1 q2

and set_op host db outer op q1 q2 =
  let d1 = eval_query host db outer q1 and d2 = eval_query host db outer q2 in
  if List.length d1.Algebra.cols <> List.length d2.Algebra.cols then
    err "set operation arity mismatch";
  let dedupe rows =
    let seen = Hashtbl.create 32 in
    List.filter
      (fun r ->
        if Hashtbl.mem seen r then false
        else begin
          Hashtbl.add seen r ();
          true
        end)
      rows
  in
  let s2 = Hashtbl.create 32 in
  List.iter (fun r -> Hashtbl.replace s2 r ()) d2.Algebra.rows;
  let rows =
    match op with
    | `Inter -> List.filter (Hashtbl.mem s2) (dedupe d1.Algebra.rows)
    | `Except ->
        List.filter (fun r -> not (Hashtbl.mem s2 r)) (dedupe d1.Algebra.rows)
    | `Union -> dedupe (d1.Algebra.rows @ d2.Algebra.rows)
  in
  { d1 with Algebra.rows = rows }

and eval_select host db outer (s : Ast.select) : Algebra.derived =
  let cols, rows = from_product db s.from in
  let keep row =
    match s.where with
    | None -> true
    | Some c -> eval_cond host db { cols; row; outer } c
  in
  let rows = List.filter keep rows in
  let has_agg =
    List.exists (function Ast.Agg _ -> true | _ -> false) s.projections
  in
  let proj_name i = function
    | Ast.Star -> err "star projection mixed with others"
    | Ast.Proj (Ast.Col c, None) -> c.Ast.col
    | Ast.Proj (_, None) -> Printf.sprintf "expr%d" i
    | Ast.Proj (_, Some a) | Ast.Agg (_, Some a) -> a
    | Ast.Agg (agg, None) -> (
        match agg with
        | Ast.Count_star | Ast.Count _ -> "count"
        | Ast.Sum _ -> "sum"
        | Ast.Avg _ -> "avg"
        | Ast.Min _ -> "min"
        | Ast.Max _ -> "max")
  in
  let result =
    if s.projections = [ Ast.Star ] then { Algebra.cols; rows }
    else if has_agg || s.group_by <> [] then
      eval_grouped host ctx_of_cols cols rows s proj_name
    else begin
      let out_cols = List.mapi proj_name s.projections in
      let project row =
        List.map
          (function
            | Ast.Proj (e, _) -> eval_expr host { cols; row; outer } e
            | Ast.Star | Ast.Agg _ -> assert false)
          s.projections
      in
      { Algebra.cols = out_cols; rows = List.map project rows }
    end
  in
  let result =
    if s.distinct then
      let seen = Hashtbl.create 32 in
      {
        result with
        Algebra.rows =
          List.filter
            (fun r ->
              if Hashtbl.mem seen r then false
              else begin
                Hashtbl.add seen r ();
                true
              end)
            result.Algebra.rows;
      }
    else result
  in
  match s.order_by with
  | [] -> result
  | items ->
      let key_fns =
        List.filter_map
          (fun ((c : Ast.column), dir) ->
            let name = c.col in
            let rec pos i = function
              | [] -> None
              | x :: _ when String.equal x name -> Some i
              | _ :: rest -> pos (i + 1) rest
            in
            match pos 0 result.Algebra.cols with
            | Some i -> Some (i, dir)
            | None -> None)
          items
      in
      let cmp r1 r2 =
        let rec go = function
          | [] -> 0
          | (i, dir) :: rest -> (
              let c = Value.compare (List.nth r1 i) (List.nth r2 i) in
              let c = match dir with `Asc -> c | `Desc -> -c in
              match c with 0 -> go rest | _ -> c)
        in
        go key_fns
      in
      { result with Algebra.rows = List.stable_sort cmp result.Algebra.rows }

and ctx_of_cols cols row = { cols; row; outer = None }

and eval_grouped host _mk cols rows (s : Ast.select) proj_name =
  (* group rows by the GROUP BY columns (empty = single group) *)
  let ctx row = { cols; row; outer = None } in
  let group_key row =
    List.map
      (fun c ->
        match lookup (ctx row) c with
        | Some v -> v
        | None -> err "unknown GROUP BY column %s" c.Ast.col)
      s.group_by
  in
  let groups = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun row ->
      let key = group_key row in
      match Hashtbl.find_opt groups key with
      | Some cell -> cell := row :: !cell
      | None ->
          Hashtbl.add groups key (ref [ row ]);
          order := key :: !order)
    rows;
  let keys =
    if s.group_by = [] && Hashtbl.length groups = 0 then [ [] ] (* COUNT over empty *)
    else List.rev !order
  in
  let agg_value group = function
    | Ast.Count_star -> Value.Int (List.length group)
    | Ast.Count (distinct, c) ->
        let vals =
          List.filter_map
            (fun row ->
              match lookup (ctx row) c with
              | Some v when not (Value.is_null v) -> Some v
              | _ -> None)
            group
        in
        let vals =
          if distinct then
            List.sort_uniq Value.compare vals
          else vals
        in
        Value.Int (List.length vals)
    | Ast.Sum c | Ast.Avg c | Ast.Min c | Ast.Max c as agg -> (
        let vals =
          List.filter_map
            (fun row ->
              match lookup (ctx row) c with
              | Some v when not (Value.is_null v) -> Some v
              | _ -> None)
            group
        in
        match vals with
        | [] -> Value.Null
        | v0 :: rest -> (
            match agg with
            | Ast.Min _ ->
                List.fold_left (fun a v -> if Value.compare v a < 0 then v else a) v0 rest
            | Ast.Max _ ->
                List.fold_left (fun a v -> if Value.compare v a > 0 then v else a) v0 rest
            | Ast.Sum _ | Ast.Avg _ ->
                let to_f = function
                  | Value.Int i -> float_of_int i
                  | Value.Float f -> f
                  | _ -> err "SUM/AVG over non-numeric column"
                in
                let total = List.fold_left (fun a v -> a +. to_f v) 0.0 vals in
                let result =
                  match agg with
                  | Ast.Avg _ -> total /. float_of_int (List.length vals)
                  | _ -> total
                in
                if Float.is_integer result && (match agg with Ast.Sum _ -> true | _ -> false)
                then Value.Int (int_of_float result)
                else Value.Float result
            | _ -> assert false))
  in
  let group_of key =
    match Hashtbl.find_opt groups key with
    | Some cell -> List.rev !cell
    | None -> []
  in
  (* HAVING: evaluated per group, with aggregates available as values *)
  let rec having_expr group gkey = function
    | Ast.Lit v -> v
    | Ast.Host (h, _) -> host h
    | Ast.Agg_of agg -> agg_value group agg
    | Ast.Col c -> (
        let rec pos i = function
          | [] -> None
          | (gc : Ast.column) :: _
            when gc.Ast.col = c.Ast.col && gc.Ast.tbl = c.Ast.tbl ->
              Some i
          | _ :: rest -> pos (i + 1) rest
        in
        match pos 0 s.group_by with
        | Some i -> List.nth gkey i
        | None -> (
            match group with
            | row :: _ -> (
                match lookup (ctx row) c with
                | Some v -> v
                | None -> err "unknown column %s in HAVING" c.Ast.col)
            | [] -> Value.Null))
  and having_cond group gkey = function
    | Ast.Cmp (op, a, b) ->
        cmp_holds op (having_expr group gkey a) (having_expr group gkey b)
    | Ast.And (a, b) -> having_cond group gkey a && having_cond group gkey b
    | Ast.Or (a, b) -> having_cond group gkey a || having_cond group gkey b
    | Ast.Not a -> not (having_cond group gkey a)
    | Ast.In_list (e, items) ->
        let v = having_expr group gkey e in
        (not (Value.is_null v))
        && List.exists (fun it -> Value.equal v (having_expr group gkey it)) items
    | Ast.Between (e, lo, hi) ->
        let v = having_expr group gkey e in
        cmp_holds Ast.Geq v (having_expr group gkey lo)
        && cmp_holds Ast.Leq v (having_expr group gkey hi)
    | Ast.Like (e, pat) -> (
        match having_expr group gkey e with
        | Value.String str -> like_match pat str
        | _ -> false)
    | Ast.Is_null (e, positive) ->
        Bool.equal (Value.is_null (having_expr group gkey e)) positive
    | Ast.In _ | Ast.Exists _ -> err "subquery in HAVING is not supported"
  in
  let keys =
    match s.having with
    | None -> keys
    | Some c -> List.filter (fun key -> having_cond (group_of key) key c) keys
  in
  let out_cols = List.mapi proj_name s.projections in
  let project key =
    let group = group_of key in
    List.map
      (function
        | Ast.Agg (agg, _) -> agg_value group agg
        | Ast.Proj (Ast.Col c, _) -> (
            (* must be a grouped column: take it from the key *)
            let rec pos i = function
              | [] -> None
              | (gc : Ast.column) :: _ when gc.col = c.Ast.col && gc.tbl = c.Ast.tbl ->
                  Some i
              | _ :: rest -> pos (i + 1) rest
            in
            match pos 0 s.group_by with
            | Some i -> List.nth key i
            | None -> (
                match group with
                | row :: _ -> (
                    match lookup (ctx row) c with
                    | Some v -> v
                    | None -> err "unknown column %s" c.Ast.col)
                | [] -> Value.Null))
        | Ast.Proj (e, _) -> (
            match group with
            | row :: _ -> eval_expr host (ctx row) e
            | [] -> Value.Null)
        | Ast.Star -> err "star projection mixed with aggregate")
      s.projections
  in
  { Algebra.cols = out_cols; rows = List.map project keys }

let default_host h = err "unbound host variable %s" h

let run ?(host = default_host) db q = eval_query host db None q

let run_string ?host db input =
  match Parser.parse_statement input with
  | Ast.Query q -> run ?host db q
  | _ -> err "expected a query"
  | exception Parser.Error msg -> err "parse error: %s" msg

(* ------------------------------------------------------------------ *)
(* Statement execution                                                  *)
(* ------------------------------------------------------------------ *)

let find_table db rel =
  match Database.table_opt db rel with
  | Some t -> t
  | None -> err "unknown relation %s" rel

let find_relation db rel = Table.schema (find_table db rel)

let check_columns (relation : Relation.t) cols =
  List.iter
    (fun c ->
      if not (Relation.has_attr relation c) then
        err "unknown column %s in %s" c relation.Relation.name)
    cols

let tuple_from_bindings (relation : Relation.t) bindings =
  List.map
    (fun a -> Option.value ~default:Value.Null (List.assoc_opt a bindings))
    relation.Relation.attrs

let insert_rows db rel cols rows =
  let relation = find_relation db rel in
  let order = Option.value ~default:relation.Relation.attrs cols in
  check_columns relation order;
  List.iter
    (fun row ->
      if List.length row <> List.length order then
        err "INSERT into %s: width %d, expected %d" rel (List.length row)
          (List.length order);
      Database.insert db rel (tuple_from_bindings relation (List.combine order row)))
    rows

let exec_statement ?(host = default_host) db (stmt : Ast.statement) =
  match stmt with
  | Ast.Query q -> ignore (eval_query host db None q)
  | Ast.Create ct ->
      if Schema.mem (Database.schema db) ct.Ast.ct_name then
        err "CREATE TABLE %s: relation already exists" ct.Ast.ct_name;
      Database.add_relation db (Ddl.relation_of_create ct)
  | Ast.Insert (rel, cols, rows) ->
      let literal = function
        | Ast.Lit v -> v
        | Ast.Host (h, _) -> host h
        | Ast.Col c -> err "column %s in VALUES" c.Ast.col
        | Ast.Agg_of _ -> err "aggregate in VALUES"
      in
      insert_rows db rel cols (List.map (List.map literal) rows)
  | Ast.Insert_select (rel, cols, q) ->
      let d = eval_query host db None q in
      insert_rows db rel cols d.Algebra.rows
  | Ast.Update (rel, sets, where) ->
      let table = find_table db rel in
      let relation = Table.schema table in
      check_columns relation (List.map fst sets);
      let cols =
        List.map (fun a -> rel ^ "." ^ a) relation.Relation.attrs
      in
      let fresh = Table.create relation in
      Array.iter
        (fun tup ->
          let row = Array.to_list tup in
          let ctx = { cols; row; outer = None } in
          let matches =
            match where with None -> true | Some c -> eval_cond host db ctx c
          in
          if matches then begin
            let updated = Array.copy tup in
            List.iter
              (fun (a, e) ->
                updated.(Relation.attr_index relation a) <- eval_expr host ctx e)
              sets;
            Table.insert_tuple fresh updated
          end
          else Table.insert_tuple fresh tup)
        (Table.rows table);
      Database.replace_table db fresh
  | Ast.Delete (rel, where) ->
      let table = find_table db rel in
      let relation = Table.schema table in
      let cols = List.map (fun a -> rel ^ "." ^ a) relation.Relation.attrs in
      let fresh = Table.create relation in
      Array.iter
        (fun tup ->
          let ctx = { cols; row = Array.to_list tup; outer = None } in
          let matches =
            match where with None -> true | Some c -> eval_cond host db ctx c
          in
          if not matches then Table.insert_tuple fresh tup)
        (Table.rows table);
      Database.replace_table db fresh
  | Ast.Alter (rel, Ast.Drop_column col) ->
      let table = find_table db rel in
      let relation = Table.schema table in
      if not (Relation.has_attr relation col) then
        err "ALTER %s: unknown column %s" rel col;
      let shrunk = Relation.remove_attrs relation [ col ] in
      let keep = Table.positions table shrunk.Relation.attrs in
      let fresh = Table.create shrunk in
      Array.iter
        (fun tup -> Table.insert_tuple fresh (Tuple.project keep tup))
        (Table.rows table);
      Database.replace_table db fresh
  | Ast.Alter (rel, Ast.Add_foreign_key (cols, target, tcols)) ->
      check_columns (find_relation db rel) cols;
      let target_rel = find_relation db target in
      let tcols =
        if tcols = [] then
          match target_rel.Relation.uniques with
          | k :: _ -> k
          | [] -> err "ALTER %s: %s has no key to reference" rel target
        else tcols
      in
      check_columns target_rel tcols;
      if List.length cols <> List.length tcols then
        err "ALTER %s ADD FOREIGN KEY: %d columns reference %d in %s" rel
          (List.length cols) (List.length tcols) target;
      (* r[X] ⊆ s[Y] iff ||r[X] ⋈ s[Y]|| = ||r[X]|| *)
      if
        Database.join_count db (rel, cols) (target, tcols)
        <> Database.count_distinct db rel cols
      then
        err "ALTER %s ADD FOREIGN KEY (%s) REFERENCES %s: violated by the \
             extension"
          rel (String.concat "," cols) target
  | Ast.Select_into (_, q) ->
      (* embedded-SQL singleton fetch: evaluate for effect; the
         host-variable sink lives outside the interpreter *)
      ignore (eval_query host db None q)
  | Ast.Declare_cursor _ | Ast.Open_cursor _ | Ast.Fetch _
  | Ast.Close_cursor _ ->
      (* cursor protocol is host-program state; the analyses read these
         statements statically, the interpreter has nothing to do *)
      ()
  | Ast.Create_view _ ->
      (* views are macro-expanded by the static analyses, never
         materialized *)
      ()

let exec_script ?host db script =
  List.iter (exec_statement ?host db) (Parser.parse_script script)

let count_distinct_sql db rel attrs =
  match attrs with
  | [ a ] ->
      let sql = Printf.sprintf "SELECT COUNT(DISTINCT %s) FROM %s" a rel in
      (match (run_string db sql).Algebra.rows with
      | [ [ Value.Int n ] ] -> n
      | _ -> err "unexpected COUNT result shape")
  | _ ->
      let sql =
        Printf.sprintf "SELECT DISTINCT %s FROM %s" (String.concat ", " attrs)
          rel
      in
      let d = run_string db sql in
      List.length
        (List.filter
           (fun row -> not (List.exists Value.is_null row))
           d.Algebra.rows)
