open Relational

(* caught only by the entry points, which return it as [Error] *)
exception Parse_error of string

type state = { toks : Token.spanned array; mutable pos : int }

let peek st = st.toks.(st.pos).Token.tok
let peek_span st = st.toks.(st.pos).Token.span
let peek2 st =
  if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1).Token.tok
  else Token.Eof

let advance st = st.pos <- st.pos + 1

let fail st msg =
  raise
    (Parse_error (Printf.sprintf "%s (at token %s)" msg (Token.to_string (peek st))))

let eat st tok =
  if Token.equal (peek st) tok then advance st
  else fail st (Printf.sprintf "expected %s" (Token.to_string tok))

let eat_kw st kw = eat st (Token.Kw kw)

let accept st tok =
  if Token.equal (peek st) tok then begin
    advance st;
    true
  end
  else false

let accept_kw st kw = accept st (Token.Kw kw)

(* identifier or keyword used as a name (legacy schemas use e.g. "date");
   [name_sp] also returns the consumed token's span *)
let name_sp st =
  let span = peek_span st in
  match peek st with
  | Token.Ident i ->
      advance st;
      (i, span)
  | Token.Kw k when not (List.mem k [ "FROM"; "WHERE"; "SELECT"; "GROUP"; "ORDER" ]) ->
      advance st;
      (String.lowercase_ascii k, span)
  | _ -> fail st "expected name"

let name st = fst (name_sp st)

let column st =
  let first, sp1 = name_sp st in
  if Token.equal (peek st) (Token.Punct ".") then begin
    advance st;
    let second, sp2 = name_sp st in
    { Ast.tbl = Some first; col = second; c_span = Span.join sp1 sp2 }
  end
  else { Ast.tbl = None; col = first; c_span = sp1 }

let literal st =
  match peek st with
  | Token.Int i ->
      advance st;
      Some (Value.Int i)
  | Token.Float f ->
      advance st;
      Some (Value.Float f)
  | Token.Str s ->
      advance st;
      Some (match Value.parse s with Value.Date _ as d -> d | _ -> Value.String s)
  | Token.Kw "NULL" ->
      advance st;
      Some Value.Null
  | Token.Kw "TRUE" ->
      advance st;
      Some (Value.Bool true)
  | Token.Kw "FALSE" ->
      advance st;
      Some (Value.Bool false)
  | _ -> None

(* [expr] must see aggregates (legal in HAVING); it is defined inside the
   recursive parser group because aggregates need [aggregate] below *)

let cmp_of_punct = function
  | "=" -> Some Ast.Eq
  | "<>" | "!=" -> Some Ast.Neq
  | "<" -> Some Ast.Lt
  | "<=" -> Some Ast.Leq
  | ">" -> Some Ast.Gt
  | ">=" -> Some Ast.Geq
  | _ -> None

(* host-variable targets of an [INTO] clause: [:h1, :h2] *)
let host_target_list st =
  let one () =
    let span = peek_span st in
    match peek st with
    | Token.Ident i when String.length i > 0 && i.[0] = ':' ->
        advance st;
        { Ast.hv_name = i; hv_span = span }
    | _ -> fail st "expected host variable after INTO"
  in
  let rec items acc =
    let h = one () in
    if accept st (Token.Punct ",") then items (h :: acc)
    else List.rev (h :: acc)
  in
  items []

let rec expr st =
  match literal st with
  | Some v -> Ast.Lit v
  | None -> (
      match peek st with
      | Token.Ident i when String.length i > 0 && i.[0] = ':' ->
          let span = peek_span st in
          advance st;
          Ast.Host (i, span)
      | Token.Kw ("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") ->
          Ast.Agg_of (aggregate st)
      | _ -> Ast.Col (column st))

and query st = query_tail st (select_atom st)

and query_tail st left =
  match peek st with
  | Token.Kw "UNION" ->
      advance st;
      ignore (accept_kw st "ALL");
      Ast.Union (left, query st)
  | Token.Kw "INTERSECT" ->
      advance st;
      Ast.Intersect (left, query st)
  | Token.Kw "EXCEPT" | Token.Kw "MINUS" ->
      advance st;
      Ast.Except (left, query st)
  | _ -> left

and select_atom st =
  if accept st (Token.Punct "(") then begin
    let q = query st in
    eat st (Token.Punct ")");
    q
  end
  else Ast.Select (select st)

and select ?into st =
  eat_kw st "SELECT";
  let distinct = accept_kw st "DISTINCT" in
  let projections = proj_list st in
  (* [SELECT ... INTO :h FROM ...] — only legal where the caller passes a
     sink (top-level embedded-SQL statements, not subqueries) *)
  (match into with
  | Some sink when accept_kw st "INTO" -> sink := host_target_list st
  | _ -> ());
  eat_kw st "FROM";
  let from, join_conds = from_clause st in
  let where =
    if accept_kw st "WHERE" then Some (cond st) else None
  in
  let where =
    (* fold JOIN ... ON conditions into the where clause *)
    List.fold_left
      (fun acc c ->
        match acc with None -> Some c | Some w -> Some (Ast.And (w, c)))
      where join_conds
  in
  let group_by =
    if accept_kw st "GROUP" then begin
      eat_kw st "BY";
      column_list st
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (cond st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      eat_kw st "BY";
      let rec items acc =
        let c = column st in
        let dir =
          if accept_kw st "DESC" then `Desc
          else begin
            ignore (accept_kw st "ASC");
            `Asc
          end
        in
        if accept st (Token.Punct ",") then items ((c, dir) :: acc)
        else List.rev ((c, dir) :: acc)
      in
      items []
    end
    else []
  in
  { Ast.distinct; projections; from; where; group_by; having; order_by }

and proj_list st =
  let rec items acc =
    let p = projection st in
    if accept st (Token.Punct ",") then items (p :: acc)
    else List.rev (p :: acc)
  in
  items []

and projection st =
  if accept st (Token.Punct "*") then Ast.Star
  else
    match peek st with
    | Token.Kw ("COUNT" | "SUM" | "AVG" | "MIN" | "MAX") ->
        let agg = aggregate st in
        let alias = proj_alias st in
        Ast.Agg (agg, alias)
    | _ ->
        let e = expr st in
        let alias = proj_alias st in
        Ast.Proj (e, alias)

and proj_alias st =
  if accept_kw st "AS" then Some (name st)
  else
    match peek st with
    | Token.Ident _ -> Some (name st)
    | _ -> None

and aggregate st =
  let kw = match peek st with Token.Kw k -> k | _ -> assert false in
  advance st;
  eat st (Token.Punct "(");
  let result =
    match kw with
    | "COUNT" ->
        if accept st (Token.Punct "*") then Ast.Count_star
        else
          let distinct = accept_kw st "DISTINCT" in
          Ast.Count (distinct, column st)
    | "SUM" -> Ast.Sum (column st)
    | "AVG" -> Ast.Avg (column st)
    | "MIN" -> Ast.Min (column st)
    | "MAX" -> Ast.Max (column st)
    | _ -> assert false
  in
  eat st (Token.Punct ")");
  result

and from_clause st =
  (* returns table refs plus the conditions of JOIN ... ON clauses *)
  let conds = ref [] in
  let one () =
    let rel, span = name_sp st in
    let alias =
      if accept_kw st "AS" then Some (name st)
      else
        match peek st with
        | Token.Ident _ -> Some (name st)
        | _ -> None
    in
    { Ast.rel; alias; t_span = span }
  in
  let rec more acc =
    if accept st (Token.Punct ",") then more (one () :: acc)
    else if
      (match peek st with Token.Kw "JOIN" -> true | _ -> false)
      || (match (peek st, peek2 st) with
         | Token.Kw "INNER", Token.Kw "JOIN" -> true
         | _ -> false)
    then begin
      ignore (accept_kw st "INNER");
      eat_kw st "JOIN";
      let r = one () in
      eat_kw st "ON";
      conds := cond st :: !conds;
      more (r :: acc)
    end
    else List.rev acc
  in
  let refs = more [ one () ] in
  (refs, List.rev !conds)

and column_list st =
  let rec items acc =
    let c = column st in
    if accept st (Token.Punct ",") then items (c :: acc)
    else List.rev (c :: acc)
  in
  items []

and cond st = or_cond st

and or_cond st =
  let left = and_cond st in
  if accept_kw st "OR" then Ast.Or (left, or_cond st) else left

and and_cond st =
  let left = not_cond st in
  if accept_kw st "AND" then Ast.And (left, and_cond st) else left

and not_cond st =
  if accept_kw st "NOT" then Ast.Not (not_cond st) else primary_cond st

and primary_cond st =
  match peek st with
  | Token.Kw "EXISTS" ->
      advance st;
      eat st (Token.Punct "(");
      let q = query st in
      eat st (Token.Punct ")");
      Ast.Exists q
  | Token.Punct "(" ->
      advance st;
      let c = cond st in
      eat st (Token.Punct ")");
      c
  | _ -> predicate st

and predicate st =
  let e = expr st in
  match peek st with
  | Token.Punct p when cmp_of_punct p <> None ->
      advance st;
      let op = Option.get (cmp_of_punct p) in
      Ast.Cmp (op, e, expr st)
  | Token.Kw "IN" ->
      advance st;
      eat st (Token.Punct "(");
      let result =
        match peek st with
        | Token.Kw "SELECT" ->
            let q = query st in
            Ast.In (e, q)
        | _ ->
            let rec items acc =
              let item = expr st in
              if accept st (Token.Punct ",") then items (item :: acc)
              else List.rev (item :: acc)
            in
            Ast.In_list (e, items [])
      in
      eat st (Token.Punct ")");
      result
  | Token.Kw "NOT" -> (
      advance st;
      match peek st with
      | Token.Kw "IN" ->
          advance st;
          eat st (Token.Punct "(");
          let result =
            match peek st with
            | Token.Kw "SELECT" -> Ast.Not (Ast.In (e, query st))
            | _ ->
                let rec items acc =
                  let item = expr st in
                  if accept st (Token.Punct ",") then items (item :: acc)
                  else List.rev (item :: acc)
                in
                Ast.Not (Ast.In_list (e, items []))
          in
          eat st (Token.Punct ")");
          result
      | Token.Kw "BETWEEN" ->
          advance st;
          let lo = expr st in
          eat_kw st "AND";
          let hi = expr st in
          Ast.Not (Ast.Between (e, lo, hi))
      | Token.Kw "LIKE" ->
          advance st;
          (match peek st with
          | Token.Str s ->
              advance st;
              Ast.Not (Ast.Like (e, s))
          | _ -> fail st "expected string pattern after LIKE")
      | _ -> fail st "expected IN, BETWEEN or LIKE after NOT")
  | Token.Kw "BETWEEN" ->
      advance st;
      let lo = expr st in
      eat_kw st "AND";
      let hi = expr st in
      Ast.Between (e, lo, hi)
  | Token.Kw "LIKE" -> (
      advance st;
      match peek st with
      | Token.Str s ->
          advance st;
          Ast.Like (e, s)
      | _ -> fail st "expected string pattern after LIKE")
  | Token.Kw "IS" ->
      advance st;
      let negated = accept_kw st "NOT" in
      eat_kw st "NULL";
      Ast.Is_null (e, not negated)
  | _ -> fail st "expected a predicate operator"

(* ---------- DDL / DML ---------- *)

let sql_type st =
  let base = name st in
  if accept st (Token.Punct "(") then begin
    let buf = Buffer.create 8 in
    Buffer.add_string buf base;
    Buffer.add_char buf '(';
    let rec go () =
      match peek st with
      | Token.Punct ")" ->
          advance st;
          Buffer.add_char buf ')'
      | Token.Int i ->
          advance st;
          Buffer.add_string buf (string_of_int i);
          go ()
      | Token.Punct "," ->
          advance st;
          Buffer.add_char buf ',';
          go ()
      | _ -> fail st "malformed type parameters"
    in
    go ();
    Buffer.contents buf
  end
  else base

let name_list st =
  eat st (Token.Punct "(");
  let rec items acc =
    let nm = name st in
    if accept st (Token.Punct ",") then items (nm :: acc)
    else begin
      eat st (Token.Punct ")");
      List.rev (nm :: acc)
    end
  in
  items []

let create_table st =
  eat_kw st "CREATE";
  eat_kw st "TABLE";
  let ct_name, ct_span = name_sp st in
  eat st (Token.Punct "(");
  let columns = ref [] and constraints = ref [] in
  let rec table_constraint () =
    match peek st with
    | Token.Kw "UNIQUE" ->
        advance st;
        constraints := Ast.T_unique (name_list st) :: !constraints;
        true
    | Token.Kw "PRIMARY" ->
        advance st;
        eat_kw st "KEY";
        constraints := Ast.T_primary_key (name_list st) :: !constraints;
        true
    | Token.Kw "FOREIGN" ->
        advance st;
        eat_kw st "KEY";
        let cols = name_list st in
        eat_kw st "REFERENCES";
        let target = name st in
        let tcols =
          match peek st with
          | Token.Punct "(" -> name_list st
          | _ -> []
        in
        constraints := Ast.T_foreign_key (cols, target, tcols) :: !constraints;
        true
    | Token.Kw "CONSTRAINT" ->
        advance st;
        let _cname = name st in
        table_constraint_tail ()
    | _ -> false
  and table_constraint_tail () =
    match peek st with
    | Token.Kw ("UNIQUE" | "PRIMARY" | "FOREIGN") -> table_constraint ()
    | _ -> fail st "expected constraint body after CONSTRAINT name"
  in
  let column_def () =
    let col_name, cd_span = name_sp st in
    let typ = sql_type st in
    let cstrs = ref [] in
    let rec col_constraints () =
      match peek st with
      | Token.Kw "NOT" ->
          advance st;
          eat_kw st "NULL";
          cstrs := Ast.C_not_null :: !cstrs;
          col_constraints ()
      | Token.Kw "UNIQUE" ->
          advance st;
          cstrs := Ast.C_unique :: !cstrs;
          col_constraints ()
      | Token.Kw "PRIMARY" ->
          advance st;
          eat_kw st "KEY";
          cstrs := Ast.C_primary_key :: !cstrs;
          col_constraints ()
      | Token.Kw "DEFAULT" ->
          advance st;
          (match literal st with
          | Some _ -> ()
          | None -> fail st "expected literal after DEFAULT");
          col_constraints ()
      | Token.Kw "REFERENCES" ->
          advance st;
          let _t = name st in
          (match peek st with
          | Token.Punct "(" -> ignore (name_list st)
          | _ -> ());
          col_constraints ()
      | _ -> ()
    in
    col_constraints ();
    columns :=
      { Ast.col_name; sql_type = typ; col_constraints = List.rev !cstrs; cd_span }
      :: !columns
  in
  let rec items () =
    if not (table_constraint ()) then column_def ();
    if accept st (Token.Punct ",") then items ()
    else eat st (Token.Punct ")")
  in
  items ();
  {
    Ast.ct_name;
    columns = List.rev !columns;
    constraints = List.rev !constraints;
    ct_span;
  }

let insert st =
  eat_kw st "INSERT";
  eat_kw st "INTO";
  let rel = name st in
  let cols =
    match peek st with
    | Token.Punct "(" -> Some (name_list st)
    | _ -> None
  in
  match peek st with
  | Token.Kw "SELECT" -> Ast.Insert_select (rel, cols, query st)
  | Token.Punct "(" when (match peek2 st with Token.Kw "SELECT" -> true | _ -> false) ->
      Ast.Insert_select (rel, cols, query st)
  | _ ->
  eat_kw st "VALUES";
  let row () =
    eat st (Token.Punct "(");
    let rec items acc =
      let e = expr st in
      if accept st (Token.Punct ",") then items (e :: acc)
      else begin
        eat st (Token.Punct ")");
        List.rev (e :: acc)
      end
    in
    items []
  in
  let rec rows acc =
    let r = row () in
    if accept st (Token.Punct ",") then rows (r :: acc) else List.rev (r :: acc)
  in
  Ast.Insert (rel, cols, rows [])

let update st =
  eat_kw st "UPDATE";
  let rel = name st in
  eat_kw st "SET";
  let rec assignments acc =
    let c = name st in
    eat st (Token.Punct "=");
    let e = expr st in
    if accept st (Token.Punct ",") then assignments ((c, e) :: acc)
    else List.rev ((c, e) :: acc)
  in
  let sets = assignments [] in
  let where = if accept_kw st "WHERE" then Some (cond st) else None in
  Ast.Update (rel, sets, where)

let delete st =
  eat_kw st "DELETE";
  eat_kw st "FROM";
  let rel = name st in
  let where = if accept_kw st "WHERE" then Some (cond st) else None in
  Ast.Delete (rel, where)

let alter st =
  eat_kw st "ALTER";
  eat_kw st "TABLE";
  let rel = name st in
  match peek st with
  | Token.Kw "DROP" ->
      advance st;
      ignore (accept_kw st "COLUMN");
      Ast.Alter (rel, Ast.Drop_column (name st))
  | Token.Kw "ADD" ->
      advance st;
      (match peek st with
      | Token.Kw "FOREIGN" ->
          advance st;
          eat_kw st "KEY";
          let cols = name_list st in
          eat_kw st "REFERENCES";
          let target = name st in
          let tcols =
            match peek st with Token.Punct "(" -> name_list st | _ -> []
          in
          Ast.Alter (rel, Ast.Add_foreign_key (cols, target, tcols))
      | _ -> fail st "expected FOREIGN KEY after ADD")
  | _ -> fail st "expected DROP or ADD after ALTER TABLE"

let create_view st =
  eat_kw st "CREATE";
  eat_kw st "VIEW";
  let cv_name, cv_span = name_sp st in
  let cv_cols =
    match peek st with Token.Punct "(" -> Some (name_list st) | _ -> None
  in
  eat_kw st "AS";
  Ast.Create_view { Ast.cv_name; cv_cols; cv_query = query st; cv_span }

let declare_cursor st =
  eat_kw st "DECLARE";
  let cname, span = name_sp st in
  eat_kw st "CURSOR";
  eat_kw st "FOR";
  Ast.Declare_cursor (cname, query st, span)

let open_cursor st =
  eat_kw st "OPEN";
  let cname, span = name_sp st in
  Ast.Open_cursor (cname, span)

let fetch st =
  eat_kw st "FETCH";
  let cname, span = name_sp st in
  eat_kw st "INTO";
  Ast.Fetch (cname, host_target_list st, span)

let close_cursor st =
  eat_kw st "CLOSE";
  let cname, span = name_sp st in
  Ast.Close_cursor (cname, span)

let select_statement st =
  let into = ref [] in
  let q = query_tail st (Ast.Select (select ~into st)) in
  match !into with [] -> Ast.Query q | targets -> Ast.Select_into (targets, q)

let statement st =
  match peek st with
  | Token.Kw "SELECT" -> select_statement st
  | Token.Punct "(" -> Ast.Query (query st)
  | Token.Kw "CREATE" -> (
      match peek2 st with
      | Token.Kw "VIEW" -> create_view st
      | _ -> Ast.Create (create_table st))
  | Token.Kw "INSERT" -> insert st
  | Token.Kw "UPDATE" -> update st
  | Token.Kw "DELETE" -> delete st
  | Token.Kw "ALTER" -> alter st
  | Token.Kw "DECLARE" -> declare_cursor st
  | Token.Kw "OPEN" -> open_cursor st
  | Token.Kw "FETCH" -> fetch st
  | Token.Kw "CLOSE" -> close_cursor st
  | _ -> fail st "expected a statement"

(* lex [input], then run [parse] over its tokens; a lexical error
   carries the lexer's message *)
let run parse ?base ?locate input =
  match Lexer.tokenize_spanned ?base ?locate input with
  | Error _ as e -> e
  | Ok toks -> (
      match parse { toks = Array.of_list toks; pos = 0 } with
      | v -> Ok v
      | exception Parse_error msg -> Error msg)

let parse_statement ?base ?locate input =
  run
    (fun st ->
      let s = statement st in
      ignore (accept st (Token.Punct ";"));
      (match peek st with
      | Token.Eof -> ()
      | _ -> fail st "trailing tokens after statement");
      s)
    ?base ?locate input

let parse_script ?base ?locate input =
  run
    (fun st ->
      let rec go acc =
        match peek st with
        | Token.Eof -> List.rev acc
        | Token.Punct ";" ->
            advance st;
            go acc
        | _ ->
            let s = statement st in
            go (s :: acc)
      in
      go [])
    ?base ?locate input
