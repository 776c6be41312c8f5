open Relational

type derived = { cols : string list; rows : Value.t list list }

type pred =
  | True
  | And of pred * pred
  | Or of pred * pred
  | Not of pred
  | Cmp of cmp * operand * operand
  | Is_null of operand

and cmp = Eq | Neq | Lt | Leq | Gt | Geq

and operand = Col of string | Const of Value.t

type expr =
  | Rel of string
  | Project of string list * expr
  | Select of pred * expr
  | Product of expr * expr
  | Equijoin of (string * string) list * expr * expr
  | Rename of (string * string) list * expr
  | Distinct of expr
  | Union of expr * expr
  | Inter of expr * expr
  | Diff of expr * expr

let col d name =
  let rec go i = function
    | [] ->
        Error.raisef ~attribute:name Error.Unknown_column
          "Algebra: unknown column %s" name
    | c :: _ when String.equal c name -> i
    | _ :: rest -> go (i + 1) rest
  in
  go 0 d.cols

let operand_value d row = function
  | Const v -> v
  | Col c -> List.nth row (col d c)

let cmp_holds op v1 v2 =
  if Value.is_null v1 || Value.is_null v2 then false
  else
    let c = Value.compare v1 v2 in
    match op with
    | Eq -> c = 0
    | Neq -> c <> 0
    | Lt -> c < 0
    | Leq -> c <= 0
    | Gt -> c > 0
    | Geq -> c >= 0

let rec pred_holds d row = function
  | True -> true
  | And (p, q) -> pred_holds d row p && pred_holds d row q
  | Or (p, q) -> pred_holds d row p || pred_holds d row q
  | Not p -> not (pred_holds d row p)
  | Cmp (op, a, b) -> cmp_holds op (operand_value d row a) (operand_value d row b)
  | Is_null a -> Value.is_null (operand_value d row a)

let check_no_clash cols1 cols2 =
  List.iter
    (fun c ->
      if List.mem c cols1 then
        Error.invariant (Printf.sprintf "Algebra: column clash on %s in product" c))
    cols2

let dedup_rows rows =
  let seen = Hashtbl.create 64 in
  List.filter
    (fun row ->
      if Hashtbl.mem seen row then false
      else begin
        Hashtbl.add seen row ();
        true
      end)
    rows

let set_op f (d1 : derived) (d2 : derived) =
  if List.length d1.cols <> List.length d2.cols then
    Error.invariant "Algebra: arity mismatch in set operation";
  let s2 = Hashtbl.create 64 in
  List.iter (fun r -> Hashtbl.replace s2 r ()) d2.rows;
  { cols = d1.cols; rows = f (dedup_rows d1.rows) s2 }

let rec eval db = function
  | Rel name -> (
      match Database.table_opt db name with
      | None ->
          Error.raisef ~relation:name Error.Unknown_relation
            "Algebra: unknown relation %s" name
      | Some t ->
          {
            cols = (Table.schema t).Relation.attrs;
            rows = Table.to_lists t;
          })
  | Project (cols, e) ->
      let d = eval db e in
      let idx = List.map (col d) cols in
      { cols; rows = List.map (fun row -> List.map (List.nth row) idx) d.rows }
  | Select (p, e) ->
      let d = eval db e in
      { d with rows = List.filter (fun row -> pred_holds d row p) d.rows }
  | Product (e1, e2) ->
      let d1 = eval db e1 and d2 = eval db e2 in
      check_no_clash d1.cols d2.cols;
      {
        cols = d1.cols @ d2.cols;
        rows =
          List.concat_map (fun r1 -> List.map (fun r2 -> r1 @ r2) d2.rows)
            d1.rows;
      }
  | Equijoin (pairs, e1, e2) ->
      let d1 = eval db e1 and d2 = eval db e2 in
      let lidx = List.map (fun (l, _) -> col d1 l) pairs in
      let ridx = List.map (fun (_, r) -> col d2 r) pairs in
      let keep2 =
        List.filteri
          (fun i _ -> not (List.mem i ridx))
          (List.mapi (fun i c -> (i, c)) d2.cols)
      in
      let index = Hashtbl.create 64 in
      List.iter
        (fun r2 ->
          let key = List.map (List.nth r2) ridx in
          if not (List.exists Value.is_null key) then
            let prev = try Hashtbl.find index key with Not_found -> [] in
            Hashtbl.replace index key (r2 :: prev))
        d2.rows;
      let cols2 = List.map snd keep2 in
      check_no_clash d1.cols cols2;
      let rows =
        List.concat_map
          (fun r1 ->
            let key = List.map (List.nth r1) lidx in
            if List.exists Value.is_null key then []
            else
              match Hashtbl.find_opt index key with
              | None -> []
              | Some matches ->
                  List.rev_map
                    (fun r2 ->
                      r1 @ List.map (fun (i, _) -> List.nth r2 i) keep2)
                    matches)
          d1.rows
      in
      { cols = d1.cols @ cols2; rows }
  | Rename (pairs, e) ->
      let d = eval db e in
      let cols =
        List.map
          (fun c ->
            match List.assoc_opt c pairs with Some c' -> c' | None -> c)
          d.cols
      in
      { d with cols }
  | Distinct e ->
      let d = eval db e in
      { d with rows = dedup_rows d.rows }
  | Union (e1, e2) ->
      let d1 = eval db e1 and d2 = eval db e2 in
      set_op
        (fun r1 s2 ->
          let extra =
            List.filter (fun r -> not (List.mem r r1))
              (dedup_rows (Hashtbl.fold (fun r () acc -> r :: acc) s2 []))
          in
          r1 @ extra)
        d1 d2
  | Inter (e1, e2) ->
      let d1 = eval db e1 and d2 = eval db e2 in
      set_op (fun r1 s2 -> List.filter (Hashtbl.mem s2) r1) d1 d2
  | Diff (e1, e2) ->
      let d1 = eval db e1 and d2 = eval db e2 in
      set_op (fun r1 s2 -> List.filter (fun r -> not (Hashtbl.mem s2 r)) r1) d1 d2

let pp_derived ppf d =
  Format.fprintf ppf "@[<v>%s@ " (String.concat " | " d.cols);
  List.iter
    (fun row ->
      Format.fprintf ppf "%s@ "
        (String.concat " | " (List.map Value.to_string row)))
    d.rows;
  Format.fprintf ppf "@]"
