open Relational

type t = {
  lhs_rel : string;
  lhs_attrs : string list;
  rhs_rel : string;
  rhs_attrs : string list;
}

let check_side (rel, attrs) =
  if attrs = [] then invalid_arg "Ind.make: empty attribute list";
  if
    List.length (List.sort_uniq String.compare attrs) <> List.length attrs
  then invalid_arg (Printf.sprintf "Ind.make: duplicate attribute in %s side" rel)

let make (lhs_rel, lhs_attrs) (rhs_rel, rhs_attrs) =
  check_side (lhs_rel, lhs_attrs);
  check_side (rhs_rel, rhs_attrs);
  if List.length lhs_attrs <> List.length rhs_attrs then
    invalid_arg "Ind.make: width mismatch";
  { lhs_rel; lhs_attrs; rhs_rel; rhs_attrs }

let compare a b =
  Stdlib.compare
    (a.lhs_rel, a.lhs_attrs, a.rhs_rel, a.rhs_attrs)
    (b.lhs_rel, b.lhs_attrs, b.rhs_rel, b.rhs_attrs)

let equal a b = compare a b = 0
let lhs t = Attribute.make t.lhs_rel t.lhs_attrs
let rhs t = Attribute.make t.rhs_rel t.rhs_attrs

let pp_side ppf (rel, attrs) =
  Format.fprintf ppf "%s[%s]" rel (String.concat "," attrs)

let pp ppf t =
  Format.fprintf ppf "%a << %a" pp_side (t.lhs_rel, t.lhs_attrs) pp_side
    (t.rhs_rel, t.rhs_attrs)

let to_string t = Format.asprintf "%a" pp t

let parse s =
  let fail () = failwith (Printf.sprintf "Ind.parse: malformed IND %S" s) in
  let parse_side part =
    let part = String.trim part in
    match (String.index_opt part '[', String.rindex_opt part ']') with
    | Some i, Some j when j > i ->
        let rel = String.trim (String.sub part 0 i) in
        let attrs =
          String.sub part (i + 1) (j - i - 1)
          |> String.split_on_char ','
          |> List.map String.trim
          |> List.filter (fun x -> x <> "")
        in
        if rel = "" || attrs = [] then fail () else (rel, attrs)
    | _ -> fail ()
  in
  let sep = "<<" in
  let rec find j =
    if j + 2 > String.length s then fail ()
    else if String.sub s j 2 = sep then j
    else find (j + 1)
  in
  let j = find 0 in
  make
    (parse_side (String.sub s 0 j))
    (parse_side (String.sub s (j + 2) (String.length s - j - 2)))

type counts = { n_left : int; n_right : int; n_join : int }

let counts db t =
  {
    n_left = Database.count_distinct db t.lhs_rel t.lhs_attrs;
    n_right = Database.count_distinct db t.rhs_rel t.rhs_attrs;
    n_join =
      Database.join_count db (t.lhs_rel, t.lhs_attrs) (t.rhs_rel, t.rhs_attrs);
  }

let satisfied db t =
  let c = counts db t in
  c.n_join = c.n_left

let key_based schema t =
  Schema.is_key schema t.rhs_rel (Attribute.Names.normalize t.rhs_attrs)

module Set = Stdlib.Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
