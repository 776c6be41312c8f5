type t =
  | Kw of string
  | Ident of string
  | Int of int
  | Float of float
  | Str of string
  | Punct of string
  | Eof

let keywords =
  [
    "SELECT"; "DISTINCT"; "FROM"; "WHERE"; "GROUP"; "BY"; "ORDER"; "HAVING";
    "AND"; "OR"; "NOT"; "IN"; "EXISTS"; "BETWEEN"; "LIKE"; "IS"; "NULL";
    "AS"; "COUNT"; "UNION"; "INTERSECT"; "EXCEPT"; "MINUS"; "ALL"; "ASC";
    "DESC"; "CREATE"; "TABLE"; "UNIQUE"; "PRIMARY"; "KEY"; "FOREIGN";
    "REFERENCES"; "INSERT"; "INTO"; "VALUES"; "UPDATE"; "SET"; "DELETE";
    "TRUE"; "FALSE"; "CONSTRAINT"; "CHECK"; "DEFAULT"; "JOIN"; "INNER";
    "ON"; "SUM"; "AVG"; "MIN"; "MAX"; "ALTER"; "ADD"; "DROP"; "COLUMN";
    "DECLARE"; "CURSOR"; "OPEN"; "FETCH"; "CLOSE"; "VIEW"; "FOR";
  ]

let keyword_set =
  let h = Hashtbl.create (2 * List.length keywords) in
  List.iter (fun k -> Hashtbl.replace h k ()) keywords;
  h

let is_keyword s = Hashtbl.mem keyword_set (String.uppercase_ascii s)

let equal (a : t) (b : t) = a = b

let to_string = function
  | Kw k -> k
  | Ident i -> i
  | Int i -> string_of_int i
  | Float f -> string_of_float f
  | Str s -> Printf.sprintf "'%s'" s
  | Punct p -> p
  | Eof -> "<eof>"

let pp ppf t = Format.pp_print_string ppf (to_string t)

type spanned = { tok : t; span : Span.t }
