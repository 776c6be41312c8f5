type date = { year : int; month : int; day : int }

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | Date of date

let rank = function
  | Null -> 0
  | Bool _ -> 1
  | Int _ -> 2
  | Float _ -> 2 (* numeric values compare against each other *)
  | String _ -> 4
  | Date _ -> 5

let compare_date d1 d2 =
  match Int.compare d1.year d2.year with
  | 0 -> (
      match Int.compare d1.month d2.month with
      | 0 -> Int.compare d1.day d2.day
      | c -> c)
  | c -> c

let compare a b =
  match (a, b) with
  | Null, Null -> 0
  | Bool x, Bool y -> Bool.compare x y
  | Int x, Int y -> Int.compare x y
  | Float x, Float y -> Float.compare x y
  | Int x, Float y -> Float.compare (float_of_int x) y
  | Float x, Int y -> Float.compare x (float_of_int y)
  | String x, String y -> String.compare x y
  | Date x, Date y -> compare_date x y
  | (Null | Bool _ | Int _ | Float _ | String _ | Date _), _ ->
      Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let hash = function
  | Null -> 17
  | Bool b -> if b then 31 else 37
  | Int i -> Hashtbl.hash i
  | Float f ->
      (* hash ints and equal floats identically so hash agrees with equal *)
      if Float.is_integer f && Float.abs f < 1e18 then
        Hashtbl.hash (int_of_float f)
      else Hashtbl.hash f
  | String s -> Hashtbl.hash s
  | Date d -> Hashtbl.hash (d.year, d.month, d.day)

let is_null = function Null -> true | _ -> false

let pp ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_bool ppf b
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s -> Format.pp_print_string ppf s
  | Date d -> Format.fprintf ppf "%04d-%02d-%02d" d.year d.month d.day

let pp_sql ppf = function
  | Null -> Format.pp_print_string ppf "NULL"
  | Bool b -> Format.pp_print_string ppf (if b then "TRUE" else "FALSE")
  | Int i -> Format.pp_print_int ppf i
  | Float f -> Format.fprintf ppf "%g" f
  | String s ->
      let buf = Buffer.create (String.length s + 2) in
      Buffer.add_char buf '\'';
      String.iter
        (fun c ->
          if c = '\'' then Buffer.add_string buf "''" else Buffer.add_char buf c)
        s;
      Buffer.add_char buf '\'';
      Format.pp_print_string ppf (Buffer.contents buf)
  | Date d -> Format.fprintf ppf "'%04d-%02d-%02d'" d.year d.month d.day

let to_string v = Format.asprintf "%a" pp v

let days_in_month year month =
  match month with
  | 1 | 3 | 5 | 7 | 8 | 10 | 12 -> 31
  | 4 | 6 | 9 | 11 -> 30
  | 2 ->
      let leap = (year mod 4 = 0 && year mod 100 <> 0) || year mod 400 = 0 in
      if leap then 29 else 28
  | _ -> invalid_arg "Value.date: month out of range"

let date y m d =
  if m < 1 || m > 12 then invalid_arg "Value.date: month out of range";
  if d < 1 || d > days_in_month y m then
    invalid_arg "Value.date: day out of range";
  Date { year = y; month = m; day = d }

let parse_date s =
  (* strict YYYY-MM-DD *)
  if String.length s <> 10 || s.[4] <> '-' || s.[7] <> '-' then None
  else
    let digits sub = int_of_string_opt sub in
    match
      ( digits (String.sub s 0 4),
        digits (String.sub s 5 2),
        digits (String.sub s 8 2) )
    with
    | Some y, Some m, Some d when m >= 1 && m <= 12 && d >= 1 && d <= 31 -> (
        try
          match date y m d with Date dt -> Some dt | _ -> None
        with Invalid_argument _ -> None)
    | _ -> None

let parse s =
  if s = "" then Null
  else
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> (
            match parse_date s with
            | Some d -> Date d
            | None -> (
                match String.lowercase_ascii s with
                | "true" -> Bool true
                | "false" -> Bool false
                | _ -> String s)))
