(* Reference JSON string codec: the byte-at-a-time printer and
   recursive-descent parser that [Relational.Json] used before it
   copied string runs whole. Same values, same bytes, same
   [Relational.Json.Parse_error] cases; the json suite checks the
   library against this on random and corrupted documents. *)

open Relational.Json

let escape_into buf s =
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"'

let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec try_prec p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else try_prec (p + 1)
    in
    try_prec 1

let rec print buf = function
  | Null -> Buffer.add_string buf "null"
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f ->
      if Float.is_nan f || Float.abs f = infinity then
        Buffer.add_string buf "null"
      else Buffer.add_string buf (float_repr f)
  | String s -> escape_into buf s
  | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          print buf x)
        xs;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape_into buf k;
          Buffer.add_char buf ':';
          print buf v)
        fields;
      Buffer.add_char buf '}'

let to_string v =
  let buf = Buffer.create 256 in
  print buf v;
  Buffer.contents buf

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* the library's nesting cap, so both refuse the same documents *)
let max_depth = Relational.Json.max_depth

type state = { text : string; mutable pos : int }

let peek st =
  if st.pos < String.length st.text then Some st.text.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.text
    &&
    match st.text.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  match peek st with
  | Some c' when c' = c -> st.pos <- st.pos + 1
  | Some c' -> fail "expected %c at offset %d, found %c" c st.pos c'
  | None -> fail "expected %c at offset %d, found end of input" c st.pos

let literal st word value =
  let n = String.length word in
  if
    st.pos + n <= String.length st.text
    && String.sub st.text st.pos n = word
  then begin
    st.pos <- st.pos + n;
    value
  end
  else fail "invalid literal at offset %d" st.pos

let parse_hex4 st =
  if st.pos + 4 > String.length st.text then
    fail "truncated \\u escape at offset %d" st.pos;
  let v = ref 0 in
  for i = 0 to 3 do
    let c = st.text.[st.pos + i] in
    let d =
      match c with
      | '0' .. '9' -> Char.code c - Char.code '0'
      | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
      | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
      | _ -> fail "bad hex digit %c in \\u escape" c
    in
    v := (!v * 16) + d
  done;
  st.pos <- st.pos + 4;
  !v

let add_utf8 buf cp =
  if cp < 0x80 then Buffer.add_char buf (Char.chr cp)
  else if cp < 0x800 then begin
    Buffer.add_char buf (Char.chr (0xC0 lor (cp lsr 6)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end
  else begin
    Buffer.add_char buf (Char.chr (0xE0 lor (cp lsr 12)));
    Buffer.add_char buf (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
    Buffer.add_char buf (Char.chr (0x80 lor (cp land 0x3F)))
  end

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    match peek st with
    | None -> fail "unterminated string"
    | Some '"' -> st.pos <- st.pos + 1
    | Some '\\' -> (
        st.pos <- st.pos + 1;
        match peek st with
        | None -> fail "unterminated escape"
        | Some c ->
            st.pos <- st.pos + 1;
            (match c with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' -> add_utf8 buf (parse_hex4 st)
            | c -> fail "bad escape \\%c" c);
            go ())
    | Some c ->
        st.pos <- st.pos + 1;
        Buffer.add_char buf c;
        go ()
  in
  go ();
  Buffer.contents buf

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.text && is_num_char st.text.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let s = String.sub st.text start (st.pos - start) in
  let has c = String.contains s c in
  if (not (has '.')) && (not (has 'e')) && not (has 'E') then
    match int_of_string_opt s with
    | Some i -> Int i
    | None -> (
        match float_of_string_opt s with
        | Some f -> Float f
        | None -> fail "bad number %S at offset %d" s start)
  else
    match float_of_string_opt s with
    | Some f -> Float f
    | None -> fail "bad number %S at offset %d" s start

let rec parse_value ~depth st =
  skip_ws st;
  match peek st with
  | None -> fail "unexpected end of input"
  | Some ('{' | '[') when depth = max_depth ->
      fail "nesting deeper than %d at offset %d" max_depth st.pos
  | Some '{' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some '}' then begin
        st.pos <- st.pos + 1;
        Obj []
      end
      else begin
        let fields = ref [] in
        let rec field () =
          skip_ws st;
          let k = parse_string st in
          skip_ws st;
          expect st ':';
          let v = parse_value ~depth:(depth + 1) st in
          fields := (k, v) :: !fields;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              field ()
          | Some '}' -> st.pos <- st.pos + 1
          | _ -> fail "expected , or } at offset %d" st.pos
        in
        field ();
        Obj (List.rev !fields)
      end
  | Some '[' ->
      st.pos <- st.pos + 1;
      skip_ws st;
      if peek st = Some ']' then begin
        st.pos <- st.pos + 1;
        List []
      end
      else begin
        let items = ref [] in
        let rec item () =
          let v = parse_value ~depth:(depth + 1) st in
          items := v :: !items;
          skip_ws st;
          match peek st with
          | Some ',' ->
              st.pos <- st.pos + 1;
              item ()
          | Some ']' -> st.pos <- st.pos + 1
          | _ -> fail "expected , or ] at offset %d" st.pos
        in
        item ();
        List (List.rev !items)
      end
  | Some '"' -> String (parse_string st)
  | Some 't' -> literal st "true" (Bool true)
  | Some 'f' -> literal st "false" (Bool false)
  | Some 'n' -> literal st "null" Null
  | Some _ -> parse_number st

let of_string text =
  let st = { text; pos = 0 } in
  let v = parse_value ~depth:0 st in
  skip_ws st;
  if st.pos <> String.length text then
    fail "trailing garbage at offset %d" st.pos;
  v
