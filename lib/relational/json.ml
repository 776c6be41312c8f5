(* Minimal JSON: deterministic printer + recursive-descent parser.
   See json.mli for the contract. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

(* ------------------------------------------------------------------ *)
(* printing                                                            *)
(* ------------------------------------------------------------------ *)

(* lowercase hex digits of the \u00XX form for control bytes *)
let hex_digits = "0123456789abcdef"

(* scan for the next byte that needs escaping and copy the clean run
   before it with one [add_substring]: strings are mostly clean *)
let escape_into buf s =
  Buffer.add_char buf '"';
  let n = String.length s in
  let rec scan start i =
    if i = n then Buffer.add_substring buf s start (i - start)
    else
      match s.[i] with
      | ('"' | '\\' | '\000' .. '\031') as c ->
          Buffer.add_substring buf s start (i - start);
          (match c with
          | '"' -> Buffer.add_string buf "\\\""
          | '\\' -> Buffer.add_string buf "\\\\"
          | '\n' -> Buffer.add_string buf "\\n"
          | '\r' -> Buffer.add_string buf "\\r"
          | '\t' -> Buffer.add_string buf "\\t"
          | c ->
              Buffer.add_string buf "\\u00";
              Buffer.add_char buf hex_digits.[Char.code c lsr 4];
              Buffer.add_char buf hex_digits.[Char.code c land 15]);
          scan (i + 1) (i + 1)
      | _ -> scan start (i + 1)
  in
  scan 0 0;
  Buffer.add_char buf '"'

(* shortest decimal form that parses back to the same float, so
   encodings are stable enough for golden tests *)
let float_repr f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Printf.sprintf "%.1f" f
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
      (* JSON has no NaN/inf *)
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

(* ------------------------------------------------------------------ *)
(* parsing                                                             *)
(* ------------------------------------------------------------------ *)

exception Parse_error of string

let fail fmt = Printf.ksprintf (fun m -> raise (Parse_error m)) fmt

(* the parser recurses once per level: a fixed cap refuses a hostile
   document in O(cap) stack and time instead of O(input) *)
let max_depth = 512

type state = { text : string; mutable pos : int }

let peek st = if st.pos < String.length st.text then Some st.text.[st.pos] else None

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

(* encode a code point as UTF-8 (escapes may name any BMP char) *)
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

(* the offset of the next '"' or '\\' at or after [i], or the text's
   length if there is none *)
let rec string_stop text i =
  if i >= String.length text then i
  else match text.[i] with '"' | '\\' -> i | _ -> string_stop text (i + 1)

(* decode the escape whose backslash sits just before [st.pos] *)
let decode_escape st buf =
  if st.pos >= String.length st.text then fail "unterminated escape";
  let c = st.text.[st.pos] in
  st.pos <- st.pos + 1;
  match c with
  | '"' -> Buffer.add_char buf '"'
  | '\\' -> Buffer.add_char buf '\\'
  | '/' -> Buffer.add_char buf '/'
  | 'b' -> Buffer.add_char buf '\b'
  | 'f' -> Buffer.add_char buf '\012'
  | 'n' -> Buffer.add_char buf '\n'
  | 'r' -> Buffer.add_char buf '\r'
  | 't' -> Buffer.add_char buf '\t'
  | 'u' -> add_utf8 buf (parse_hex4 st)
  | c -> fail "bad escape \\%c" c

(* runs between escapes are copied whole; a string without escapes is
   one [String.sub] and never touches a [Buffer] *)
let parse_string st =
  expect st '"';
  let text = st.text in
  let n = String.length text in
  let start = st.pos in
  let stop = string_stop text start in
  if stop = n then fail "unterminated string"
  else if text.[stop] = '"' then begin
    st.pos <- stop + 1;
    String.sub text start (stop - start)
  end
  else begin
    let buf = Buffer.create (stop - start + 16) in
    Buffer.add_substring buf text start (stop - start);
    (* [text.[i]] is a backslash *)
    let rec escape i =
      st.pos <- i + 1;
      decode_escape st buf;
      let j = string_stop text st.pos in
      Buffer.add_substring buf text st.pos (j - st.pos);
      if j = n then fail "unterminated string"
      else if text.[j] = '"' then st.pos <- j + 1
      else escape j
    in
    escape stop;
    Buffer.contents buf
  end

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while
    st.pos < String.length st.text && is_num_char st.text.[st.pos]
  do
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

let of_string_opt text =
  match of_string text with v -> Some v | exception Parse_error _ -> None

(* ------------------------------------------------------------------ *)
(* accessors                                                           *)
(* ------------------------------------------------------------------ *)

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_string_opt = function String s -> Some s | _ -> None

let to_int_opt = function
  | Int i -> Some i
  | Float f when Float.is_integer f -> Some (int_of_float f)
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_bool_opt = function Bool b -> Some b | _ -> None
let to_list_opt = function List xs -> Some xs | _ -> None
let to_obj_opt = function Obj fields -> Some fields | _ -> None

let mem_string key v = Option.bind (member key v) to_string_opt
let mem_int key v = Option.bind (member key v) to_int_opt
let mem_float key v = Option.bind (member key v) to_float_opt
let mem_bool key v = Option.bind (member key v) to_bool_opt
let mem_list key v = Option.bind (member key v) to_list_opt

let decode_list decode xs =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | x :: rest -> Result.bind (decode x) (fun y -> go (y :: acc) rest)
  in
  go [] xs

let opt_string = function Some s -> String s | None -> Null
let opt_int = function Some i -> Int i | None -> Null
let opt_float = function Some f -> Float f | None -> Null
