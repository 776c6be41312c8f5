(* [(message, byte offset)]; caught only by [tokenize_spanned] *)
exception Lex_error of string * int

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident_char c = is_ident_start c || is_digit c || c = '-'
(* '-' appears in legacy attribute names like project-name; we accept it
   inside identifiers when not followed by a digit-only suffix ambiguity —
   see [lex_ident] which stops '-' before a non-ident char. *)

(* offsets of the first character of every line, for offset -> line/col *)
let line_starts input =
  let n = String.length input in
  let starts = ref [ 0 ] in
  for i = 0 to n - 1 do
    if input.[i] = '\n' then starts := (i + 1) :: !starts
  done;
  Array.of_list (List.rev !starts)

let pos_of starts off =
  (* greatest line start <= off, by binary search *)
  let lo = ref 0 and hi = ref (Array.length starts - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi + 1) / 2 in
    if starts.(mid) <= off then lo := mid else hi := mid - 1
  done;
  (!lo + 1, off - starts.(!lo) + 1)

let lex ~base ?locate input =
  let n = String.length input in
  let toks = ref [] in
  (* emit the token lexed from [i, j) *)
  let emit t i j = toks := (t, i, j) :: !toks in
  let rec skip i =
    if i >= n then i
    else
      match input.[i] with
      | ' ' | '\t' | '\n' | '\r' -> skip (i + 1)
      | '-' when i + 1 < n && input.[i + 1] = '-' ->
          let rec eol j = if j >= n || input.[j] = '\n' then j else eol (j + 1) in
          skip (eol (i + 2))
      | '/' when i + 1 < n && input.[i + 1] = '*' ->
          let rec close j =
            if j + 1 >= n then raise (Lex_error ("unterminated comment", i))
            else if input.[j] = '*' && input.[j + 1] = '/' then j + 2
            else close (j + 1)
          in
          skip (close (i + 2))
      | _ -> i
  in
  let lex_ident i =
    let rec stop j =
      if j < n && is_ident_char input.[j] then
        (* don't swallow a trailing '-' (e.g. "a -- comment" or "a - b") *)
        if input.[j] = '-' && not (j + 1 < n && is_ident_char input.[j + 1])
        then j
        else if input.[j] = '-' && j + 1 < n && input.[j + 1] = '-' then j
        else stop (j + 1)
      else j
    in
    let j = stop i in
    (String.sub input i (j - i), j)
  in
  let lex_number i =
    let rec digits j = if j < n && is_digit input.[j] then digits (j + 1) else j in
    let j = digits i in
    if j < n && input.[j] = '.' && j + 1 < n && is_digit input.[j + 1] then begin
      let k = digits (j + 1) in
      (Token.Float (float_of_string (String.sub input i (k - i))), k)
    end
    else
      match int_of_string_opt (String.sub input i (j - i)) with
      | Some k -> (Token.Int k, j)
      | None -> raise (Lex_error ("integer literal out of range", i))
  in
  let lex_string i =
    let buf = Buffer.create 16 in
    let rec go j =
      if j >= n then raise (Lex_error ("unterminated string", i))
      else if input.[j] = '\'' then
        if j + 1 < n && input.[j + 1] = '\'' then begin
          Buffer.add_char buf '\'';
          go (j + 2)
        end
        else (Buffer.contents buf, j + 1)
      else begin
        Buffer.add_char buf input.[j];
        go (j + 1)
      end
    in
    go i
  in
  let lex_quoted_ident i =
    let rec close j =
      if j >= n then raise (Lex_error ("unterminated quoted identifier", i))
      else if input.[j] = '"' then j
      else close (j + 1)
    in
    let j = close i in
    (String.sub input i (j - i), j + 1)
  in
  let rec go i =
    let i = skip i in
    if i >= n then emit Token.Eof n n
    else
      let c = input.[i] in
      if is_ident_start c then begin
        let word, j = lex_ident i in
        if Token.is_keyword word then
          emit (Token.Kw (String.uppercase_ascii word)) i j
        else emit (Token.Ident word) i j;
        go j
      end
      else if is_digit c then begin
        let tok, j = lex_number i in
        emit tok i j;
        go j
      end
      else
        match c with
        | '\'' ->
            let s, j = lex_string (i + 1) in
            emit (Token.Str s) i j;
            go j
        | '"' ->
            let s, j = lex_quoted_ident (i + 1) in
            emit (Token.Ident s) i j;
            go j
        | '(' | ')' | ',' | ';' | '.' | '*' | '+' | '/' ->
            emit (Token.Punct (String.make 1 c)) i (i + 1);
            go (i + 1)
        | '=' ->
            emit (Token.Punct "=") i (i + 1);
            go (i + 1)
        | '<' ->
            if i + 1 < n && input.[i + 1] = '>' then begin
              emit (Token.Punct "<>") i (i + 2);
              go (i + 2)
            end
            else if i + 1 < n && input.[i + 1] = '=' then begin
              emit (Token.Punct "<=") i (i + 2);
              go (i + 2)
            end
            else begin
              emit (Token.Punct "<") i (i + 1);
              go (i + 1)
            end
        | '>' ->
            if i + 1 < n && input.[i + 1] = '=' then begin
              emit (Token.Punct ">=") i (i + 2);
              go (i + 2)
            end
            else begin
              emit (Token.Punct ">") i (i + 1);
              go (i + 1)
            end
        | '!' ->
            if i + 1 < n && input.[i + 1] = '=' then begin
              emit (Token.Punct "!=") i (i + 2);
              go (i + 2)
            end
            else raise (Lex_error ("illegal character '!'", i))
        | '|' ->
            if i + 1 < n && input.[i + 1] = '|' then begin
              emit (Token.Punct "||") i (i + 2);
              go (i + 2)
            end
            else raise (Lex_error ("illegal character '|'", i))
        | '-' ->
            (* not a comment (handled in skip); negative number or minus *)
            if i + 1 < n && is_digit input.[i + 1] then begin
              let tok, j = lex_number (i + 1) in
              let neg = function
                | Token.Int k -> Token.Int (-k)
                | Token.Float f -> Token.Float (-.f)
                | t -> t
              in
              emit (neg tok) i j;
              go j
            end
            else begin
              emit (Token.Punct "-") i (i + 1);
              go (i + 1)
            end
        | ':' ->
            (* host-variable marker in embedded SQL: ":emp-no" lexes as a
               host variable; we surface it as an identifier-like token *)
            if i + 1 < n && is_ident_start input.[i + 1] then begin
              let word, j = lex_ident (i + 1) in
              emit (Token.Ident (":" ^ word)) i j;
              go j
            end
            else raise (Lex_error ("illegal character ':'", i))
        | _ -> raise (Lex_error (Printf.sprintf "illegal character %C" c, i))
  in
  go 0;
  let starts = line_starts input in
  let span_of =
    match locate with
    | Some locate ->
        (* non-affine fragment -> host mapping (merged multi-literal
           dynamic SQL): each offset is located independently *)
        fun i j ->
          let s = locate i and e = locate j in
          Span.make ~s_off:s.Span.b_off ~s_line:s.Span.b_line
            ~s_col:s.Span.b_col ~e_off:e.Span.b_off ~e_line:e.Span.b_line
            ~e_col:e.Span.b_col
    | None ->
        fun i j ->
          let s_line, s_col = pos_of starts i in
          let e_line, e_col = pos_of starts j in
          Span.rebase base
            (Span.make ~s_off:i ~s_line ~s_col ~e_off:j ~e_line ~e_col)
  in
  List.rev_map (fun (tok, i, j) -> { Token.tok; span = span_of i j }) !toks

let tokenize_spanned ?(base = Span.base0) ?locate input =
  match lex ~base ?locate input with
  | toks -> Ok toks
  | exception Lex_error (msg, pos) ->
      Error (Printf.sprintf "lexical error at offset %d: %s" pos msg)

let tokenize input =
  Result.map
    (List.map (fun (s : Token.spanned) -> s.Token.tok))
    (tokenize_spanned input)
