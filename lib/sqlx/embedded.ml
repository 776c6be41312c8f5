type extraction = {
  statements : Ast.statement list;
  raw_found : int;
  failures : (string * Span.t) list;
}

(* substring search over already-lowercased text, allocation-free: the
   callers searching repeatedly (block extraction) lowercase the host
   text once instead of once per probe *)
let find_sub lower needle start =
  let hl = String.length lower and nl = String.length needle in
  let rec matches i j = j >= nl || (lower.[i + j] = needle.[j] && matches i (j + 1)) in
  let rec go i =
    if i + nl > hl then None else if matches i 0 then Some i else go (i + 1)
  in
  go start

(* like String.trim, but return how many leading characters were dropped
   so the caller can keep host offsets exact *)
let trim_located s off =
  let n = String.length s in
  let is_ws = function ' ' | '\t' | '\n' | '\r' | '\012' -> true | _ -> false in
  let i = ref 0 in
  while !i < n && is_ws s.[!i] do incr i done;
  let j = ref (n - 1) in
  while !j >= !i && is_ws s.[!j] do decr j done;
  (String.sub s !i (!j - !i + 1), off + !i)

(* EXEC SQL blocks with the host offset of each body *)
let exec_sql_blocks_located text =
  let lower = String.lowercase_ascii text in
  let blocks = ref [] in
  let rec go pos =
    match find_sub lower "exec sql" pos with
    | None -> ()
    | Some start ->
        let body_start = start + String.length "exec sql" in
        (* terminator: END-EXEC (COBOL) or ';' (C-style), whichever first *)
        let end_exec = find_sub lower "end-exec" body_start in
        let semi =
          (* only relevant when it precedes END-EXEC, so bound the scan
             there: an unterminated C-style block otherwise rescans the
             whole tail for every COBOL block *)
          let limit =
            match end_exec with Some e -> e | None -> String.length text
          in
          let rec go i =
            if i >= limit then None
            else if text.[i] = ';' then Some i
            else go (i + 1)
          in
          go body_start
        in
        let stop, next =
          match (end_exec, semi) with
          | Some e, Some s when e < s -> (e, e + String.length "end-exec")
          | Some e, None -> (e, e + String.length "end-exec")
          | _, Some s -> (s, s + 1)
          | None, None -> (String.length text, String.length text)
        in
        blocks :=
          (String.sub text body_start (stop - body_start), body_start)
          :: !blocks;
        go next
  in
  go 0;
  List.rev !blocks

(* EXEC SQL blocks are SQL by construction, so all statement forms count;
   string literals only become dynamic SQL through an API call, and the
   cursor protocol (OPEN/FETCH/CLOSE) never travels that way — keeping
   those prefixes out of the literal list avoids flagging ordinary prose
   strings ("OPEN THE FILE...") as failed SQL *)
let block_keywords =
  [
    "select"; "insert"; "update"; "delete"; "create"; "alter"; "declare";
    "open"; "fetch"; "close";
  ]

let literal_keywords =
  [ "select"; "insert"; "update"; "delete"; "create"; "alter"; "declare" ]

let looks_like_sql keywords s =
  let s = String.lowercase_ascii (String.trim s) in
  List.exists
    (fun kw ->
      String.length s > String.length kw
      && String.sub s 0 (String.length kw) = kw)
    keywords

(* scan string literals, joining adjacent ones (possibly via + or &).
   Each literal carries the host offset of every character — quote
   doubling and the synthetic space joining merged pieces make the
   fragment-to-host mapping non-affine, so a single start offset cannot
   place positions past the first piece exactly. *)
let string_literals_located text =
  let n = String.length text in
  let literals = ref [] in
  let read_literal quote i =
    (* (contents, host offset of each contents char, end offset, resume) *)
    let buf = Buffer.create 32 in
    let offs = ref [] in
    let rec go j =
      if j >= n then (Buffer.contents buf, List.rev !offs, j, j)
      else if text.[j] = quote then
        if j + 1 < n && text.[j + 1] = quote then begin
          Buffer.add_char buf quote;
          offs := j :: !offs;
          go (j + 2)
        end
        else (Buffer.contents buf, List.rev !offs, j, j + 1)
      else begin
        Buffer.add_char buf text.[j];
        offs := j :: !offs;
        go (j + 1)
      end
    in
    go i
  in
  let rec skip_concat i =
    (* whitespace and concatenation operators between adjacent literals *)
    if i >= n then i
    else
      match text.[i] with
      | ' ' | '\t' | '\n' | '\r' | '+' | '&' -> skip_concat (i + 1)
      | _ -> i
  in
  let rec go i current =
    if i >= n then
      match current with Some c -> literals := c :: !literals | None -> ()
    else
      match text.[i] with
      | '"' | '\'' ->
          let lit, offs, stop, j = read_literal text.[i] (i + 1) in
          let k = skip_concat j in
          let continues =
            k < n && (text.[k] = '"' || text.[k] = '\'') && k > j
          in
          let merged =
            match current with
            | Some (c, coffs, cstop) ->
                (* the synthetic joining space points at the gap *)
                (c ^ " " ^ lit, coffs @ (cstop :: offs), stop)
            | None -> (lit, offs, stop)
          in
          if continues then go k (Some merged)
          else begin
            literals := merged :: !literals;
            go j None
          end
      | _ -> go (i + 1) current
  in
  go 0 None;
  List.rev !literals

(* a candidate fragment: [f_map], when present, holds the exact host
   offset of every fragment character plus one end sentinel (non-affine
   literal mapping); otherwise the mapping is the offset shift [f_off] *)
type fragment = { f_text : string; f_off : int; f_map : int array option }

let fragments_of text =
  let raw_blocks = exec_sql_blocks_located text in
  let blocks =
    List.map (fun (body, off) -> trim_located body off) raw_blocks
    |> List.filter (fun (s, _) -> looks_like_sql block_keywords s)
    |> List.map (fun (s, off) -> { f_text = s; f_off = off; f_map = None })
  in
  (* avoid re-reporting literals inside EXEC SQL blocks: blank the exact
     offset ranges, preserving newlines so literal offsets stay valid *)
  let without_blocks =
    match raw_blocks with
    | [] -> text
    | _ ->
        let b = Bytes.of_string text in
        List.iter
          (fun (body, off) ->
            for i = off to off + String.length body - 1 do
              if Bytes.get b i <> '\n' then Bytes.set b i ' '
            done)
          raw_blocks;
        Bytes.to_string b
  in
  let literals =
    string_literals_located without_blocks
    |> List.filter (fun (s, _, _) -> looks_like_sql literal_keywords s)
    |> List.map (fun (s, offs, stop) ->
           let map = Array.of_list (offs @ [ stop ]) in
           (* trim whitespace, keeping the offset map aligned *)
           let trimmed, lead = trim_located s 0 in
           let map = Array.sub map lead (String.length trimmed + 1) in
           { f_text = trimmed; f_off = map.(0); f_map = Some map })
  in
  blocks @ literals

let fragment_locate host_locate map off =
  let off = max 0 (min off (Array.length map - 1)) in
  host_locate map.(off)

let span_of_fragment host_locate f =
  let s, e =
    match f.f_map with
    | Some map ->
        ( fragment_locate host_locate map 0,
          fragment_locate host_locate map (String.length f.f_text) )
    | None ->
        let base = host_locate f.f_off in
        (base, Span.advance base f.f_text (String.length f.f_text))
  in
  Span.make ~s_off:s.Span.b_off ~s_line:s.Span.b_line ~s_col:s.Span.b_col
    ~e_off:e.Span.b_off ~e_line:e.Span.b_line ~e_col:e.Span.b_col

let scan text =
  let host_locate = Span.locator text in
  let fragments = fragments_of text in
  let chunks, failures =
    List.fold_left
      (fun (chunks, fails) f ->
        match
          match f.f_map with
          | Some map ->
              Parser.parse_script
                ~locate:(fragment_locate host_locate map)
                f.f_text
          | None -> Parser.parse_script ~base:(host_locate f.f_off) f.f_text
        with
        | Ok parsed -> (parsed :: chunks, fails)
        | Error _ ->
            (chunks, (f.f_text, span_of_fragment host_locate f) :: fails))
      ([], []) fragments
  in
  {
    statements = List.concat (List.rev chunks);
    raw_found = List.length fragments;
    failures = List.rev failures;
  }

let first_line fragment =
  String.trim
    (match String.index_opt fragment '\n' with
    | Some i -> String.sub fragment 0 i
    | None -> fragment)
