open Sqlx

type severity = Info | Warning | Error

let severity_to_string = function
  | Info -> "info"
  | Warning -> "warning"
  | Error -> "error"

let severity_of_string = function
  | "info" -> Some Info
  | "warning" -> Some Warning
  | "error" -> Some Error
  | _ -> None

let severity_rank = function Info -> 0 | Warning -> 1 | Error -> 2

type t = {
  code : string;
  severity : severity;
  message : string;
  span : Span.t;
  source_name : string option;
}

let make ?(span = Span.dummy) ?source_name ~code severity message =
  { code; severity; message; span; source_name }

let compare a b =
  let c =
    Stdlib.compare
      (Option.value ~default:"" a.source_name)
      (Option.value ~default:"" b.source_name)
  in
  if c <> 0 then c
  else
    let c = Int.compare a.span.Span.s_off b.span.Span.s_off in
    if c <> 0 then c
    else
      let c = String.compare a.code b.code in
      if c <> 0 then c else String.compare a.message b.message

let max_severity diags =
  List.fold_left
    (fun acc d ->
      match acc with
      | None -> Some d.severity
      | Some s ->
          if severity_rank d.severity > severity_rank s then Some d.severity
          else acc)
    None diags

let count sev diags = List.length (List.filter (fun d -> d.severity = sev) diags)

let header d =
  let b = Buffer.create 64 in
  (match d.source_name with
  | Some n ->
      Buffer.add_string b n;
      Buffer.add_char b ':'
  | None -> ());
  if not (Span.is_dummy d.span) then begin
    Buffer.add_string b
      (Printf.sprintf "%d:%d:" d.span.Span.s_line d.span.Span.s_col)
  end;
  if Buffer.length b > 0 then Buffer.add_char b ' ';
  Buffer.add_string b
    (Printf.sprintf "%s[%s]: %s" (severity_to_string d.severity) d.code
       d.message);
  Buffer.contents b

let render ?source d =
  let excerpt =
    match source with
    | None -> []
    | Some text ->
        List.map (fun l -> "  " ^ l) (Span.excerpt d.span text)
  in
  header d :: excerpt

(* ---------------------------------------------------------------- *)
(* JSON                                                              *)
(* ---------------------------------------------------------------- *)

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let span_json sp =
  if Span.is_dummy sp then "null"
  else
    Printf.sprintf
      "{\"offset\":%d,\"line\":%d,\"col\":%d,\"end_offset\":%d,\"end_line\":%d,\"end_col\":%d}"
      sp.Span.s_off sp.Span.s_line sp.Span.s_col sp.Span.e_off sp.Span.e_line
      sp.Span.e_col

let to_json d =
  Printf.sprintf
    "{\"code\":\"%s\",\"severity\":\"%s\",\"message\":\"%s\",\"source\":%s,\"span\":%s}"
    (json_escape d.code)
    (severity_to_string d.severity)
    (json_escape d.message)
    (match d.source_name with
    | Some n -> Printf.sprintf "\"%s\"" (json_escape n)
    | None -> "null")
    (span_json d.span)

let list_to_json diags =
  match diags with
  | [] -> "[]"
  | _ ->
      "[\n  " ^ String.concat ",\n  " (List.map to_json diags) ^ "\n]"
