(* The seed row-at-a-time CSV loader, kept as the equivalence oracle
   for the streaming columnar [Relational.Csv.load]: the ingest and
   out-of-core suites and bench B14 pin the streaming path against
   this, byte for byte. Same contract as [Relational.Csv.load], minus
   parallelism and laziness: it builds the table by [Table.insert], so
   no column is encoded. *)

open Relational

let unterminated_message qline qcol =
  Printf.sprintf "unterminated quoted field (opened at line %d, column %d)"
    qline qcol

let raise_syntax ?relation (e : Relational.Csv.syntax_error) =
  Error.raise_ ?relation ~severity:Error.Recoverable Error.Csv_syntax
    ("Csv.parse: " ^ e.se_message)

let data_row_index ~header idx = if header then idx - 1 else idx

let scan text =
  let n = String.length text in
  let rows = ref [] in
  let fields = ref [] in
  let buf = Buffer.create 32 in
  let errors = ref [] in
  let line = ref 1 in
  let line_start = ref 0 in
  let row_line = ref 1 in
  let row_index = ref 0 in
  let push_field () =
    fields := Buffer.contents buf :: !fields;
    Buffer.clear buf
  in
  let push_row () =
    push_field ();
    rows := (!row_index, !row_line, List.rev !fields) :: !rows;
    incr row_index;
    fields := []
  in
  let newline i =
    incr line;
    line_start := i
  in
  let end_row i =
    push_row ();
    newline i;
    row_line := !line
  in
  let rec plain i =
    if i >= n then finish ()
    else
      match text.[i] with
      | ',' ->
          push_field ();
          plain (i + 1)
      | '\n' ->
          end_row (i + 1);
          plain (i + 1)
      | '\r' ->
          if i + 1 < n && text.[i + 1] = '\n' then begin
            end_row (i + 2);
            plain (i + 2)
          end
          else begin
            end_row (i + 1);
            plain (i + 1)
          end
      | '"' ->
          if Buffer.length buf = 0 then
            quoted ~qline:!line ~qcol:(i - !line_start + 1) (i + 1)
          else begin
            Buffer.add_char buf '"';
            plain (i + 1)
          end
      | c ->
          Buffer.add_char buf c;
          plain (i + 1)
  and quoted ~qline ~qcol i =
    if i >= n then begin
      errors :=
        {
          Relational.Csv.se_row = !row_index;
          se_line = qline;
          se_col = qcol;
          se_message = unterminated_message qline qcol;
        }
        :: !errors;
      Buffer.clear buf;
      fields := [];
      finish ()
    end
    else
      match text.[i] with
      | '"' ->
          if i + 1 < n && text.[i + 1] = '"' then begin
            Buffer.add_char buf '"';
            quoted ~qline ~qcol (i + 2)
          end
          else plain (i + 1)
      | '\n' ->
          Buffer.add_char buf '\n';
          newline (i + 1);
          quoted ~qline ~qcol (i + 1)
      | c ->
          Buffer.add_char buf c;
          quoted ~qline ~qcol (i + 1)
  and finish () =
    if Buffer.length buf > 0 || !fields <> [] then push_row ();
    (List.rev !rows, List.rev !errors)
  in
  plain 0

let parse_cell rel attr raw =
  match Relation.domain_of rel attr with
  | Domain.Unknown -> Some (if raw = "" then Value.Null else Value.parse raw)
  | d -> Domain.parse_opt d raw

(* Build a tuple in declared attribute order from [column -> raw cell]
   bindings; absent columns become NULL (the strict loader rejects them
   before getting here). Returns the first ill-typed cell as an error. *)
let tuple_of_bindings rel ~row ~line bindings =
  let bad = ref None in
  let tuple =
    List.map
      (fun a ->
        match List.assoc_opt a bindings with
        | None -> Value.Null
        | Some raw -> (
            match parse_cell rel a raw with
            | Some v -> v
            | None ->
                if !bad = None then
                  bad :=
                    Some
                      (Error.make ~relation:rel.Relation.name ~attribute:a
                         ~severity:Error.Recoverable Error.Type_mismatch
                         (Printf.sprintf "row %d (line %d): %S is not a %s" row
                            line raw
                            (Domain.to_string (Relation.domain_of rel a))));
                Value.Null))
      rel.Relation.attrs
  in
  match !bad with None -> Ok tuple | Some e -> Error e

let load_strict ~header rel csv =
  let name = rel.Relation.name in
  let rows, syntax_errors = scan csv in
  (match syntax_errors with
  | [] -> ()
  | e :: _ -> raise_syntax ~relation:name e);
  let table = Table.create rel in
  let attrs = rel.Relation.attrs in
  let order, data_rows =
    if header then
      match rows with
      | [] -> (attrs, [])
      | (_, _, hdr) :: rest ->
          List.iter
            (fun h ->
              if not (Relation.has_attr rel h) then
                Error.raisef ~relation:name ~attribute:h
                  ~severity:Error.Recoverable Error.Unknown_column
                  "Csv.load(%s): unknown column %S" name h)
            hdr;
          List.iter
            (fun a ->
              if not (List.mem a hdr) then
                Error.raisef ~relation:name ~attribute:a
                  ~severity:Error.Recoverable Error.Missing_column
                  "Csv.load(%s): missing column %S" name a)
            attrs;
          (hdr, rest)
    else (attrs, rows)
  in
  let width = List.length order in
  List.iter
    (fun (idx, line, row) ->
      let ridx = data_row_index ~header idx in
      if List.length row <> width then
        Error.raisef ~relation:name ~severity:Error.Recoverable Error.Csv_arity
          "Csv.load(%s): row %d (line %d): width %d, expected %d" name
          ridx line (List.length row) width;
      match tuple_of_bindings rel ~row:ridx ~line (List.combine order row) with
      | Ok tuple -> Table.insert table tuple
      | Error e -> raise (Error.Error e))
    data_rows;
  table

let load_lenient ~header rel csv =
  let name = rel.Relation.name in
  let rows, syntax_errors = scan csv in
  let table = Table.create rel in
  let attrs = rel.Relation.attrs in
  let entries = ref [] in
  let add ?row error = entries := { Quarantine.row; error } :: !entries in
  let torn_data_rows = ref 0 in
  List.iter
    (fun (e : Relational.Csv.syntax_error) ->
      let row =
        if header && e.se_row = 0 then None
        else begin
          incr torn_data_rows;
          Some (data_row_index ~header e.se_row)
        end
      in
      add ?row
        (Error.make ~relation:name ~severity:Error.Recoverable Error.Csv_syntax
           ("Csv.parse: " ^ e.se_message)))
    syntax_errors;
  let order, data_rows =
    if header then
      match rows with
      | [] -> (List.map (fun a -> (a, true)) attrs, [])
      | (_, _, hdr) :: rest ->
          let order =
            List.map
              (fun h ->
                let known = Relation.has_attr rel h in
                if not known then
                  add
                    (Error.make ~relation:name ~attribute:h
                       ~severity:Error.Recoverable Error.Unknown_column
                       (Printf.sprintf "ignoring undeclared column %S" h));
                (h, known))
              hdr
          in
          (order, rest)
    else (List.map (fun a -> (a, true)) attrs, rows)
  in
  List.iter
    (fun a ->
      if not (List.exists (fun (h, keep) -> keep && h = a) order) then
        add
          (Error.make ~relation:name ~attribute:a ~severity:Error.Recoverable
             Error.Missing_column
             (Printf.sprintf "column %S absent from input; filled with NULL" a)))
    attrs;
  let width = List.length order in
  let kept = ref 0 in
  List.iter
    (fun (idx, line, row) ->
      let ridx = data_row_index ~header idx in
      if List.length row <> width then
        add ~row:ridx
          (Error.make ~relation:name ~severity:Error.Recoverable Error.Csv_arity
             (Printf.sprintf "row %d (line %d): width %d, expected %d" ridx line
                (List.length row) width))
      else
        let bindings =
          List.concat
            (List.map2
               (fun (h, keep) raw -> if keep then [ (h, raw) ] else [])
               order row)
        in
        match tuple_of_bindings rel ~row:ridx ~line bindings with
        | Ok tuple ->
            Table.insert table tuple;
            incr kept
        | Error e -> add ~row:ridx e)
    data_rows;
  let report =
    {
      Quarantine.relation = name;
      total_rows = List.length data_rows + !torn_data_rows;
      kept = !kept;
      entries = List.rev !entries;
    }
  in
  (table, report)

let load ?(header = true) ?(mode = `Strict) rel csv =
  match mode with
  | `Strict -> (
      match load_strict ~header rel csv with
      | table -> Ok (table, None)
      | exception Error.Error e -> Stdlib.Error e)
  | `Quarantine ->
      let table, report = load_lenient ~header rel csv in
      Ok (table, if Quarantine.is_empty report then None else Some report)
