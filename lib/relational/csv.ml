type syntax_error = {
  se_row : int;
  se_line : int;
  se_col : int;
  se_message : string;
}

let unterminated_message qline qcol =
  Printf.sprintf "unterminated quoted field (opened at line %d, column %d)"
    qline qcol

let raise_syntax ?relation (e : syntax_error) =
  Error.raise_ ?relation ~severity:Error.Recoverable Error.Csv_syntax
    ("Csv.parse: " ^ e.se_message)

(* ------------------------------------------------------------------ *)
(* streaming scanner                                                   *)
(* ------------------------------------------------------------------ *)

type row = { index : int; line : int; fields : string array }

(* Incremental chunk-fed scanner. Field bytes are sliced straight out
   of the chunk when a field lies within one chunk ([sc_buf] is touched
   only by escapes and chunk boundaries), so the common path allocates
   one string per field and nothing else. Positions ([sc_line],
   [sc_line_start], [sc_abs]) are absolute document offsets, which is
   what lets a parallel worker resume mid-document with exact line and
   column reporting.

   Two one-byte lookaheads can straddle a chunk boundary and are carried
   as modes: [Cr_end] (a row just ended on '\r'; a following '\n'
   belongs to it) and [Quote_end] (a '"' inside a quoted field; a
   following '"' is an escaped quote, anything else closed the field). *)
type sc_mode = Sc_plain | Sc_quoted | Sc_quote_end | Sc_cr_end

type scanner = {
  sc_emit : int -> int -> string array -> unit;  (* row index, line, fields *)
  sc_buf : Buffer.t;
  mutable sc_fbuf : string array;  (* fields of the row being assembled *)
  mutable sc_nf : int;
  mutable sc_mode : sc_mode;
  mutable sc_line : int;
  mutable sc_line_start : int;  (* absolute offset where the line starts *)
  mutable sc_row_line : int;
  mutable sc_row_index : int;
  mutable sc_abs : int;  (* absolute offset of the next byte to be fed *)
  mutable sc_qline : int;  (* where the currently open quote opened *)
  mutable sc_qcol : int;
  mutable sc_errors : syntax_error list;  (* reversed *)
}

let scanner_start ?(row_index = 0) ?(line = 1) ?(abs = 0) emit =
  {
    sc_emit = emit;
    sc_buf = Buffer.create 64;
    sc_fbuf = Array.make 8 "";
    sc_nf = 0;
    sc_mode = Sc_plain;
    sc_line = line;
    sc_line_start = abs;
    sc_row_line = line;
    sc_row_index = row_index;
    sc_abs = abs;
    sc_qline = 0;
    sc_qcol = 0;
    sc_errors = [];
  }

let scanner_make emit = scanner_start emit

let push_field_string st f =
  if st.sc_nf = Array.length st.sc_fbuf then begin
    let d = Array.make (2 * st.sc_nf) "" in
    Array.blit st.sc_fbuf 0 d 0 st.sc_nf;
    st.sc_fbuf <- d
  end;
  st.sc_fbuf.(st.sc_nf) <- f;
  st.sc_nf <- st.sc_nf + 1

let emit_row st =
  let fields = Array.sub st.sc_fbuf 0 st.sc_nf in
  st.sc_emit st.sc_row_index st.sc_row_line fields;
  st.sc_row_index <- st.sc_row_index + 1;
  st.sc_nf <- 0

(* Feed the bytes [s.[off] .. s.[off+len-1]] to the scanner. It only
   reads [s] (string callers pass [Bytes.unsafe_of_string]) and copies
   fields out, so a caller may refill and feed the same buffer again. *)
let scanner_feed st s off len =
  let limit = off + len in
  let base = st.sc_abs - off in
  let fstart = ref off in
  let i = ref off in
  let flush_run j =
    if j > !fstart then Buffer.add_subbytes st.sc_buf s !fstart (j - !fstart)
  in
  let push_field j =
    if Buffer.length st.sc_buf = 0 then
      push_field_string st (Bytes.sub_string s !fstart (j - !fstart))
    else begin
      flush_run j;
      let f = Buffer.contents st.sc_buf in
      Buffer.clear st.sc_buf;
      push_field_string st f
    end
  in
  if len > 0 then begin
    (* resolve a lookahead pending from the previous chunk *)
    (match st.sc_mode with
    | Sc_cr_end ->
        if Bytes.get s off = '\n' then begin
          i := off + 1;
          fstart := off + 1
        end;
        st.sc_line_start <- base + !i;
        st.sc_mode <- Sc_plain
    | Sc_quote_end ->
        if Bytes.get s off = '"' then begin
          Buffer.add_char st.sc_buf '"';
          i := off + 1;
          fstart := off + 1;
          st.sc_mode <- Sc_quoted
        end
        else st.sc_mode <- Sc_plain
    | Sc_plain | Sc_quoted -> ());
    while !i < limit do
      match st.sc_mode with
      | Sc_plain -> (
          match Bytes.get s !i with
          | ',' ->
              push_field !i;
              fstart := !i + 1;
              incr i
          | '\n' ->
              push_field !i;
              emit_row st;
              st.sc_line <- st.sc_line + 1;
              st.sc_line_start <- base + !i + 1;
              st.sc_row_line <- st.sc_line;
              fstart := !i + 1;
              incr i
          | '\r' ->
              push_field !i;
              emit_row st;
              st.sc_line <- st.sc_line + 1;
              st.sc_row_line <- st.sc_line;
              if !i + 1 < limit then begin
                if Bytes.get s (!i + 1) = '\n' then i := !i + 2 else incr i;
                st.sc_line_start <- base + !i;
                fstart := !i
              end
              else begin
                st.sc_mode <- Sc_cr_end;
                incr i;
                fstart := !i
              end
          | '"' when Buffer.length st.sc_buf = 0 && !i = !fstart ->
              (* a quote opens a quoted field only on empty content;
                 mid-field quotes are literal (the [_] branch below) *)
              st.sc_qline <- st.sc_line;
              st.sc_qcol <- base + !i - st.sc_line_start + 1;
              st.sc_mode <- Sc_quoted;
              fstart := !i + 1;
              incr i
          | _ -> incr i)
      | Sc_quoted -> (
          match Bytes.get s !i with
          | '"' ->
              flush_run !i;
              if !i + 1 < limit then begin
                if Bytes.get s (!i + 1) = '"' then begin
                  Buffer.add_char st.sc_buf '"';
                  i := !i + 2
                end
                else begin
                  st.sc_mode <- Sc_plain;
                  incr i
                end;
                fstart := !i
              end
              else begin
                st.sc_mode <- Sc_quote_end;
                incr i;
                fstart := !i
              end
          | '\n' ->
              st.sc_line <- st.sc_line + 1;
              st.sc_line_start <- base + !i + 1;
              incr i
          | _ -> incr i)
      | Sc_cr_end | Sc_quote_end ->
          (* only reachable at the very end of a chunk *)
          assert false
    done;
    (match st.sc_mode with
    | Sc_plain | Sc_quoted -> flush_run limit
    | Sc_cr_end | Sc_quote_end -> ());
    st.sc_abs <- st.sc_abs + len
  end

let scanner_finish st =
  (match st.sc_mode with
  | Sc_quoted ->
      st.sc_errors <-
        {
          se_row = st.sc_row_index;
          se_line = st.sc_qline;
          se_col = st.sc_qcol;
          se_message = unterminated_message st.sc_qline st.sc_qcol;
        }
        :: st.sc_errors;
      (* the torn row is dropped *)
      Buffer.clear st.sc_buf;
      st.sc_nf <- 0;
      st.sc_mode <- Sc_plain
  | Sc_quote_end ->
      (* the pending quote closed its field right at EOF *)
      st.sc_mode <- Sc_plain
  | Sc_cr_end -> st.sc_mode <- Sc_plain
  | Sc_plain -> ());
  if Buffer.length st.sc_buf > 0 || st.sc_nf > 0 then begin
    let f = Buffer.contents st.sc_buf in
    Buffer.clear st.sc_buf;
    push_field_string st f;
    emit_row st
  end;
  List.rev st.sc_errors

(* ingest supervision: the token is polled once per [supervised_rows]
   emitted rows (and once per reader chunk) — coarse enough to cost one
   atomic load amortized over thousands of rows, fine enough that a
   deadline stops a bulk load at a chunk boundary *)
let supervised_rows = 4096

let supervised_emit supervise emit index line fields =
  if index land (supervised_rows - 1) = 0 then Supervise.check supervise;
  emit index line fields

let fold ?(supervise = Supervise.unlimited) ~f ~init text =
  let acc = ref init in
  let st =
    scanner_make
      (supervised_emit supervise (fun index line fields ->
           acc := f !acc { index; line; fields }))
  in
  scanner_feed st (Bytes.unsafe_of_string text) 0 (String.length text);
  (!acc, scanner_finish st)

let fold_reader ?(supervise = Supervise.unlimited) ~f ~init read =
  let acc = ref init in
  let st =
    scanner_make
      (supervised_emit supervise (fun index line fields ->
           acc := f !acc { index; line; fields }))
  in
  let rec loop () =
    Supervise.check supervise;
    match read () with
    | None -> ()
    | Some chunk ->
        scanner_feed st (Bytes.unsafe_of_string chunk) 0 (String.length chunk);
        loop ()
  in
  loop ();
  (!acc, scanner_finish st)

let parse text =
  let rows, errors =
    fold ~f:(fun acc r -> Array.to_list r.fields :: acc) ~init:[] text
  in
  match errors with [] -> List.rev rows | e :: _ -> raise_syntax e

let parse_lenient text =
  let rows, errors =
    fold ~f:(fun acc r -> Array.to_list r.fields :: acc) ~init:[] text
  in
  (List.rev rows, errors)

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let needs_quote s =
  String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s

let render_field s =
  if needs_quote s then begin
    let buf = Buffer.create (String.length s + 2) in
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        if c = '"' then Buffer.add_string buf "\"\"" else Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"';
    Buffer.contents buf
  end
  else s

let render rows =
  let buf = Buffer.create 1024 in
  List.iter
    (fun row ->
      Buffer.add_string buf (String.concat "," (List.map render_field row));
      Buffer.add_char buf '\n')
    rows;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* streaming loader                                                    *)
(* ------------------------------------------------------------------ *)

let data_row_index ~header idx = if header then idx - 1 else idx

exception Stop_sink

(* One consumer of scanned rows: resolves the header, types each cell
   through its declared domain, and appends dictionary codes straight
   into a [Column_store.Builder] — no [string list list], no eager
   tuples. The Builder's per-column dictionary is the only table a
   cell goes through: an [Int] cell is looked up by the int its digits
   spell and a [String] cell by its bytes, so a repeated cell of the
   two bulk domains costs one probe and no box. Any other domain
   ([Float], [Date], [Bool], undeclared) is parsed and interned by
   value, since many spellings may denote one value.

   A row is interned transactionally: every cell is looked up or
   parsed first, misses and parses are staged, and codes are interned
   only if the whole row survives, so quarantined rows never pollute
   the dictionaries. All NaN spellings intern to one code
   ([compare nan nan = 0]), exactly as a post-hoc encode would. *)
type sink = {
  k_rel : Relation.t;
  k_name : string;
  k_header : bool;
  k_strict : bool;
  k_builder : Column_store.Builder.t;
  k_attrs : string array;
  k_domains : Domain.t array;
  k_codes : int array;  (* scratch: the row's codes, -1 = staged miss *)
  k_ints : int array;  (* scratch: staged [Int] misses *)
  k_vals : Value.t array;  (* scratch: staged parses of other domains *)
  mutable k_map : int array;  (* attr position -> field index, -1 absent *)
  mutable k_width : int;
  mutable k_have_map : bool;
  mutable k_hdr_entries : Quarantine.entry list;  (* reversed *)
  mutable k_row_entries : Quarantine.entry list;  (* reversed *)
  mutable k_rows : int;  (* data rows seen *)
  mutable k_kept : int;
  mutable k_error : Error.t option;  (* strict: first problem *)
  mutable k_stopped : bool;
}

let sink_make ~strict ~header ?map_width rel =
  let arity = Relation.arity rel in
  let attrs = Array.of_list rel.Relation.attrs in
  let map, width, have_map =
    match map_width with
    | Some (map, width) -> (map, width, true)
    | None ->
        if header then (Array.make arity (-1), 0, false)
        else (Array.init arity (fun p -> p), arity, true)
  in
  {
    k_rel = rel;
    k_name = rel.Relation.name;
    k_header = header;
    k_strict = strict;
    k_builder = Column_store.Builder.create rel;
    k_attrs = attrs;
    k_domains = Array.map (Relation.domain_of rel) attrs;
    k_codes = Array.make arity 0;
    k_ints = Array.make arity 0;
    k_vals = Array.make arity Value.Null;
    k_map = map;
    k_width = width;
    k_have_map = have_map;
    k_hdr_entries = [];
    k_row_entries = [];
    k_rows = 0;
    k_kept = 0;
    k_error = None;
    k_stopped = false;
  }

let strict_fail k e =
  k.k_error <- Some e;
  raise Stop_sink

let resolve_header k (hdr : string array) =
  let rel = k.k_rel and name = k.k_name in
  let keep = Array.map (Relation.has_attr rel) hdr in
  if k.k_strict then begin
    Array.iteri
      (fun j h ->
        if not keep.(j) then
          strict_fail k
            (Error.make ~relation:name ~attribute:h
               ~severity:Error.Recoverable Error.Unknown_column
               (Printf.sprintf "Csv.load(%s): unknown column %S" name h)))
      hdr;
    Array.iter
      (fun a ->
        if not (Array.exists (String.equal a) hdr) then
          strict_fail k
            (Error.make ~relation:name ~attribute:a
               ~severity:Error.Recoverable Error.Missing_column
               (Printf.sprintf "Csv.load(%s): missing column %S" name a)))
      k.k_attrs
  end
  else
    Array.iteri
      (fun j h ->
        if not keep.(j) then
          k.k_hdr_entries <-
            {
              Quarantine.row = None;
              error =
                Error.make ~relation:name ~attribute:h
                  ~severity:Error.Recoverable Error.Unknown_column
                  (Printf.sprintf "ignoring undeclared column %S" h);
            }
            :: k.k_hdr_entries)
      hdr;
  let find_pos a =
    let rec go j =
      if j >= Array.length hdr then -1
      else if keep.(j) && String.equal hdr.(j) a then j
      else go (j + 1)
    in
    go 0
  in
  k.k_map <- Array.map find_pos k.k_attrs;
  k.k_width <- Array.length hdr;
  k.k_have_map <- true;
  if not k.k_strict then
    Array.iteri
      (fun p a ->
        if k.k_map.(p) < 0 then
          k.k_hdr_entries <-
            {
              Quarantine.row = None;
              error =
                Error.make ~relation:name ~attribute:a
                  ~severity:Error.Recoverable Error.Missing_column
                  (Printf.sprintf "column %S absent from input; filled with NULL"
                     a);
            }
            :: k.k_hdr_entries)
      k.k_attrs

(* The [Int] fast path: plain [-]digits (at most 18 of them) parse
   without a box or an option. [min_int], which no such spelling
   denotes, sends every other cell to [int_of_string_opt], so
   acceptance is exactly [Domain.parse_opt]'s. *)
let plain_int raw =
  let n = String.length raw in
  let neg = n > 0 && String.unsafe_get raw 0 = '-' in
  let start = if neg then 1 else 0 in
  if n - start < 1 || n - start > 18 then min_int
  else begin
    let v = ref 0 and ok = ref true and i = ref start in
    while !ok && !i < n do
      let c = Char.code (String.unsafe_get raw !i) - Char.code '0' in
      if c < 0 || c > 9 then ok := false
      else begin
        v := (!v * 10) + c;
        incr i
      end
    done;
    if not !ok then min_int else if neg then - !v else !v
  end

(* The [Float] fast path: a plain [-]digits[.digits] spelling of at
   most 15 digits is [w /. 10^k] with [w < 2^53] and [k <= 15], both
   exact doubles, so the one correctly rounded division yields the bits
   [float_of_string] does (Clinger's fast path) without its copy and
   [strtod]. Every other spelling goes to [Domain.parse_opt]. *)
let pow10 = Array.init 16 (fun k -> float_of_string ("1e" ^ string_of_int k))

let parse_float raw =
  let n = String.length raw in
  let neg = n > 0 && String.unsafe_get raw 0 = '-' in
  let w = ref 0 and digits = ref 0 and frac = ref (-1) in
  let i = ref (if neg then 1 else 0) in
  while !i < n && !digits <= 15 do
    (match String.unsafe_get raw !i with
    | '0' .. '9' as c ->
        w := (!w * 10) + Char.code c - Char.code '0';
        incr digits;
        if !frac >= 0 then incr frac
    | '.' when !frac < 0 && !digits > 0 -> frac := 0
    | _ -> digits := 16);
    incr i
  done;
  if !digits = 0 || !digits > 15 || !frac = 0 then
    Domain.parse_opt Domain.Float raw
  else
    let x = float_of_int !w /. pow10.(max !frac 0) in
    Some (Value.Float (if neg then -.x else x))

(* the code of an [Int] cell if interned, else -1 with the int staged *)
let stage_int k p n =
  let c = Column_store.Builder.find_int k.k_builder p n in
  if c < 0 then k.k_ints.(p) <- n;
  c

let sink_row k idx line (fields : string array) =
  if k.k_header && not k.k_have_map then resolve_header k fields
  else begin
    k.k_rows <- k.k_rows + 1;
    let ridx = data_row_index ~header:k.k_header idx in
    let nfields = Array.length fields in
    if nfields <> k.k_width then begin
      if k.k_strict then
        strict_fail k
          (Error.make ~relation:k.k_name ~severity:Error.Recoverable
             Error.Csv_arity
             (Printf.sprintf
                "Csv.load(%s): row %d (line %d): width %d, expected %d" k.k_name
                ridx line nfields k.k_width))
      else
        k.k_row_entries <-
          {
            Quarantine.row = Some ridx;
            error =
              Error.make ~relation:k.k_name ~severity:Error.Recoverable
                Error.Csv_arity
                (Printf.sprintf "row %d (line %d): width %d, expected %d" ridx
                   line nfields k.k_width);
          }
          :: k.k_row_entries
    end
    else begin
      let b = k.k_builder in
      let arity = Array.length k.k_attrs in
      let bad = ref (-1) in
      for p = 0 to arity - 1 do
        if !bad < 0 then begin
          let j = k.k_map.(p) in
          let raw = if j < 0 then "" else fields.(j) in
          k.k_codes.(p) <-
            (if raw = "" then 0
             else
               match k.k_domains.(p) with
               | Domain.Int -> (
                   let n = plain_int raw in
                   if n <> min_int then stage_int k p n
                   else
                     match int_of_string_opt raw with
                     | Some n -> stage_int k p n
                     | None ->
                         bad := p;
                         0)
               | Domain.String -> Column_store.Builder.find_string b p raw
               | d -> (
                   match
                     if d = Domain.Float then parse_float raw
                     else Domain.parse_opt d raw
                   with
                   | Some v ->
                       k.k_vals.(p) <- v;
                       -1
                   | None ->
                       bad := p;
                       0))
        end
      done;
      if !bad >= 0 then begin
        let p = !bad in
        let raw = fields.(k.k_map.(p)) in
        let err =
          Error.make ~relation:k.k_name ~attribute:k.k_attrs.(p)
            ~severity:Error.Recoverable Error.Type_mismatch
            (Printf.sprintf "row %d (line %d): %S is not a %s" ridx line raw
               (Domain.to_string k.k_domains.(p)))
        in
        if k.k_strict then strict_fail k err
        else
          k.k_row_entries <-
            { Quarantine.row = Some ridx; error = err } :: k.k_row_entries
      end
      else begin
        (* a staged [String] miss is still in [fields] *)
        for p = 0 to arity - 1 do
          if k.k_codes.(p) < 0 then
            k.k_codes.(p) <-
              (match k.k_domains.(p) with
              | Domain.Int ->
                  Column_store.Builder.intern b p (Value.Int k.k_ints.(p))
              | Domain.String ->
                  Column_store.Builder.intern b p
                    (Value.String fields.(k.k_map.(p)))
              | _ -> Column_store.Builder.intern b p k.k_vals.(p))
        done;
        Column_store.Builder.append b k.k_codes;
        k.k_kept <- k.k_kept + 1
      end
    end
  end

(* In strict mode the first problem stops ingestion but not scanning:
   the legacy loader scanned the whole document up front, so a torn
   quote at EOF outranks any earlier row error. The sink goes inert and
   the (cheap) scan drains to EOF to find out. *)
let sink_emit k idx line fields =
  if not k.k_stopped then
    try sink_row k idx line fields with Stop_sink -> k.k_stopped <- true

let syntax_entry ~header name (e : syntax_error) torn =
  let row =
    if header && e.se_row = 0 then None
    else begin
      incr torn;
      Some (data_row_index ~header e.se_row)
    end
  in
  {
    Quarantine.row;
    error =
      Error.make ~relation:name ~severity:Error.Recoverable Error.Csv_syntax
        ("Csv.parse: " ^ e.se_message);
  }

let finalize ~strict k (errors : syntax_error list) =
  if strict then begin
    (match errors with
    | e :: _ -> raise_syntax ~relation:k.k_name e
    | [] -> ());
    match k.k_error with
    | Some e -> raise (Error.Error e)
    | None ->
        ( Column_store.Builder.finish k.k_builder,
          {
            Quarantine.relation = k.k_name;
            total_rows = k.k_rows;
            kept = k.k_kept;
            entries = [];
          } )
  end
  else begin
    let torn = ref 0 in
    let syntax_entries =
      List.map (fun e -> syntax_entry ~header:k.k_header k.k_name e torn) errors
    in
    let entries =
      syntax_entries @ List.rev k.k_hdr_entries @ List.rev k.k_row_entries
    in
    ( Column_store.Builder.finish k.k_builder,
      {
        Quarantine.relation = k.k_name;
        total_rows = k.k_rows + !torn;
        kept = k.k_kept;
        entries;
      } )
  end

(* ------------------------------------------------------------------ *)
(* parallel chunking                                                   *)
(* ------------------------------------------------------------------ *)

(* Quote parity cannot split this grammar (a mid-field quote is
   literal), so chunk boundaries come from one allocation-free pass of
   the quote state machine: for each target offset, the first row start
   at or after it, together with the row index and line there — exactly
   the state a worker's scanner needs to resume. The same pass finds
   the end of the first row (where data starts when a header is
   present) and whether the document ends inside an open quote. *)
let light_scan text targets =
  let n = String.length text in
  let ntargets = Array.length targets in
  let boundaries = ref [] in
  let t_idx = ref 0 in
  let first_row_end = ref None in
  let line = ref 1 and line_start = ref 0 in
  let row = ref 0 in
  let empty = ref true in
  (* is the current field's content empty (quote-opening position)? *)
  let quoted = ref false in
  let content = ref false in
  let qline = ref 0 and qcol = ref 0 in
  let i = ref 0 in
  let row_end next =
    incr row;
    incr line;
    line_start := next;
    empty := true;
    if !first_row_end = None then first_row_end := Some (next, !row, !line);
    while !t_idx < ntargets && next >= targets.(!t_idx) do
      if
        match !boundaries with
        | (prev, _, _) :: _ -> prev <> next
        | [] -> true
      then boundaries := (next, !row, !line) :: !boundaries;
      incr t_idx
    done
  in
  while !i < n do
    let c = text.[!i] in
    if !quoted then
      match c with
      | '"' ->
          if !i + 1 < n && text.[!i + 1] = '"' then begin
            content := true;
            i := !i + 2
          end
          else begin
            quoted := false;
            empty := not !content;
            incr i
          end
      | '\n' ->
          content := true;
          incr line;
          line_start := !i + 1;
          incr i
      | _ ->
          content := true;
          incr i
    else
      match c with
      | ',' ->
          empty := true;
          incr i
      | '\n' ->
          row_end (!i + 1);
          incr i
      | '\r' ->
          if !i + 1 < n && text.[!i + 1] = '\n' then begin
            row_end (!i + 2);
            i := !i + 2
          end
          else begin
            row_end (!i + 1);
            incr i
          end
      | '"' when !empty ->
          quoted := true;
          content := false;
          qline := !line;
          qcol := !i - !line_start + 1;
          empty := false;
          incr i
      | _ ->
          empty := false;
          incr i
  done;
  let syntax =
    if !quoted then
      Some
        {
          se_row = !row;
          se_line = !qline;
          se_col = !qcol;
          se_message = unterminated_message !qline !qcol;
        }
    else None
  in
  (List.rev !boundaries, !first_row_end, syntax)

(* chunk: (start offset, end offset, first row index, first line) *)
let plan_chunks ~header text k =
  let n = String.length text in
  let targets = Array.init (k - 1) (fun j -> (j + 1) * (n / k)) in
  let boundaries, first_row_end, light_syntax = light_scan text targets in
  let start =
    if header then
      match first_row_end with None -> None | Some s -> Some s
    else Some (0, 0, 1)
  in
  match start with
  | None -> None
  | Some (doff, drow, dline) ->
      let bs =
        List.filter (fun (off, _, _) -> off > doff && off < n) boundaries
      in
      let starts = Array.of_list ((doff, drow, dline) :: bs) in
      let m = Array.length starts in
      let chunks =
        Array.init m (fun c ->
            let s, r, l = starts.(c) in
            let stop =
              if c + 1 < m then
                let s', _, _ = starts.(c + 1) in
                s'
              else n
            in
            (s, stop, r, l))
      in
      Some (chunks, light_syntax)

let run_parallel ~header ~strict ~pool rel text chunks light_syntax =
  let name = rel.Relation.name in
  let master = sink_make ~strict ~header rel in
  (if header then begin
     (* the header row is the slice before the first chunk; it ends at
        a row boundary, so this emits exactly one row and no errors *)
     let doff, _, _, _ = chunks.(0) in
     let st = scanner_make (sink_emit master) in
     scanner_feed st (Bytes.unsafe_of_string text) 0 doff;
     ignore (scanner_finish st)
   end);
  if master.k_stopped then begin
    (* strict header problem; a torn quote anywhere still outranks it *)
    match light_syntax with
    | Some e -> raise_syntax ~relation:name e
    | None -> (
        match master.k_error with
        | Some e -> raise (Error.Error e)
        | None -> assert false)
  end;
  let map = master.k_map and width = master.k_width in
  let outs =
    Domain_pool.map_array pool
      (fun (start_off, stop_off, srow, sline) ->
        let k = sink_make ~strict ~header ~map_width:(map, width) rel in
        let st =
          scanner_start ~row_index:srow ~line:sline ~abs:start_off
            (sink_emit k)
        in
        scanner_feed st (Bytes.unsafe_of_string text) start_off
          (stop_off - start_off);
        let errs = scanner_finish st in
        (k, errs))
      chunks
  in
  (* only the last chunk can end inside a quote, so this concat holds
     at most one error *)
  let syntax = Array.fold_left (fun acc (_, errs) -> acc @ errs) [] outs in
  if strict then begin
    (match syntax with e :: _ -> raise_syntax ~relation:name e | [] -> ());
    Array.iter
      (fun ((k : sink), _) ->
        match k.k_error with Some e -> raise (Error.Error e) | None -> ())
      outs
  end;
  (* chunk-order merge = sequential first-occurrence dictionaries *)
  Array.iter
    (fun ((k : sink), _) ->
      Column_store.Builder.merge master.k_builder k.k_builder;
      master.k_rows <- master.k_rows + k.k_rows;
      master.k_kept <- master.k_kept + k.k_kept;
      master.k_row_entries <- k.k_row_entries @ master.k_row_entries)
    outs;
  finalize ~strict master syntax

let default_min_parallel_bytes = 1 lsl 16

(* The sequential loader, whatever the input: [next] yields chunks as
   (bytes, length) until [None]. The scanner keeps no reference to a
   chunk once [scanner_feed] returns, so a producer may refill and
   hand over the same buffer again and again. *)
let run_sequential ~header ~strict ~supervise rel next =
  let k = sink_make ~strict ~header rel in
  let st = scanner_make (supervised_emit supervise (sink_emit k)) in
  let rec loop () =
    Supervise.check supervise;
    match next () with
    | Some (s, len) ->
        scanner_feed st s 0 len;
        loop ()
    | None -> ()
  in
  loop ();
  finalize ~strict k (scanner_finish st)

let run_load ~header ~strict ?pool ?(supervise = Supervise.unlimited)
    ?(min_parallel_bytes = default_min_parallel_bytes) rel text =
  Supervise.check supervise;
  let nchunks =
    match pool with
    | Some p
      when Domain_pool.size p > 1 && String.length text >= min_parallel_bytes ->
        Domain_pool.size p
    | _ -> 1
  in
  let plan = if nchunks > 1 then plan_chunks ~header text nchunks else None in
  match (plan, pool) with
  | Some (chunks, light_syntax), Some pool when Array.length chunks > 1 ->
      Supervise.check supervise;
      run_parallel ~header ~strict ~pool rel text chunks light_syntax
  | _ ->
      let fed = ref false in
      run_sequential ~header ~strict ~supervise rel (fun () ->
          if !fed then None
          else begin
            fed := true;
            Some (Bytes.unsafe_of_string text, String.length text)
          end)

(* run a loader, turning every failure it can raise into a typed error *)
let guarded mode rel run =
  match run () with
  | table, report -> (
      match mode with
      | `Strict -> Ok (table, None)
      | `Quarantine ->
          Ok (table, if Quarantine.is_empty report then None else Some report))
  | exception Error.Error e -> Stdlib.Error e
  | exception Supervise.Interrupt r ->
      Stdlib.Error (Supervise.error_of ~stage:Error.Load r)
  | exception Sys_error msg ->
      Stdlib.Error
        (Error.make ~stage:Error.Load ~relation:rel.Relation.name
           Error.Io_error msg)

let load ?(header = true) ?(mode = `Strict) ?pool ?supervise
    ?min_parallel_bytes rel csv =
  let strict = mode = `Strict in
  guarded mode rel (fun () ->
      run_load ~header ~strict ?pool ?supervise ?min_parallel_bytes rel csv)

let load_from_reader ?(header = true) ?(mode = `Strict)
    ?(supervise = Supervise.unlimited) rel read =
  let strict = mode = `Strict in
  guarded mode rel (fun () ->
      run_sequential ~header ~strict ~supervise rel (fun () ->
          Option.map
            (fun chunk -> (Bytes.unsafe_of_string chunk, String.length chunk))
            (read ())))

let load_file ?(header = true) ?(mode = `Strict) ?pool
    ?(supervise = Supervise.unlimited) ?min_parallel_bytes rel path =
  let strict = mode = `Strict in
  guarded mode rel (fun () ->
      match pool with
      | Some p when Domain_pool.size p > 1 ->
          (* the splitter needs the whole document in memory *)
          let text = In_channel.with_open_bin path In_channel.input_all in
          run_load ~header ~strict ~pool:p ~supervise ?min_parallel_bytes rel
            text
      | _ ->
          In_channel.with_open_bin path (fun ic ->
              let buf = Bytes.create (1 lsl 20) in
              (* fed in place: see [run_sequential] *)
              run_sequential ~header ~strict ~supervise rel (fun () ->
                  let r = input ic buf 0 (Bytes.length buf) in
                  if r > 0 then Some (buf, r) else None)))

let dump_table ?(header = true) table =
  let rel = Table.schema table in
  let hdr = if header then [ rel.Relation.attrs ] else [] in
  let body =
    List.map
      (fun row ->
        List.map
          (fun v -> match v with Value.Null -> "" | _ -> Value.to_string v)
          row)
      (Table.to_lists table)
  in
  render (hdr @ body)
