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

(* Incremental chunk-fed scanner. It hands each cell to [sc_cell] as a
   byte view [(buf, off, len)] that is valid only during the call: a
   cell lying within one chunk is a view into that chunk, and one with
   escapes or straddling a chunk boundary a view into [sc_scratch]
   (touched only then). [sc_row] follows the last cell of each row, and
   [sc_drop] discards the cells of a row torn at EOF. So the common
   path copies and allocates nothing. Offsets ([sc_line_start],
   [sc_abs]) count from the start of the document, not of the chunk,
   so a quote's column is exact wherever the chunks split.

   Two one-byte lookaheads can straddle a chunk boundary and are carried
   as modes: [Cr_end] (a row just ended on '\r'; a following '\n'
   belongs to it) and [Quote_end] (a '"' inside a quoted field; a
   following '"' is an escaped quote, anything else closed the field). *)
type sc_mode = Sc_plain | Sc_quoted | Sc_quote_end | Sc_cr_end

type scanner = {
  sc_cell : bytes -> int -> int -> unit;
  sc_row : int -> int -> unit;  (* row index, line *)
  sc_drop : unit -> unit;
  mutable sc_scratch : bytes;
  mutable sc_slen : int;
  mutable sc_cells : int;  (* cells emitted in the open row *)
  mutable sc_mode : sc_mode;
  mutable sc_line : int;
  mutable sc_line_start : int;  (* absolute offset where the line starts *)
  mutable sc_row_line : int;
  mutable sc_row_index : int;
  mutable sc_abs : int;  (* absolute offset of the next byte to be fed *)
  mutable sc_qline : int;  (* where the currently open quote opened *)
  mutable sc_qcol : int;
}

let scanner_start ~cell ~row ~drop () =
  {
    sc_cell = cell;
    sc_row = row;
    sc_drop = drop;
    sc_scratch = Bytes.create 64;
    sc_slen = 0;
    sc_cells = 0;
    sc_mode = Sc_plain;
    sc_line = 1;
    sc_line_start = 0;
    sc_row_line = 1;
    sc_row_index = 0;
    sc_abs = 0;
    sc_qline = 0;
    sc_qcol = 0;
  }

let scratch_add st s off len =
  let need = st.sc_slen + len in
  if need > Bytes.length st.sc_scratch then begin
    let d = Bytes.create (max need (2 * Bytes.length st.sc_scratch)) in
    Bytes.blit st.sc_scratch 0 d 0 st.sc_slen;
    st.sc_scratch <- d
  end;
  Bytes.blit s off st.sc_scratch st.sc_slen len;
  st.sc_slen <- need

let emit_row st =
  st.sc_row st.sc_row_index st.sc_row_line;
  st.sc_row_index <- st.sc_row_index + 1;
  st.sc_cells <- 0

(* the run [s.[fstart] .. s.[j-1]] into the scratch *)
let flush_run st s fstart j =
  if j > fstart then scratch_add st s fstart (j - fstart)

(* emit the cell ending at [j]: a view into [s], or into the scratch if
   part of the cell is already there *)
let push_cell st s fstart j =
  st.sc_cells <- st.sc_cells + 1;
  if st.sc_slen = 0 then st.sc_cell s fstart (j - fstart)
  else begin
    flush_run st s fstart j;
    st.sc_cell st.sc_scratch 0 st.sc_slen;
    st.sc_slen <- 0
  end

(* a row ended; the next line starts at absolute offset [next] *)
let end_row st next =
  emit_row st;
  st.sc_line <- st.sc_line + 1;
  st.sc_line_start <- next;
  st.sc_row_line <- st.sc_line

(* the bytes that end a plain run and a quoted run *)
let stop_table stops =
  String.init 256 (fun c ->
      if String.contains stops (Char.chr c) then '\001' else '\000')

let plain_stop = stop_table ",\n\r\""
let quoted_stop = stop_table "\"\n"

(* Feed the bytes [s.[off] .. s.[off+len-1]] to the scanner. It only
   reads [s] (string callers pass [Bytes.unsafe_of_string]) and keeps
   no view into it past the call, so a caller may refill and feed the
   same buffer again. Ordinary bytes are skipped a run at a time. *)
let scanner_feed st s off len =
  let limit = off + len in
  if off < 0 || len < 0 || limit > Bytes.length s then
    invalid_arg "Csv.scanner_feed";
  let base = st.sc_abs - off in
  let fstart = ref off in
  let i = ref off in
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
          (* an escaped quote: the second '"' starts the next run *)
          i := off + 1;
          st.sc_mode <- Sc_quoted
        end
        else st.sc_mode <- Sc_plain
    | Sc_plain | Sc_quoted -> ());
    while !i < limit do
      match st.sc_mode with
      | Sc_plain -> (
          while
            !i < limit
            && String.unsafe_get plain_stop (Char.code (Bytes.unsafe_get s !i))
               = '\000'
          do
            incr i
          done;
          if !i < limit then
            match Bytes.unsafe_get s !i with
            | ',' ->
                push_cell st s !fstart !i;
                incr i;
                fstart := !i
            | '\n' ->
                push_cell st s !fstart !i;
                incr i;
                end_row st (base + !i);
                fstart := !i
            | '\r' ->
                push_cell st s !fstart !i;
                incr i;
                if !i = limit then st.sc_mode <- Sc_cr_end
                else if Bytes.unsafe_get s !i = '\n' then incr i;
                (* at a chunk's end, the next chunk fixes the line start *)
                end_row st (base + !i);
                fstart := !i
            | _ (* '"' *) ->
                if st.sc_slen = 0 && !i = !fstart then begin
                  (* a quote opens a quoted field only on empty content;
                     mid-field quotes are literal *)
                  st.sc_qline <- st.sc_line;
                  st.sc_qcol <- base + !i - st.sc_line_start + 1;
                  st.sc_mode <- Sc_quoted;
                  fstart := !i + 1
                end;
                incr i)
      | Sc_quoted -> (
          while
            !i < limit
            && String.unsafe_get quoted_stop
                 (Char.code (Bytes.unsafe_get s !i))
               = '\000'
          do
            incr i
          done;
          if !i < limit then
            match Bytes.unsafe_get s !i with
            | '"' ->
                flush_run st s !fstart !i;
                if !i + 1 < limit then begin
                  if Bytes.unsafe_get s (!i + 1) = '"' then begin
                    fstart := !i + 1;
                    i := !i + 2
                  end
                  else begin
                    st.sc_mode <- Sc_plain;
                    incr i;
                    fstart := !i
                  end
                end
                else begin
                  st.sc_mode <- Sc_quote_end;
                  incr i;
                  fstart := !i
                end
            | _ (* '\n' *) ->
                st.sc_line <- st.sc_line + 1;
                st.sc_line_start <- base + !i + 1;
                incr i)
      | Sc_cr_end | Sc_quote_end ->
          (* only reachable at the very end of a chunk *)
          assert false
    done;
    (match st.sc_mode with
    | Sc_plain | Sc_quoted -> flush_run st s !fstart limit
    | Sc_cr_end | Sc_quote_end -> ());
    st.sc_abs <- st.sc_abs + len
  end

(* The one possible syntax error comes back in the list: a quote left
   open at EOF, whose torn row is dropped. A pending quote or '\r'
   closed its field or row right at EOF. *)
let scanner_finish st =
  let errors =
    if st.sc_mode <> Sc_quoted then []
    else begin
      st.sc_slen <- 0;
      st.sc_cells <- 0;
      st.sc_drop ();
      [
        {
          se_row = st.sc_row_index;
          se_line = st.sc_qline;
          se_col = st.sc_qcol;
          se_message = unterminated_message st.sc_qline st.sc_qcol;
        };
      ]
    end
  in
  if st.sc_slen > 0 || st.sc_cells > 0 then begin
    st.sc_cell st.sc_scratch 0 st.sc_slen;
    st.sc_slen <- 0;
    emit_row st
  end;
  errors

(* ingest supervision: the token is polled once per [supervised_rows]
   emitted rows (and once per reader chunk) — coarse enough to cost one
   atomic load amortized over thousands of rows, fine enough that a
   deadline stops a bulk load at a chunk boundary *)
let supervised_rows = 4096

let supervised supervise row index line =
  if index land (supervised_rows - 1) = 0 then Supervise.check supervise;
  row index line

(* Feed [next]'s chunks, (bytes, length) until [None], to [st], then
   finish it. The scanner keeps no view into a chunk once
   [scanner_feed] returns, so a producer may refill and hand over the
   same buffer again and again. *)
let scan_chunks ~supervise st next =
  let rec loop () =
    Supervise.check supervise;
    match next () with
    | None -> scanner_finish st
    | Some (s, len) ->
        scanner_feed st s 0 len;
        loop ()
  in
  loop ()

let of_strings read () =
  Option.map (fun c -> (Bytes.unsafe_of_string c, String.length c)) (read ())

(* a reader that yields [text], once *)
let once text = Seq.to_dispenser (Seq.return text)

(* the [row] consumer: each cell view is copied out, and a row's cells
   become its [fields] *)
let fold_reader ?(supervise = Supervise.unlimited) ~f ~init read =
  let acc = ref init and cells = ref [] in
  let row index line =
    let fields = Array.of_list (List.rev !cells) in
    cells := [];
    acc := f !acc { index; line; fields }
  in
  let st =
    scanner_start
      ~cell:(fun buf off len -> cells := Bytes.sub_string buf off len :: !cells)
      ~row:(supervised supervise row)
      ~drop:(fun () -> cells := [])
      ()
  in
  let errors = scan_chunks ~supervise st (of_strings read) in
  (!acc, errors)

let fold ?supervise ~f ~init text = fold_reader ?supervise ~f ~init (once text)

let parse_lenient text =
  let rows, errors =
    fold ~f:(fun acc r -> Array.to_list r.fields :: acc) ~init:[] text
  in
  (List.rev rows, errors)

let parse text =
  match parse_lenient text with
  | rows, [] -> rows
  | _, e :: _ -> raise_syntax e

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

(* The loader's consumer of scanned cells: resolves the header, types
   each cell through its declared domain, and hands it straight to a
   [Column_store.Builder] — no [string array] per row, no eager tuples.
   The Builder's per-column dictionary is the only table a cell goes
   through, with one probe: an [Int] cell by the int its digits spell
   and a [String] cell by its bytes, in place, so a repeated cell of the
   two bulk domains costs no string and no box. Any other domain
   ([Float], [Date], [Bool], undeclared) is copied out, parsed and
   interned by value, since many spellings may denote one value.

   A row is interned transactionally: a cell's miss is staged in the
   Builder, and [end_row] interns the staged values only if the whole
   row survives, so quarantined rows never pollute the dictionaries.
   All NaN spellings intern to one code ([compare nan nan = 0]),
   exactly as a post-hoc encode would. *)
type sink = {
  k_rel : Relation.t;
  k_name : string;
  k_header : bool;
  k_strict : bool;
  k_builder : Column_store.Builder.t;
  k_attrs : string array;
  k_domains : Domain.t array;
  mutable k_inv : int array;  (* field index -> attr position, -1 ignored *)
  mutable k_width : int;
  mutable k_have_map : bool;
  mutable k_hdr_cells : string list;  (* the header row so far, reversed *)
  mutable k_nf : int;  (* cells seen in the open row *)
  mutable k_bad : int;
      (* the open row's first ill-typed attribute in declaration order;
         the arity when none. Cells of later attributes are not typed. *)
  mutable k_bad_raw : string;
  mutable k_hdr_entries : Quarantine.entry list;  (* reversed *)
  mutable k_row_entries : Quarantine.entry list;  (* reversed *)
  mutable k_rows : int;  (* data rows seen *)
  mutable k_kept : int;
  mutable k_error : Error.t option;  (* strict: first problem *)
  mutable k_stopped : bool;
}

let sink_make ~strict ~header rel =
  let arity = Relation.arity rel in
  let attrs = Array.of_list rel.Relation.attrs in
  let inv, width = if header then ([||], 0) else (Array.init arity Fun.id, arity) in
  {
    k_rel = rel;
    k_name = rel.Relation.name;
    k_header = header;
    k_strict = strict;
    k_builder = Column_store.Builder.create rel;
    k_attrs = attrs;
    k_domains = Array.map (Relation.domain_of rel) attrs;
    k_inv = inv;
    k_width = width;
    k_have_map = not header;
    k_hdr_cells = [];
    k_nf = 0;
    k_bad = arity;
    k_bad_raw = "";
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
  let map = Array.map find_pos k.k_attrs in
  (* a column named twice binds its first occurrence only *)
  k.k_inv <- Array.make (Array.length hdr) (-1);
  Array.iteri (fun p j -> if j >= 0 then k.k_inv.(j) <- p) map;
  k.k_width <- Array.length hdr;
  k.k_have_map <- true;
  if not k.k_strict then
    Array.iteri
      (fun p a ->
        if map.(p) < 0 then
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

(* The [Int] fast path: plain [-]digits (at most 18 of them) in
   [buf.[off] .. buf.[off+len-1]] parse without a copy, a box or an
   option. [min_int], which no such spelling denotes, sends every other
   cell to [int_of_string_opt], so acceptance is exactly
   [Domain.parse_opt]'s. *)
let plain_int buf off len =
  let neg = len > 0 && Bytes.unsafe_get buf off = '-' in
  let start = if neg then off + 1 else off and stop = off + len in
  if stop - start < 1 || stop - start > 18 then min_int
  else begin
    let v = ref 0 and ok = ref true and i = ref start in
    while !ok && !i < stop do
      let c = Char.code (Bytes.unsafe_get buf !i) - Char.code '0' in
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
   [float_of_string] does (Clinger's fast path) without its [strtod].
   Every other spelling goes to [Domain.parse_opt]. *)
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

(* type the non-empty cell [buf.[off..off+len-1]] of attribute [p] into
   the open row (an empty cell is NULL, code 0: no probe) *)
let mark_bad k p raw =
  k.k_bad <- p;
  k.k_bad_raw <- raw

let type_cell k p buf off len =
  let b = k.k_builder in
  match k.k_domains.(p) with
  | Domain.Int -> (
      let n = plain_int buf off len in
      if n <> min_int then ignore (Column_store.Builder.cell_int b p n)
      else
        let raw = Bytes.sub_string buf off len in
        match int_of_string_opt raw with
        | Some n -> ignore (Column_store.Builder.cell_int b p n)
        | None -> mark_bad k p raw)
  | Domain.String -> ignore (Column_store.Builder.cell_bytes b p buf off len)
  | d -> (
      let raw = Bytes.sub_string buf off len in
      match
        if d = Domain.Float then parse_float raw else Domain.parse_opt d raw
      with
      | Some v -> ignore (Column_store.Builder.cell_value b p v)
      | None -> mark_bad k p raw)

let sink_cell k buf off len =
  if not k.k_stopped then begin
    let j = k.k_nf in
    k.k_nf <- j + 1;
    if not k.k_have_map then
      k.k_hdr_cells <- Bytes.sub_string buf off len :: k.k_hdr_cells
    else if j < k.k_width && len > 0 then begin
      let p = k.k_inv.(j) in
      if p >= 0 && p < k.k_bad then type_cell k p buf off len
    end
  end

(* a width mismatch outranks an ill-typed cell *)
let sink_row k idx line =
  if not k.k_have_map then
    resolve_header k (Array.of_list (List.rev k.k_hdr_cells))
  else begin
    k.k_rows <- k.k_rows + 1;
    let ridx = data_row_index ~header:k.k_header idx in
    let b = k.k_builder in
    if k.k_nf <> k.k_width then begin
      Column_store.Builder.drop_row b;
      if k.k_strict then
        strict_fail k
          (Error.make ~relation:k.k_name ~severity:Error.Recoverable
             Error.Csv_arity
             (Printf.sprintf
                "Csv.load(%s): row %d (line %d): width %d, expected %d" k.k_name
                ridx line k.k_nf k.k_width))
      else
        k.k_row_entries <-
          {
            Quarantine.row = Some ridx;
            error =
              Error.make ~relation:k.k_name ~severity:Error.Recoverable
                Error.Csv_arity
                (Printf.sprintf "row %d (line %d): width %d, expected %d" ridx
                   line k.k_nf k.k_width);
          }
          :: k.k_row_entries
    end
    else if k.k_bad < Array.length k.k_attrs then begin
      Column_store.Builder.drop_row b;
      let p = k.k_bad in
      let err =
        Error.make ~relation:k.k_name ~attribute:k.k_attrs.(p)
          ~severity:Error.Recoverable Error.Type_mismatch
          (Printf.sprintf "row %d (line %d): %S is not a %s" ridx line
             k.k_bad_raw
             (Domain.to_string k.k_domains.(p)))
      in
      if k.k_strict then strict_fail k err
      else
        k.k_row_entries <-
          { Quarantine.row = Some ridx; error = err } :: k.k_row_entries
    end
    else begin
      Column_store.Builder.end_row b;
      k.k_kept <- k.k_kept + 1
    end
  end

let reset_row k =
  k.k_nf <- 0;
  k.k_bad <- Array.length k.k_attrs;
  Column_store.Builder.begin_row k.k_builder

(* In strict mode the first problem stops ingestion but not scanning:
   the legacy loader scanned the whole document up front, so a torn
   quote at EOF outranks any earlier row error. The sink goes inert and
   the (cheap) scan drains to EOF to find out. *)
let sink_row_end k idx line =
  if not k.k_stopped then begin
    (try sink_row k idx line with Stop_sink -> k.k_stopped <- true);
    reset_row k
  end

(* a row torn at EOF: its cells so far leave no trace *)
let sink_drop k =
  k.k_hdr_cells <- [];
  Column_store.Builder.drop_row k.k_builder;
  reset_row k

let sink_scanner ~supervise k =
  scanner_start ~cell:(sink_cell k)
    ~row:(supervised supervise (sink_row_end k))
    ~drop:(fun () -> sink_drop k)
    ()

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
        ( Table.of_store k.k_rel (Column_store.Builder.finish k.k_builder),
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
    ( Table.of_store k.k_rel (Column_store.Builder.finish k.k_builder),
      {
        Quarantine.relation = k.k_name;
        total_rows = k.k_rows + !torn;
        kept = k.k_kept;
        entries;
      } )
  end

(* run a loader, turning every failure it can raise into a typed error *)
let guarded mode rel run =
  match run () with
  | table, report -> (
      match mode with
      | `Strict -> Ok (table, None)
      | `Quarantine ->
          Ok (table, if Quarantine.is_empty report then None else Some report))
  | exception Error.Error e -> Stdlib.Error (Error.at_stage Error.Load e)
  | exception Supervise.Interrupt r ->
      Stdlib.Error (Supervise.error_of ~stage:Error.Load r)
  | exception Sys_error msg ->
      Stdlib.Error
        (Error.make ~stage:Error.Load ~relation:rel.Relation.name
           Error.Io_error msg)

(* The one loader, whatever the input: [next] yields chunks as
   (bytes, length) until [None] (see [scan_chunks]). *)
let run ~header ~mode ~supervise rel next =
  let strict = mode = `Strict in
  let k = sink_make ~strict ~header rel in
  finalize ~strict k (scan_chunks ~supervise (sink_scanner ~supervise k) next)

let load_from_reader ?(header = true) ?(mode = `Strict)
    ?(supervise = Supervise.unlimited) rel read =
  guarded mode rel (fun () ->
      run ~header ~mode ~supervise rel (of_strings read))

let load ?header ?mode ?supervise rel csv =
  load_from_reader ?header ?mode ?supervise rel (once csv)

let load_file ?(header = true) ?(mode = `Strict)
    ?(supervise = Supervise.unlimited) rel path =
  guarded mode rel (fun () ->
      In_channel.with_open_bin path (fun ic ->
          let buf = Bytes.create (1 lsl 20) in
          (* fed in place: see [scan_chunks] *)
          run ~header ~mode ~supervise rel (fun () ->
              let r = input ic buf 0 (Bytes.length buf) in
              if r > 0 then Some (buf, r) else None)))

(* Straight from the codes: each distinct value of a column is rendered
   once, through its dictionary, and every row concatenates those
   texts — what [render] of the rows' fields would write. *)
let dump_table ?(header = true) table =
  let rel = Table.schema table in
  let store = Table.store table in
  let cols = Array.of_list (List.map (Column_store.column store) rel.Relation.attrs) in
  let texts =
    Array.map
      (fun c ->
        Array.mapi
          (fun code s -> if code = 0 then "" else render_field s)
          (Column_store.column_strings c))
      cols
  in
  let codes = Array.map Column_store.column_codes cols in
  let buf = Buffer.create 1024 in
  if header then Buffer.add_string buf (render [ rel.Relation.attrs ]);
  for i = 0 to Table.cardinality table - 1 do
    Array.iteri
      (fun p t ->
        if p > 0 then Buffer.add_char buf ',';
        Buffer.add_string buf t.(codes.(p).(i)))
      texts;
    Buffer.add_char buf '\n'
  done;
  Buffer.contents buf
