(* Streaming columnar ingest: the chunk-fed scanner and the one-pass
   loader are pinned against the seed row-at-a-time loader
   (Reference.Csv.load), kept with the tests as the equivalence
   oracle. Randomized docs are generated from a fixed-seed LCG so every
   run replays the same corpus. *)

open Relational
open Helpers

(* -- deterministic pseudo-random stream ------------------------------- *)

let lcg = ref 0

let rand m =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod m

let reset_lcg () = lcg := 987654321

let rel3 =
  Relation.make "r"
    ~domains:[ ("a", Domain.Int); ("b", Domain.String); ("c", Domain.Float) ]
    [ "a"; "b"; "c"; "d" ]

let cellpool =
  [|
    "1"; "2"; "33"; "-7"; "x"; "hello"; ""; "3.5"; "true"; "2021-01-01";
    "a,b"; "q\"q"; "nl\nnl"; "bad"; "9999999999999999999";
  |]

let gen_cell () = cellpool.(rand (Array.length cellpool))

let gen_csv ~header () =
  let b = Buffer.create 256 in
  let cols =
    match rand 5 with
    | 0 -> [ "a"; "b"; "c"; "d" ]
    | 1 -> [ "d"; "c"; "b"; "a" ]
    | 2 -> [ "a"; "b"; "c" ] (* missing d *)
    | 3 -> [ "a"; "b"; "c"; "d"; "e" ] (* undeclared e *)
    | _ -> [ "b"; "a"; "d"; "c" ]
  in
  if header then begin
    Buffer.add_string b (String.concat "," cols);
    Buffer.add_string b (if rand 2 = 0 then "\n" else "\r\n")
  end;
  let nrows = rand 8 in
  for _ = 1 to nrows do
    let w =
      if rand 10 = 0 then List.length cols + 1 else List.length cols
    in
    let cells = List.init w (fun _ -> gen_cell ()) in
    let line = Csv.render [ cells ] in
    (* render appends '\n'; strip it so we can vary the ending *)
    Buffer.add_string b (String.sub line 0 (String.length line - 1));
    Buffer.add_string b (match rand 3 with 0 -> "\r\n" | _ -> "\n")
  done;
  if rand 8 = 0 then Buffer.add_string b "\"torn";
  Buffer.contents b

(* canonical rendering of a loader result: table contents plus the
   quarantine report, or the typed error *)
let show = function
  | Ok (t, rep) ->
      Printf.sprintf "OK rows=%s report=%s"
        (String.concat ";"
           (List.map
              (fun row ->
                String.concat "," (List.map Value.to_string row))
              (Table.to_lists t)))
        (match rep with
        | None -> "none"
        | Some rep -> Quarantine.to_string rep)
  | Error e -> "ERR " ^ Error.to_string e

(* -- scanner: chunk boundaries are invisible -------------------------- *)

let scan_whole text =
  Csv.fold ~f:(fun acc r -> r :: acc) ~init:[] text

(* a reader handing [text] over in chunks of [size] bytes *)
let chunk_reader size text =
  let pos = ref 0 in
  fun () ->
    if !pos >= String.length text then None
    else begin
      let n = min size (String.length text - !pos) in
      let chunk = String.sub text !pos n in
      pos := !pos + n;
      Some chunk
    end

let scan_chunked size text =
  Csv.fold_reader ~f:(fun acc r -> r :: acc) ~init:[] (chunk_reader size text)

let show_scan (rows, errs) =
  String.concat ";"
    (List.rev_map
       (fun r ->
         Printf.sprintf "%d@%d:%s" r.Csv.index r.Csv.line
           (String.concat "," (Array.to_list r.Csv.fields)))
       rows)
  ^ "/"
  ^ String.concat ";"
      (List.map
         (fun e ->
           Printf.sprintf "%d@%d:%d:%s" e.Csv.se_row e.Csv.se_line
             e.Csv.se_col e.Csv.se_message)
         errs)

let test_scanner_chunking () =
  reset_lcg ();
  for _ = 1 to 300 do
    let text = gen_csv ~header:(rand 2 = 0) () in
    let whole = show_scan (scan_whole text) in
    List.iter
      (fun size ->
        Alcotest.(check string)
          (Printf.sprintf "chunk=%d of %S" size text)
          whole
          (show_scan (scan_chunked size text)))
      [ 1; 2; 3; 7; 64 ]
  done

(* -- loader: streaming = reference, from text and from a file -------- *)

let test_loader_equivalence () =
  reset_lcg ();
  for _ = 1 to 1500 do
    let header = rand 2 = 0 in
    let text = gen_csv ~header () in
    List.iter
      (fun mode ->
        let reference = show (Reference.Csv.load ~header ~mode rel3 text) in
        Alcotest.(check string)
          (Printf.sprintf "sequential %S" text)
          reference
          (show (Csv.load ~header ~mode rel3 text)))
      [ `Strict; `Quarantine ]
  done

(* the file loader streams through its own fixed-size buffer, refilled
   in place; every generated document goes through a temp file *)
let test_load_file_equivalence () =
  reset_lcg ();
  let path = Filename.temp_file "dbre_ingest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      for _ = 1 to 400 do
        let header = rand 2 = 0 in
        let text = gen_csv ~header () in
        Out_channel.with_open_bin path (fun oc ->
            Out_channel.output_string oc text);
        List.iter
          (fun mode ->
            let reference =
              show (Reference.Csv.load ~header ~mode rel3 text)
            in
            Alcotest.(check string)
              (Printf.sprintf "load_file %S" text)
              reference
              (show (Csv.load_file ~header ~mode rel3 path)))
          [ `Strict; `Quarantine ]
      done)

(* -- dictionaries: codes and first-occurrence order ------------------- *)

let check_store_eq msg t1 t2 =
  let s1 = Table.store t1 and s2 = Table.store t2 in
  List.iter
    (fun a ->
      let c1 = Column_store.column s1 a and c2 = Column_store.column s2 a in
      (* [compare], the interning identity: a NaN entry equals itself *)
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s" msg a)
        true
        (compare (Column_store.column_dict c1) (Column_store.column_dict c2)
        = 0);
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s" msg a)
        true
        (Column_store.column_codes c1 = Column_store.column_codes c2))
    (Table.schema t1).Relation.attrs

let test_dictionary_equivalence () =
  reset_lcg ();
  for _ = 1 to 200 do
    let text = gen_csv ~header:true () in
    match
      ( Csv.load ~mode:`Quarantine rel3 text,
        Reference.Csv.load ~mode:`Quarantine rel3 text )
    with
    | Ok (t1, _), Ok (t2, _) -> check_store_eq "random doc" t1 t2
    | _ -> Alcotest.fail "quarantine load failed"
  done

(* -- loader: chunk boundaries are invisible ----------------------------- *)

(* A cell that straddles a chunk reaches the Builder as a view into the
   scanner's scratch rather than into the chunk, so the loader itself,
   not just the scanner, is fuzzed at every chunk size. *)
let test_loader_chunking () =
  reset_lcg ();
  for _ = 1 to 300 do
    let header = rand 2 = 0 in
    let text = gen_csv ~header () in
    List.iter
      (fun mode ->
        let reference = Reference.Csv.load ~header ~mode rel3 text in
        List.iter
          (fun size ->
            let got =
              Csv.load_from_reader ~header ~mode rel3 (chunk_reader size text)
            in
            let what = Printf.sprintf "chunk=%d of %S" size text in
            Alcotest.(check string) what (show reference) (show got);
            match (got, reference) with
            | Ok (t1, _), Ok (t2, _) -> check_store_eq what t1 t2
            | _ -> ())
          [ 1; 2; 3; 7; 64 ])
      [ `Strict; `Quarantine ]
  done

(* [Csv.load] and the reference agree on [text] in both modes: the same
   error, or the same report and dictionaries *)
let check_vs_reference what rel text =
  List.iter
    (fun mode ->
      let tag =
        Printf.sprintf "%s, %s" what
          (match mode with `Strict -> "strict" | `Quarantine -> "quarantine")
      in
      match
        ( Csv.load ~mode rel text,
          Reference.Csv.load ~mode rel text )
      with
      | Ok (t1, r1), Ok (t2, r2) ->
          Alcotest.(check string)
            (tag ^ " report")
            (Option.fold ~none:"none" ~some:Quarantine.to_string r2)
            (Option.fold ~none:"none" ~some:Quarantine.to_string r1);
          check_store_eq tag t1 t2
      | Error e1, Error e2 ->
          Alcotest.(check string)
            (tag ^ " error") (Error.to_string e2) (Error.to_string e1)
      | _ -> Alcotest.failf "%s: outcomes differ" tag)
    [ `Strict; `Quarantine ]

let dict_of t a =
  Column_store.column_dict (Column_store.column (Table.store t) a)

let quarantined rel text =
  match Csv.load ~mode:`Quarantine rel text with
  | Ok (t, _) -> t
  | Error e -> Alcotest.failf "quarantine load failed: %s" (Error.to_string e)

(* -- one probe per cell: a rejected row leaves no trace ----------------- *)

(* Each rejected row below stages values new to its columns before the
   row dies; none of them may reach a dictionary, and a later row that
   brings them back must intern them as fresh first occurrences. A row
   of empty cells follows each rejected one, so a staged miss that
   outlived its row would be committed there. *)
let abc_rel =
  Relation.make "abc"
    ~domains:[ ("a", Domain.Int); ("b", Domain.String); ("c", Domain.Int) ]
    [ "a"; "b"; "c" ]

let test_rejected_rows () =
  let doc rows = String.concat "\n" rows ^ "\n" in
  let check what text ~absent =
    check_vs_reference what abc_rel text;
    let t = quarantined abc_rel text in
    List.iter
      (fun (a, v) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %s never interned in %s" what
             (Value.to_string v) a)
          false
          (Array.mem v (dict_of t a)))
      absent
  in
  (* file order c,b,a: the ill-typed c comes first in the file but last
     in declaration order, so b and a are still typed and staged; with a
     ill-typed too, the error names a *)
  check "late attribute, early in the file"
    (doc
       [
         "c,b,a"; "1,x,1"; "zz,new1,77"; ",,"; "zz,new2,yy"; "2,,2";
         "3,new1,78";
       ])
    ~absent:[ ("b", vs "new2"); ("a", vi 77) ];
  check "wrong width"
    (doc [ "a,b,c"; "1,x,1"; "77,new1,77,extra"; ",,"; "78,new2"; "2,,2" ])
    ~absent:[ ("a", vi 77); ("b", vs "new1"); ("c", vi 77); ("a", vi 78) ];
  check "torn quote at EOF"
    ("a,b,c\n1,x,1\n77,new1,\"torn")
    ~absent:[ ("a", vi 77); ("b", vs "new1") ];
  (* the second [a] is bound to no attribute: never typed, never interned *)
  check "column named twice"
    (doc [ "a,b,a,c"; "1,x,zz,1"; "2,y,42,2" ])
    ~absent:[ ("a", vi 42) ]

(* 100k distinct strings that differ only in their trailing digits,
   each seen twice, across several growths of the byte-keyed table *)
let test_trailing_digits () =
  let n = 100_000 in
  let rel = Relation.make "keys" ~domains:[ ("s", Domain.String) ] [ "s" ] in
  let b = Buffer.create (n * 40) in
  Buffer.add_string b "s\n";
  for pass = 0 to 1 do
    for i = 0 to n - 1 do
      let k = if pass = 0 then i else (i * 7919) mod n in
      Printf.bprintf b "customer-account-reference-%06d\n" k
    done
  done;
  let text = Buffer.contents b in
  match (Csv.load rel text, Reference.Csv.load rel text) with
  | Ok (t1, _), Ok (t2, _) ->
      check_store_eq "trailing digits" t1 t2;
      Alcotest.(check int)
        "one code per distinct key" (n + 1)
        (Array.length (dict_of t1 "s"))
  | _ -> Alcotest.fail "trailing-digits load failed"

(* -- Int acceptance off the fast path ----------------------------------- *)

(* Only plain [-]digits take the fast path; every other spelling must be
   accepted or rejected exactly as [Domain.parse_opt] does, and every
   spelling of one int must share its code. *)
let int_spellings =
  [
    "+5"; "5"; "0x1F"; "31"; "0b101"; "1_000"; "1000"; "-0"; "0"; "007"; "7";
    "-"; "+"; "9999999999999999999"; "4611686018427387904";
    "-4611686018427387904"; "4611686018427387903"; "0o17"; "15"; "--1";
    "1-"; "0x"; " 7"; "7.0";
  ]

let test_int_spellings () =
  let rel =
    Relation.make "ints"
      ~domains:[ ("i", Domain.Int); ("tag", Domain.String) ]
      [ "i"; "tag" ]
  in
  let parsed s = Domain.parse_opt Domain.Int s in
  let row k s = Printf.sprintf "%s,r%d\n" s k in
  List.iteri
    (fun k s ->
      let text = "i,tag\n" ^ row k s in
      check_vs_reference (Printf.sprintf "spelling %S" s) rel text;
      Alcotest.(check bool)
        (Printf.sprintf "%S accepted as parse_opt does" s)
        (parsed s <> None)
        (Result.is_ok (Csv.load rel text)))
    int_spellings;
  let text = String.concat "" ("i,tag\n" :: List.mapi row int_spellings) in
  check_vs_reference "all spellings" rel text;
  let kept = List.filter (fun s -> parsed s <> None) int_spellings in
  let codes =
    Column_store.column_codes
      (Column_store.column (Table.store (quarantined rel text)) "i")
  in
  List.iteri
    (fun r1 s1 ->
      List.iteri
        (fun r2 s2 ->
          Alcotest.(check bool)
            (Printf.sprintf "%S and %S share a code iff they spell one int" s1
               s2)
            (parsed s1 = parsed s2)
            (codes.(r1) = codes.(r2)))
        kept)
    kept

(* -- key-like columns: 40k distinct cells in one column --------------- *)

let bypass_rel =
  Relation.make "wide"
    ~domains:[ ("id", Domain.Int); ("tag", Domain.String) ]
    [ "id"; "tag" ]

let bypass_csv ~dirty rows =
  let b = Buffer.create (rows * 12) in
  Buffer.add_string b "id,tag\r\n";
  for i = 0 to rows - 1 do
    (* all-distinct ids, past the point (32768) where an earlier
       loader changed strategy; the dirty variant plants type errors on
       both sides of it *)
    if dirty && i mod 977 = 0 then Buffer.add_string b "oops"
    else Buffer.add_string b (string_of_int i);
    Buffer.add_string b (if i mod 3 = 0 then ",x\r\n" else ",y\r\n")
  done;
  Buffer.contents b

let test_high_cardinality () =
  let rows = 40_000 in
  let dirty = bypass_csv ~dirty:true rows in
  List.iter
    (fun mode ->
      Alcotest.(check string)
        "dirty"
        (show (Reference.Csv.load ~mode bypass_rel dirty))
        (show (Csv.load ~mode bypass_rel dirty)))
    [ `Strict; `Quarantine ];
  let clean = bypass_csv ~dirty:false rows in
  match (Csv.load bypass_rel clean, Reference.Csv.load bypass_rel clean) with
  | Ok (t1, _), Ok (t2, _) -> check_store_eq "high-cardinality doc" t1 t2
  | _ -> Alcotest.fail "clean bypass load failed"

(* -- many spellings of one value share its code ----------------------- *)

(* Int cells are looked up by the int their digits spell and other
   domains are parsed before interning, so every spelling that parses
   to an already-interned value must land on that value's code, and a
   row rejected after new values in earlier columns must leave no
   entry behind. *)
let spell_rel =
  Relation.make "spell"
    ~domains:
      [
        ("i", Domain.Int); ("f", Domain.Float); ("b", Domain.Bool);
        ("d", Domain.Date);
      ]
    [ "i"; "f"; "b"; "d"; "u" ]

let spell_rows =
  [
    "16,1.0,t,2021-01-01,16";
    "016,1.00,TRUE,2021-01-01,016";
    "+16,1e0,1,,true";
    "0x10,nan,true,2021-01-02,TRUE";
    "1_6,NaN,T,2021-01-01,x";
    "-0,NAN,f,2021-01-02,1.0";
    "0,+nan,0,,1e0";
    "-4611686018427387904,2.5,FALSE,2021-01-03,-0";
  ]

(* new values in i, f and b, then a cell that does not parse *)
let spell_poison =
  [ "77,9.25,yes,2021-01-04,new"; "78,9.5,t,2021-13-01,newer" ]

let spell_csv rows = String.concat "\r\n" ("i,f,b,d,u" :: rows) ^ "\r\n"

let code_of t a row =
  (Column_store.column_codes
     (Column_store.column (Table.store t) a)).(row)

let test_spellings () =
  let clean = spell_csv (spell_rows @ [ "0x10,1.0,1,2021-01-01,16" ]) in
  let dirty =
    spell_csv
      (List.filteri (fun i _ -> i < 4) spell_rows
      @ spell_poison
      @ List.filteri (fun i _ -> i >= 4) spell_rows
      @ [ "77,9.25,t,2021-01-04,new" ])
  in
  let load mode text = Csv.load ~mode spell_rel text in
  List.iter
    (fun (what, text) -> check_vs_reference what spell_rel text)
    [ ("clean", clean); ("dirty", dirty) ];
  (match load `Strict clean with
  | Ok (t, _) ->
      for row = 1 to 4 do
        Alcotest.(check int)
          (Printf.sprintf "int spelling %d" row)
          (code_of t "i" 0) (code_of t "i" row)
      done;
      Alcotest.(check int) "-0 is 0" (code_of t "i" 5)
        (code_of t "i" 6);
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "float spelling %d" row)
            (code_of t "f" 0) (code_of t "f" row))
        [ 1; 2; 8 ];
      for row = 4 to 6 do
        Alcotest.(check int)
          (Printf.sprintf "NaN spelling %d" row)
          (code_of t "f" 3) (code_of t "f" row)
      done;
      List.iter
        (fun row ->
          Alcotest.(check int)
            (Printf.sprintf "bool spelling %d" row)
            (code_of t "b" 0) (code_of t "b" row))
        [ 1; 2; 3; 4; 8 ];
      Alcotest.(check int) "unknown 16 = 016" (code_of t "u" 0)
        (code_of t "u" 1)
  | Error e -> Alcotest.failf "clean spellings: %s" (Error.to_string e));
  match load `Quarantine dirty with
  | Ok (t, _) ->
      let dict = dict_of t in
      (* the last row re-introduces 77 and 9.25 after the poisoned
         rows: they must take the next codes, not stale ones *)
      Alcotest.(check bool)
        "77 interned once, last" true
        (let d = dict "i" in
         d.(Array.length d - 1) = vi 77
         && Array.fold_left (fun n v -> if v = vi 77 then n + 1 else n) 0 d
            = 1);
      Alcotest.(check bool)
        "78 never interned" false
        (Array.mem (vi 78) (dict "i"));
      Alcotest.(check bool)
        "9.5 never interned" false
        (Array.mem (Value.Float 9.5) (dict "f"));
      Alcotest.(check bool)
        "newer never interned" false
        (Array.mem (vs "newer") (dict "u"))
  | Error e -> Alcotest.failf "dirty spellings: %s" (Error.to_string e)

(* -- plain decimals: the Float fast path is bit-exact ------------------ *)

(* The sink parses [-]digits[.digits] without [float_of_string]; every
   loaded float must carry the very bits [float_of_string] gives its
   value's first occurrence (so 0.0 and -0.0, which intern to one
   code, are told apart), on both sides of the 15-digit limit. *)
let test_plain_decimals () =
  reset_lcg ();
  let edge =
    [ "-0"; "0"; "-0.0"; "0.000"; "5."; ".5"; "-.5"; "1e3"; "007.50" ]
  in
  let random () =
    let digits = 1 + rand 18 in
    let b = Buffer.create 24 in
    if rand 3 = 0 then Buffer.add_char b '-';
    let dot = rand (digits + 1) in
    for k = 0 to digits - 1 do
      if k = dot && k > 0 then Buffer.add_char b '.';
      Buffer.add_char b (Char.chr (Char.code '0' + rand 10))
    done;
    Buffer.contents b
  in
  let cells = edge @ List.init 5000 (fun _ -> random ()) in
  let rel = Relation.make "dec" ~domains:[ ("f", Domain.Float) ] [ "f" ] in
  let text = String.concat "\n" ("f" :: cells) ^ "\n" in
  (* keyed by [compare], the interning identity *)
  let first = Hashtbl.create 5000 in
  match Csv.load rel text with
  | Ok (t, _) ->
      List.iter2
        (fun raw row ->
          let f = float_of_string raw in
          if not (Hashtbl.mem first f) then Hashtbl.add first f f;
          match row with
          | [ Value.Float x ] ->
              Alcotest.(check int64)
                raw
                (Int64.bits_of_float (Hashtbl.find first f))
                (Int64.bits_of_float x)
          | _ -> Alcotest.failf "%S did not load as a float" raw)
        cells (Table.to_lists t)
  | Error e -> Alcotest.failf "decimals: %s" (Error.to_string e)

(* -- rows decode from the store ---------------------------------------- *)

(* a loaded table's rows are decoded from its store on each call: they
   equal the reference loader's rows after the load, an append and a
   delete *)
let test_rows_decode () =
  let csv = "id,tag\r\n1,x\r\n2,y\r\n3,x\r\n" in
  match (Csv.load bypass_rel csv, Reference.Csv.load bypass_rel csv) with
  | Ok (t, _), Ok (r, _) ->
      Alcotest.check value_rows "after load" (Table.to_lists r) (Table.to_lists t);
      List.iter
        (fun t ->
          Table.insert t [ vi 4; vs "z" ];
          Table.delete_rows t [ 1 ])
        [ t; r ];
      Alcotest.check value_rows "after an append and a delete" (Table.to_lists r)
        (Table.to_lists t);
      Alcotest.(check (list (list value)))
        "contents"
        [ [ vi 1; vs "x" ]; [ vi 3; vs "x" ]; [ vi 4; vs "z" ] ]
        (Table.to_lists t)
  | Error e, _ | _, Error e -> Alcotest.failf "load failed: %s" (Error.to_string e)

(* -- golden edge cases ------------------------------------------------ *)

let test_golden_edges () =
  (* quoting: embedded comma, doubled quote, quoted newline, CRLF *)
  (match
     Csv.load bypass_rel "id,tag\r\n1,\"a,b\"\r\n2,\"say \"\"hi\"\"\"\n3,\"l1\nl2\"\r\n"
   with
  | Ok (t, None) ->
      Alcotest.(check (list (list value)))
        "quoted fields"
        [
          [ vi 1; vs "a,b" ];
          [ vi 2; vs "say \"hi\"" ];
          [ vi 3; vs "l1\nl2" ];
        ]
        (Table.to_lists t)
  | _ -> Alcotest.fail "quoting doc should load cleanly");
  (* header reorder *)
  (match Csv.load bypass_rel "tag,id\r\nhello,7\n" with
  | Ok (t, None) ->
      Alcotest.(check (list (list value)))
        "reordered header" [ [ vi 7; vs "hello" ] ] (Table.to_lists t)
  | _ -> Alcotest.fail "reordered doc should load cleanly");
  (* strict arity error carries row, line and widths *)
  (match Csv.load bypass_rel "id,tag\n1,x\n2\n" with
  | Error e ->
      Alcotest.(check string)
        "arity code" "csv-arity"
        (Error.code_to_string e.Error.code);
      check_contains "arity message" ~sub:"width 1, expected 2"
        e.Error.message
  | Ok _ -> Alcotest.fail "short row must fail in strict mode");
  (* strict type error names the cell and the domain *)
  (match Csv.load bypass_rel "id,tag\nzz,x\n" with
  | Error e ->
      Alcotest.(check string)
        "type code" "type-mismatch"
        (Error.code_to_string e.Error.code);
      check_contains "type message" ~sub:"\"zz\" is not a" e.Error.message
  | Ok _ -> Alcotest.fail "bad int must fail in strict mode");
  (* degenerate documents agree with the reference loader *)
  List.iter
    (fun text ->
      List.iter
        (fun mode ->
          Alcotest.(check string)
            (Printf.sprintf "degenerate %S" text)
            (show (Reference.Csv.load ~mode bypass_rel text))
            (show (Csv.load ~mode bypass_rel text)))
        [ `Strict; `Quarantine ])
    [ ""; "id,tag\n"; "id,tag"; "\"torn"; "id,tag\n1,x\n\"torn" ]

(* -- load_file -------------------------------------------------------- *)

(* the sequential path reads 1 MiB chunks into one reused buffer, so
   the multi-chunk document (quoted commas and newlines throughout)
   checks that nothing scanned from one chunk survives the next read *)
let multi_chunk_csv () =
  let b = Buffer.create (3 lsl 20) in
  Buffer.add_string b "id,tag\r\n";
  for i = 0 to 99_999 do
    Printf.bprintf b "%d,\"tag %d, line\nnext \"\"%d\"\"\"\r\n" i (i mod 7) i
  done;
  Buffer.contents b

let test_load_file () =
  let t = table "wide" [ "id"; "tag" ] [ [ vi 1; vs "x" ]; [ vi 2; vs "y" ] ] in
  let path = Filename.temp_file "dbre_ingest" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      List.iter
        (fun (what, csv) ->
          let oc = open_out_bin path in
          output_string oc csv;
          close_out oc;
          match Csv.load_file bypass_rel path with
          | Ok (got, None) ->
              Alcotest.(check string)
                what
                (show (Csv.load bypass_rel csv))
                (show (Ok (got, None)))
          | Ok (_, Some _) -> Alcotest.failf "%s: clean file produced a report" what
          | Error e -> Alcotest.failf "%s: load_file failed: %s" what (Error.to_string e))
        [
          ("file roundtrip", Csv.dump_table t);
          ("multi-chunk file", multi_chunk_csv ());
        ]);
  match Csv.load_file bypass_rel (path ^ ".does-not-exist") with
  | Error e ->
      Alcotest.(check string)
        "missing file code" "io-error"
        (Error.code_to_string e.Error.code)
  | Ok _ -> Alcotest.fail "missing file must be an Io_error"

(* a reader that fails mid-stream is a typed load error, not an
   exception *)
let test_reader_failure () =
  match
    Csv.load_from_reader rel3 (fun () -> raise (Sys_error "connection reset"))
  with
  | Ok _ -> Alcotest.fail "loaded from a reader that raised"
  | Error e ->
      Alcotest.(check string) "typed io error" "io-error"
        (Error.code_to_string e.Error.code)

let suite =
  [
    Alcotest.test_case "chunked scan = whole scan" `Quick
      test_scanner_chunking;
    Alcotest.test_case "streaming = reference (randomized)" `Quick
      test_loader_equivalence;
    Alcotest.test_case "load_file = reference (randomized)" `Quick
      test_load_file_equivalence;
    Alcotest.test_case "dictionaries match the reference encode" `Quick
      test_dictionary_equivalence;
    Alcotest.test_case "chunked load = reference" `Quick test_loader_chunking;
    Alcotest.test_case "rejected rows leave no trace" `Quick test_rejected_rows;
    Alcotest.test_case "100k keys differing in trailing digits" `Quick
      test_trailing_digits;
    Alcotest.test_case "Int spellings off the fast path" `Quick
      test_int_spellings;
    Alcotest.test_case "40k distinct keys with planted errors" `Quick
      test_high_cardinality;
    Alcotest.test_case "many spellings, one code" `Quick test_spellings;
    Alcotest.test_case "plain decimals are bit-exact" `Quick
      test_plain_decimals;
    Alcotest.test_case "rows decode from the store" `Quick test_rows_decode;
    Alcotest.test_case "golden edge cases" `Quick test_golden_edges;
    Alcotest.test_case "load_file roundtrip and Io_error" `Quick
      test_load_file;
    Alcotest.test_case "reader failure is a typed io error" `Quick
      test_reader_failure;
  ]
