(* Out-of-core column store: bit-packed segments and spill + mmap
   must be invisible to every verdict.

   - fuzzed segment-boundary equivalence: the streaming builder and the
     seed reference loader produce identical codes and dictionaries for
     row counts straddling segment edges, at every pack width;
   - spill -> mmap -> verdict round-trip: encoding under a tiny
     residency budget spills segments and maps them back, and neither
     the decoded codes nor any FD/IND verdict changes;
   - IND counts over disjoint and overlapping integer ranges are exact;
   - delete compaction: tail-only deletes take the reclaim path, deep
     deletes recompact, and both end up identical to a fresh encode of
     the surviving rows;
   - the full pipeline under a spill budget produces byte-identical
     artifacts to an in-RAM run;
   - a spill file truncated, extended, emptied, deleted, replaced by a
     directory or with one byte flipped fails its segment's decode with
     a typed [Io_error] and leaves its siblings decodable. *)

open Relational
open Helpers
module Gen = Workload.Gen_schema
module Pipeline = Dbre.Pipeline
module Job_spec = Dbre.Job_spec

(* -- deterministic pseudo-random stream ------------------------------- *)

let lcg = ref 0

let rand m =
  lcg := ((!lcg * 1103515245) + 12345) land 0x3FFFFFFF;
  !lcg mod m

let reset_lcg () = lcg := 424242

(* -- fuzzed segment-boundary equivalence ------------------------------ *)

let rel2 =
  Relation.make "r"
    ~domains:[ ("k", Domain.Int); ("v", Domain.String) ]
    [ "k"; "v" ]

(* [cardinality] controls the dictionary size and thus the pack width:
   2 distinct codes -> 1 bit, up to 65536+ -> 32 *)
let gen_text ~n ~cardinality =
  let b = Buffer.create (16 * n) in
  Buffer.add_string b "k,v\n";
  for i = 0 to n - 1 do
    if rand 10 = 0 then Buffer.add_string b ",\n"
    else
      Buffer.add_string b
        (Printf.sprintf "%d,s%d\n" (i mod cardinality) (rand cardinality))
  done;
  Buffer.contents b

let load_both text =
  match
    ( Csv.load ~mode:`Strict rel2 text,
      Reference.Csv.load ~mode:`Strict rel2 text )
  with
  | Ok (t1, _), Ok (t2, _) -> (t1, t2)
  | _ -> Alcotest.fail "csv load failed"

let check_stores_identical msg t1 t2 =
  let s1 = Table.store t1 and s2 = Table.store t2 in
  List.iter
    (fun a ->
      let c1 = Column_store.column s1 a and c2 = Column_store.column s2 a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s" msg a)
        true
        (Column_store.column_dict c1 = Column_store.column_dict c2);
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s" msg a)
        true
        (Column_store.column_codes c1 = Column_store.column_codes c2))
    (Table.schema t1).Relation.attrs

let test_boundary_equivalence () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:16 (fun () ->
      List.iter
        (fun n ->
          List.iter
            (fun cardinality ->
              let text = gen_text ~n ~cardinality in
              let t1, t2 = load_both text in
              check_stores_identical
                (Printf.sprintf "n=%d card=%d" n cardinality)
                t1 t2;
              (* the builder-made store really is segmented *)
              let r = Column_store.residency (Table.store t1) in
              Alcotest.(check int)
                (Printf.sprintf "n=%d: sealed count" n)
                (n / 16 * 2) (* two columns *)
                r.Column_store.sealed_segments;
              Alcotest.(check int)
                (Printf.sprintf "n=%d: tail rows" n)
                (n mod 16) r.Column_store.tail_rows)
            [ 1; 3; 12; 200 ])
        [ 0; 1; 15; 16; 17; 31; 32; 33; 47; 48; 49 ])

(* the content digest checkpoints bind to reads the same rows alike at
   any segment size, resident or spilled, and tells other rows apart *)
let test_digest_layout_free () =
  reset_lcg ();
  let text = gen_text ~n:200 ~cardinality:12 in
  let digest text () =
    match Csv.load rel2 text with
    | Ok (t, _) -> Digest.to_hex (Column_store.digest (Table.store t))
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let resident = digest text () in
  Alcotest.(check string) "16-row segments" resident
    (Ooc.with_config ~segment_rows:16 (digest text));
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () ->
      Alcotest.(check string) "spilled segments" resident
        (Ooc.with_config ~spill_dir:dir ~resident_budget_words:64
           ~segment_rows:32 (digest text)));
  let more = digest (text ^ "1,s1\n") () in
  Alcotest.(check bool) "one more row" true (resident <> more);
  Alcotest.(check bool) "one cell changed" true
    (more <> digest (text ^ "1,s2\n") ())

(* 300+ distinct values forces 16-bit segments; 66000+ forces 32-bit *)
let test_wide_dictionaries () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:64 (fun () ->
      let text = gen_text ~n:700 ~cardinality:300 in
      let t1, t2 = load_both text in
      check_stores_identical "width 16" t1 t2);
  Ooc.with_config ~segment_rows:16384 (fun () ->
      let b = Buffer.create (1 lsl 20) in
      Buffer.add_string b "k,v\n";
      for i = 0 to 69999 do
        Buffer.add_string b (Printf.sprintf "%d,w\n" i)
      done;
      let t1, t2 = load_both (Buffer.contents b) in
      check_stores_identical "width 32" t1 t2;
      let c = Column_store.column (Table.store t1) "k" in
      ignore c;
      let r = Column_store.residency (Table.store t1) in
      (* the k column needs 32-bit codes once the dictionary passes
         65536 entries *)
      Alcotest.(check bool) "a 32-bit segment exists" true
        (List.mem_assoc 32 r.Column_store.width_histogram))

(* -- spill -> mmap -> verdict round-trip ------------------------------ *)

let skew_rows n =
  List.init n (fun i ->
      [
        vi i;
        (* unique key *)
        vs (Printf.sprintf "g%d" (i mod 7));
        (* 7 groups *)
        vi (i mod 7);
        (* function of the group attr: k -> g -> h all hold *)
      ])

let test_spill_roundtrip () =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  Ooc.with_config ~spill_dir:dir ~resident_budget_words:64 ~segment_rows:32
    (fun () ->
      Ooc.reset_stats ();
      let t = table "R" [ "k"; "g"; "h" ] (skew_rows 200) in
      let s = Table.store t in
      (* 64 words cannot hold two 32-row segments: the inserts
         themselves must have spilled *)
      let st = Ooc.stats () in
      Alcotest.(check bool) "segments spilled" true (st.Ooc.spill_writes > 0);
      let r = Column_store.residency s in
      Alcotest.(check bool) "some segments are on disk only" true
        (r.Column_store.spilled_segments > 0);
      (* decoding a spilled column maps its segments back; the codes
         are byte-identical to a fresh in-RAM encode *)
      let codes_spilled = Column_store.column_codes (Column_store.column s "k") in
      Alcotest.(check bool) "mmap loads happened" true
        ((Ooc.stats ()).Ooc.map_loads > 0);
      let codes_ram =
        Ooc.with_config ~resident_budget_words:max_int (fun () ->
            Column_store.column_codes (Column_store.column (cold_store t) "k"))
      in
      Alcotest.(check bool) "spilled codes = resident codes" true
        (codes_spilled = codes_ram);
      (* verdicts through the spilled store hold the expected verdicts *)
      let verdicts = Column_store.fd_batch s ~lhs:[ "g" ] ~rhs:[ "h"; "k" ] in
      Alcotest.(check (list (pair string bool)))
        "fd verdicts over spilled segments"
        [ ("h", true); ("k", false) ]
        verdicts;
      Alcotest.(check int) "distinct count over spilled segments" 200
        (Column_store.count_distinct s [ "k" ]))

(* -- IND short-circuit ------------------------------------------------ *)

(* disjoint integer ranges join to 0, overlapping ones count exactly *)
let test_ind_short_circuit () =
  let l = table "L" [ "ref" ] (List.init 50 (fun i -> [ vi (1000 + i) ])) in
  let r = table "R" [ "id" ] (List.init 50 (fun i -> [ vi i ])) in
  let sl = cold_store l and sr = cold_store r in
  Alcotest.(check int) "disjoint ranges join to 0" 0
    (Column_store.equijoin_distinct_count sl [ "ref" ] sr [ "id" ]);
  (* overlapping ranges take the real intersection *)
  let r2 = table "R2" [ "id" ] (List.init 50 (fun i -> [ vi (990 + i) ])) in
  let sr2 = cold_store r2 in
  Alcotest.(check int) "overlap counts exactly" 40
    (Column_store.equijoin_distinct_count sl [ "ref" ] sr2 [ "id" ])

(* -- multi-attribute counts -------------------------------------------- *)

(* Every count of two or more attributes, and the distinct projection
   Restruct runs, against the reference. *)
let check_multi msg (t1, a1) (t2, a2) =
  check_join_counts msg (t1, a1) (t2, a2);
  List.iter
    (fun (t, attrs) ->
      let rel = Relation.make "P" attrs in
      Alcotest.check value_rows
        (msg ^ ": distinct projection")
        (Reference.Counts.project ~non_null:[ List.hd attrs ] t attrs)
        (Table.to_lists
           (Table.of_store rel
              (Column_store.project ~distinct:[ List.hd attrs ] (Table.store t) rel))))
    [ (t1, a1); (t2, a2) ]

(* A two-attribute pair with small dictionaries: the right side spells
   some a-values as Floats, and both sides hold NULLs. *)
let small_pair () =
  let l =
    table "L" [ "a"; "b"; "c" ]
      (List.init 200 (fun i ->
           [
             (if i mod 10 = 0 then vnull else vi (i mod 11));
             (if i mod 13 = 0 then vnull else vs (Printf.sprintf "s%d" (i mod 7)));
             vi i;
           ]))
  in
  let r =
    table "R" [ "x"; "y" ]
      (List.init 150 (fun i ->
           [
             (if i mod 17 = 0 then Value.Float (float_of_int (i mod 11))
              else vi (i mod 11));
             (if i mod 9 = 0 then vnull else vs (Printf.sprintf "s%d" (i mod 8)));
           ]))
  in
  ((l, [ "a"; "b" ]), (r, [ "x"; "y" ]))

(* Four columns of at least 2^16 distinct values each, so the product
   of the dictionary sizes passes [max_int]. The right side is the left
   shifted by 2000 rows, so most tuples match; some
   mismatch in one component only (every value occurs on the left, the
   tuple does not), some spell a value as a Float, some hold NULLs. *)
let wide_pair () =
  let n = 67_000 in
  let row k =
    [
      vi k;
      vi (k * 7 mod n);
      vs (Printf.sprintf "c%d" (k * 13 mod n));
      vi (k + 1_000_000);
    ]
  in
  let l =
    table "L" [ "a"; "b"; "c"; "d" ]
      (List.init n (fun i -> if i mod 97 = 0 then vnull :: List.tl (row i) else row i))
  in
  let r =
    table "R" [ "w"; "x"; "y"; "z" ]
      (List.init n (fun j ->
           let k = j + 2000 in
           match row k with
           | [ w; x; y; _ ] when j mod 50 = 0 -> [ w; x; y; vi (k + 1 + 1_000_000) ]
           | [ w; _; y; z ] when j mod 31 = 0 ->
               [ w; Value.Float (float_of_int (k * 7 mod n)); y; z ]
           | [ w; x; _; z ] when j mod 89 = 0 -> [ w; x; vnull; z ]
           | cells -> cells))
  in
  ((l, [ "a"; "b"; "c"; "d" ]), (r, [ "w"; "x"; "y"; "z" ]))

(* Both pairs from segments spilled under a tiny budget: 16-row
   segments for the small pair, and 1024-row ones for the wide pair,
   whose 67k rows would otherwise seal some 33k spill files. *)
let test_multi_attribute () =
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spilled segment_rows msg ((l, la), (r, ra)) =
    Ooc.with_config ~spill_dir:dir ~resident_budget_words:64 ~segment_rows
      (fun () ->
        Ooc.reset_stats ();
        check_multi msg (l, la) (r, ra);
        Alcotest.(check bool) (msg ^ ": the stores spilled") true
          ((Ooc.stats ()).Ooc.spill_writes > 0))
  in
  let (l, la), (r, ra) = small_pair () in
  check_multi "two attributes" (l, la) (r, ra);
  spilled 16 "two attributes, spilled" (small_pair ());
  spilled 1024 "four wide attributes, spilled" (wide_pair ())

(* -- delete compaction and code reclaim ------------------------------- *)

let mod_rows n =
  List.init n (fun i ->
      [ vi (i mod 13); vs (Printf.sprintf "s%d" (i mod 5)); vi i ])

let check_equals_fresh_encode msg t s =
  let fresh = cold_store t in
  List.iter
    (fun a ->
      let cm = Column_store.column s a and cf = Column_store.column fresh a in
      Alcotest.(check bool)
        (Printf.sprintf "%s: codes of %s = fresh encode" msg a)
        true
        (Column_store.column_codes cm = Column_store.column_codes cf);
      Alcotest.(check bool)
        (Printf.sprintf "%s: dict of %s = fresh encode" msg a)
        true
        (Column_store.column_dict cm = Column_store.column_dict cf))
    (Table.schema t).Relation.attrs

let test_delete_compaction () =
  Ooc.with_config ~segment_rows:8 (fun () ->
      let attrs = [ "a"; "b"; "c" ] in
      let t = table "R" attrs (mod_rows 50) in
      let s = Table.store t in
      (* a memo, so the refreshes below report on this store *)
      ignore (Column_store.count_distinct s attrs);
      (* tail-only delete (rows 48,49 sit past the 6th sealed segment):
         counts stay exact through the tail liveness fallback *)
      Table.delete_rows t [ 48; 49 ];
      (match Column_store.refresh_all [ s ] with
      | [ Some (Column_store.Store_absorbed 2) ] -> ()
      | _ -> Alcotest.fail "expected a 2-row absorb");
      Alcotest.(check int) "distinct a after tail delete" 13
        (Column_store.count_distinct s [ "a" ]);
      Alcotest.(check int) "distinct c after tail delete" 48
        (Column_store.count_distinct s [ "c" ]);
      (* the delete reclaimed the dead tail codes: through an append
         the store is exactly a fresh encode of the surviving rows *)
      Table.insert t [ vi 99; vs "s99"; vi 999 ];
      (match Column_store.refresh_all [ s ] with
      | [ Some (Column_store.Store_absorbed 1) ] -> ()
      | _ -> Alcotest.fail "expected a 1-row absorb");
      check_equals_fresh_encode "after tail reclaim" t s;
      (* deep delete (row 0 lives in the first sealed segment): full
         recompaction, again identical to a fresh encode *)
      Table.delete_rows t [ 0; 20; 40 ];
      (match Column_store.refresh_all [ s ] with
      | [ Some (Column_store.Store_absorbed 3) ] -> ()
      | _ -> Alcotest.fail "expected a 3-row absorb");
      check_equals_fresh_encode "after deep compaction" t s;
      Alcotest.(check int) "distinct c after deep delete" 46
        (Column_store.count_distinct s [ "c" ]))

(* fuzzed mutation bursts: after any mix of appends and deletes, the
   delta-maintained segmented store matches a fresh encode *)
let test_fuzzed_mutations () =
  reset_lcg ();
  Ooc.with_config ~segment_rows:8 (fun () ->
      for round = 1 to 25 do
        let attrs = [ "a"; "b" ] in
        let n = 10 + rand 40 in
        let t =
          table "R" attrs
            (List.init n (fun _ ->
                 [ vi (rand 9); vs (Printf.sprintf "s%d" (rand 6)) ]))
        in
        let s = Table.store t in
        ignore (Column_store.count_distinct s [ "a" ]);
        for _ = 1 to 4 do
          (match rand 3 with
          | 0 ->
              Table.insert_many t
                (List.init (1 + rand 3) (fun _ ->
                     [ vi (rand 9); vs (Printf.sprintf "s%d" (rand 6)) ]))
          | 1 ->
              let m = Table.cardinality t in
              if m > 2 then
                Table.delete_rows t
                  (List.sort_uniq compare [ rand m; rand m ])
          | _ -> Table.insert t [ vi (rand 20); vs "fresh" ]);
          ignore (Column_store.refresh_all [ s ])
        done;
        check_equals_fresh_encode (Printf.sprintf "round %d" round) t s;
        (* verdicts over the mutated store match the reference *)
        let f = fd "R" [ "a" ] [ "b" ] in
        Alcotest.(check bool)
          (Printf.sprintf "round %d: fd verdict" round)
          (Reference.Fd_infer.holds_naive t f)
          (Deps.Fd_infer.holds t f)
      done)

(* -- full pipeline under a spill budget ------------------------------- *)

let artifacts_exn config db input =
  match Pipeline.run_checked ~config db input with
  | Ok r -> Dbre.Report.artifacts r
  | Error p ->
      Alcotest.failf "pipeline failed: %s" (Error.to_string p.Pipeline.p_error)

let test_pipeline_spilled_identity () =
  let spec =
    {
      Gen.default_spec with
      Gen.seed = 77L;
      rows_per_entity = 60;
      rows_per_denorm = 120;
    }
  in
  let run () =
    let g = Gen.generate spec in
    artifacts_exn
      { Pipeline.default_config with Pipeline.engine = Engine.default }
      g.Gen.db
      (Job_spec.Equijoins g.Gen.equijoins)
  in
  let in_ram = run () in
  let dir = fresh_spill_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let spilled =
    Ooc.with_config ~spill_dir:dir ~resident_budget_words:512 ~segment_rows:16
      (fun () ->
        Ooc.reset_stats ();
        run ())
  in
  Alcotest.(check bool) "the spilled run actually spilled" true
    ((Ooc.stats ()).Ooc.spill_writes > 0);
  Alcotest.(check (list (pair string string)))
    "artifacts byte-identical across the spill threshold" in_ram spilled

(* xor one byte of a file with a nonzero [mask] *)
let flip_byte path f mask =
  let bytes = In_channel.with_open_bin path In_channel.input_all |> Bytes.of_string in
  let i = int_of_float (f *. float_of_int (Bytes.length bytes)) in
  Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor mask));
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_bytes oc bytes)

(* -- a damaged spill file ---------------------------------------------- *)

(* Spill a generated database under a tiny budget, then damage every
   spill file: decoding a table with spilled segments, and the pipeline
   over the database, must both fail with a typed [Io_error], never a
   raw [Unix_error]. Nothing reads the store before the damage, so no
   spill file is mapped while it changes size. *)
let test_damaged_spill_files () =
  let spec =
    { Gen.default_spec with Gen.seed = 78L; rows_per_entity = 60; rows_per_denorm = 120 }
  in
  let is_io_error msg = function
    | Error.Error e ->
        Alcotest.(check bool) (msg ^ ": " ^ Error.to_string e) true (e.Error.code = Error.Io_error)
    | exn -> Alcotest.failf "%s: raised %s" msg (Printexc.to_string exn)
  in
  let size path = (Unix.stat path).Unix.st_size in
  List.iter
    (fun (what, damage) ->
      let dir = fresh_spill_dir () in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      Ooc.with_config ~spill_dir:dir ~resident_budget_words:512 ~segment_rows:16 (fun () ->
          let g = Gen.generate spec in
          let files = Sys.readdir dir in
          Alcotest.(check bool) (what ^ ": spill files written") true (Array.length files > 0);
          Array.iter (fun f -> damage (Filename.concat dir f)) files;
          let decoded = ref 0 in
          List.iter
            (fun (rel : Relation.t) ->
              let t = Database.table g.Gen.db rel.Relation.name in
              if (Column_store.residency (Table.store t)).Column_store.spilled_segments > 0 then begin
                incr decoded;
                match Table.rows t with
                | _ -> Alcotest.failf "%s: %s decoded from damaged files" what rel.Relation.name
                | exception exn -> is_io_error (what ^ ": decode " ^ rel.Relation.name) exn
              end)
            (Schema.relations (Database.schema g.Gen.db));
          Alcotest.(check bool) (what ^ ": a table had spilled segments") true (!decoded > 0);
          match
            Pipeline.run_checked
              ~config:{ Pipeline.default_config with Pipeline.engine = Engine.default }
              g.Gen.db (Job_spec.Equijoins g.Gen.equijoins)
          with
          | Ok _ -> Alcotest.failf "%s: the pipeline ran over damaged files" what
          | Error p -> is_io_error (what ^ ": pipeline") (Error.Error p.Pipeline.p_error)))
    [
      ("truncated", fun path -> Unix.truncate path (size path / 2));
      ( "extended",
        fun path ->
          Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
              Out_channel.output_string oc (String.make 8 '\000')) );
      ("flipped", fun path -> flip_byte path 0.5 0x80);
    ]

(* -- the spill-file decoder is total -------------------------------- *)

(* Seal segments under a one-word budget, so each spills itself as it
   is sealed, then damage every spill file but one: [Ooc.decode_into]
   of a damaged segment raises [Error.Error] with [Io_error] and
   nothing else, and the undamaged sibling still decodes to its codes.
   A flipped byte keeps the file's size and kind: the checksum taken as
   the file was written catches it. *)

type damage =
  | Truncate of int
  | Extend of int
  | Empty
  | Delete
  | Directory
  | Flip of float * int  (* xor the byte at that fraction of the file with a nonzero mask *)

let damage_to_string = function
  | Truncate k -> Printf.sprintf "truncate by %d" k
  | Extend k -> Printf.sprintf "extend by %d" k
  | Empty -> "empty"
  | Delete -> "delete"
  | Directory -> "directory"
  | Flip (f, m) -> Printf.sprintf "flip the byte at %g by %#x" f m

let apply_damage path = function
  | Truncate k ->
      let size = (Unix.stat path).Unix.st_size in
      Unix.truncate path (max 0 (size - k))
  | Extend k ->
      Out_channel.with_open_gen [ Open_append; Open_binary ] 0o600 path (fun oc ->
          Out_channel.output_string oc (String.make k '\001'))
  | Empty -> Unix.truncate path 0
  | Delete -> Sys.remove path
  | Directory ->
      Sys.remove path;
      Unix.mkdir path 0o700
  | Flip (f, mask) -> flip_byte path f mask

(* a segment's codes: a small range packs narrow, a code past 32 bits
   stays raw (width 0, eight bytes a code). 512 raw or 4096 byte-wide
   codes make a 4096-byte file, the size of a directory on ext4, so a
   directory in its place passes the size check and fails the map. *)
let gen_codes =
  QCheck.Gen.(
    let* n = frequency [ (8, int_range 1 40); (1, return 512); (1, return 4096) ] in
    let* top = oneofl [ 1; 3; 15; 255; 65_535; 1 lsl 40 ] in
    array_size (return n) (int_bound (min top (1 lsl 30 - 1)))
    >|= fun codes ->
    if top > 1 lsl 32 then codes.(0) <- top;
    codes)

let gen_damage =
  QCheck.Gen.(
    oneof
      [
        map (fun k -> Truncate k) (int_range 1 16);
        map (fun k -> Extend k) (int_range 1 16);
        return Empty;
        return Delete;
        return Directory;
        map2 (fun f m -> Flip (f, m)) (float_bound_exclusive 1.) (int_range 1 255);
      ])

let prop_damaged_spill_decode =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"damaged spill files: decode_into raises only Io_error"
       (QCheck.make
          ~print:(fun (segs, keep) ->
            Printf.sprintf "keep %d of [%s]" keep
              (String.concat "; "
                 (List.map
                    (fun (codes, d) ->
                      Printf.sprintf "%d codes, %s" (Array.length codes) (damage_to_string d))
                    segs)))
          QCheck.Gen.(
            let* segs = list_size (int_range 2 5) (pair gen_codes gen_damage) in
            let* keep = int_bound (List.length segs - 1) in
            return (segs, keep)))
       (fun (segs, keep) ->
         let dir = fresh_spill_dir () in
         let cleanup () =
           if Sys.file_exists dir then
             Array.iter
               (fun f ->
                 let path = Filename.concat dir f in
                 if Sys.is_directory path then Unix.rmdir path)
               (Sys.readdir dir);
           rm_rf dir
         in
         Fun.protect ~finally:cleanup @@ fun () ->
         Ooc.with_config ~spill_dir:dir ~resident_budget_words:1 (fun () ->
             (* the budget is process-wide: a first seal spills every
                other resident segment here, so from then on the one file
                each seal leaves behind is its own segment's *)
             ignore (Ooc.seal [| 0 |] 0 1);
             let sealed =
               List.map
                 (fun (codes, damage) ->
                   let before = Sys.readdir dir in
                   let seg = Ooc.seal codes 0 (Array.length codes) in
                   match
                     List.filter
                       (fun f -> not (Array.mem f before))
                       (Array.to_list (Sys.readdir dir))
                   with
                   | [ f ] -> (seg, codes, Filename.concat dir f, damage)
                   | _ -> QCheck.Test.fail_report "a seal did not spill exactly one file")
                 segs
             in
             List.iteri
               (fun i (_, _, path, damage) -> if i <> keep then apply_damage path damage)
               sealed;
             List.iteri
               (fun i (seg, codes, _, damage) ->
                 let dst = Array.make (Array.length codes) (-1) in
                 if i = keep then begin
                   Ooc.decode_into seg dst;
                   if dst <> codes then
                     QCheck.Test.fail_report "the undamaged sibling decoded other codes"
                 end
                 else
                   match Ooc.decode_into seg dst with
                   | () -> QCheck.Test.fail_reportf "%s: decoded" (damage_to_string damage)
                   | exception Error.Error e when e.Error.code = Error.Io_error -> ()
                   | exception exn ->
                       QCheck.Test.fail_reportf "%s: raised %s" (damage_to_string damage)
                         (Printexc.to_string exn))
               sealed;
             true)))

let suite =
  [
    Alcotest.test_case "segment boundaries: builder = reference" `Quick
      test_boundary_equivalence;
    Alcotest.test_case "16/32-bit dictionaries" `Quick test_wide_dictionaries;
    Alcotest.test_case "spill -> mmap round-trip" `Quick test_spill_roundtrip;
    Alcotest.test_case "digest ignores segment layout" `Quick
      test_digest_layout_free;
    Alcotest.test_case "IND disjoint-range short-circuit" `Quick
      test_ind_short_circuit;
    Alcotest.test_case "multi-attribute counts = reference" `Quick
      test_multi_attribute;
    Alcotest.test_case "delete compaction = fresh encode" `Quick
      test_delete_compaction;
    Alcotest.test_case "fuzzed mutations = fresh encode" `Quick
      test_fuzzed_mutations;
    Alcotest.test_case "pipeline artifacts identical across spill" `Quick
      test_pipeline_spilled_identity;
    Alcotest.test_case "damaged spill files raise Io_error" `Quick test_damaged_spill_files;
    prop_damaged_spill_decode;
  ]
