(* Column dictionaries at their boundary.

   - a QCheck sequence property: a table loaded from CSV (an Int and a
     String column, 16-row segments) goes through appends, tail deletes
     and deletes reaching sealed rows. Values include min_int, max_int,
     0, "", NUL bytes, 1-200 byte strings, Float 1.0 beside Int 1, Bool
     and Date, so either column may widen partway through. After every
     step each column's dictionary and codes, its distinct count, the
     unary inclusions and the decoded rows must equal a reference
     first-occurrence Hashtbl encoding of the surviving rows;
   - a QCheck property on one Int dictionary's intern table: probes that
     commit or abandon their miss, and reclaims that drop and renumber
     entries, over keys whose hash fragments and home slots collide,
     against a Hashtbl model;
   - dictionary memory: [residency]'s [dict_words] pinned for an Int
     and a String column of known contents, and a ceiling on what a
     one-domain load of a fixed generated shape allocates. *)

open Relational
open Helpers

let rel = Relation.make "S" ~domains:[ ("i", Domain.Int); ("s", Domain.String) ] [ "i"; "s" ]

(* -- generators ------------------------------------------------------- *)

let gen_int =
  QCheck.Gen.(
    frequency
      [
        (1, oneofl [ min_int; max_int; 0 ]);
        (4, int_range (-3) 3);
        (1, int);
      ])

(* [~csv]: what a CSV cell can spell, non-empty and NUL-free *)
let gen_string ~csv =
  QCheck.Gen.(
    let bytes lo hi =
      string_size ~gen:(if csv then printable else char) (int_range lo hi)
    in
    frequency
      ((if csv then [] else [ (1, oneofl [ ""; "\000"; "a\000b" ]) ])
      @ [ (4, oneofl [ "x"; "y"; "1" ]); (2, bytes 1 12); (1, bytes 1 200) ]))

let gen_other =
  QCheck.Gen.oneofl
    [
      Value.Float 1.0;
      Value.Int 1;
      Value.String "1";
      Value.Bool true;
      Value.Bool false;
      Value.Date { Value.year = 2020; month = 2; day = 29 };
    ]

(* a cell of a column whose own constructor is [own]; [mix] in 20
   cells are of any other, so a column widens partway through or, at
   [mix = 0], never *)
let gen_cell ~mix own =
  QCheck.Gen.(
    frequency [ (18 - mix, own); (2, return Value.Null); (mix, gen_other) ])

type op =
  | Append of Value.t list list
  | Delete_tail of int  (* the last rows *)
  | Delete of float list  (* anywhere, as fractions of the row count *)

type case = { initial : (int * string) list; mix : int; ops : op list }

let gen_case =
  QCheck.Gen.(
    let* initial =
      list_size (int_range 0 40) (pair gen_int (gen_string ~csv:true))
    in
    let* mix = int_range 0 2 in
    let row =
      map2
        (fun i s -> [ i; s ])
        (gen_cell ~mix (map (fun n -> Value.Int n) gen_int))
        (gen_cell ~mix (map (fun s -> Value.String s) (gen_string ~csv:false)))
    in
    let* ops =
      list_size (int_range 1 25)
        (frequency
           [
             (5, map (fun rows -> Append rows) (list_size (int_range 1 12) row));
             (2, map (fun k -> Delete_tail k) (int_range 1 4));
             (2, map (fun l -> Delete l) (list_size (int_range 1 3) (float_bound_exclusive 1.)));
           ])
    in
    return { initial; mix; ops })

let print_case c =
  let cell v = Printf.sprintf "%S" (Value.to_string v) in
  Printf.sprintf "initial %d rows, mix %d:\n%s" (List.length c.initial) c.mix
    (String.concat "\n"
       (List.map
          (function
            | Append rows ->
                "append "
                ^ String.concat "; " (List.map (fun r -> String.concat "," (List.map cell r)) rows)
            | Delete_tail k -> Printf.sprintf "delete the last %d" k
            | Delete l -> "delete at " ^ String.concat "," (List.map string_of_float l))
          c.ops))

(* -- the reference ---------------------------------------------------- *)

(* first-occurrence encoding of one column, under the polymorphic
   hashtable's identity *)
let ref_encode column =
  let h = Hashtbl.create 16 and dict = ref [ Value.Null ] and n = ref 1 in
  let codes =
    List.map
      (fun v ->
        if v = Value.Null then 0
        else
          match Hashtbl.find_opt h v with
          | Some c -> c
          | None ->
              Hashtbl.add h v !n;
              dict := v :: !dict;
              incr n;
              !n - 1)
      column
  in
  (Array.of_list (List.rev !dict), Array.of_list codes)

let same_values a b = Array.length a = Array.length b && Array.for_all2 (fun x y -> compare x y = 0) a b

(* every non-NULL entry of [d1] is one of [d2]'s *)
let ref_included d1 d2 =
  Array.for_all (fun v -> v = Value.Null || Array.exists (fun w -> compare v w = 0) d2) d1

(* a fixed table of values the generators draw often *)
let probe_table () =
  table "P" [ "p" ] [ [ vi 0 ]; [ vi 1 ]; [ vs "x" ]; [ Value.Float 1.0 ]; [ vs "1" ]; [ vnull ] ]

let check_state msg t (rows : Value.t list list) =
  let s = Table.store t and p = Table.store (probe_table ()) in
  let pdict = Column_store.column_dict (Column_store.column p "p") in
  let dicts =
    List.mapi
      (fun j a ->
        let dict, codes = ref_encode (List.map (fun r -> List.nth r j) rows) in
        let col = Column_store.column s a in
        if not (same_values (Column_store.column_dict col) dict) then
          QCheck.Test.fail_reportf "%s: dictionary of %s" msg a;
        if Column_store.column_codes col <> codes then
          QCheck.Test.fail_reportf "%s: codes of %s" msg a;
        if Column_store.count_distinct s [ a ] <> Array.length dict - 1 then
          QCheck.Test.fail_reportf "%s: distinct count of %s" msg a;
        if Column_store.unary_included p "p" s a <> ref_included pdict dict then
          QCheck.Test.fail_reportf "%s: P[p] included in %s" msg a;
        if Column_store.unary_included s a p "p" <> ref_included dict pdict then
          QCheck.Test.fail_reportf "%s: %s included in P[p]" msg a;
        dict)
      [ "i"; "s" ]
  in
  (match dicts with
  | [ di; ds ] ->
      if Column_store.unary_included s "i" s "s" <> ref_included di ds then
        QCheck.Test.fail_reportf "%s: i included in s" msg;
      if Column_store.unary_included s "s" s "i" <> ref_included ds di then
        QCheck.Test.fail_reportf "%s: s included in i" msg
  | _ -> assert false);
  let decoded = Array.to_list (Array.map Array.to_list (Table.rows t)) in
  if
    List.compare_lengths decoded rows <> 0
    || not (List.for_all2 (fun a b -> same_values (Array.of_list a) (Array.of_list b)) decoded rows)
  then QCheck.Test.fail_reportf "%s: decoded rows" msg

let load_csv initial =
  let text =
    Csv.render ([ "i"; "s" ] :: List.map (fun (i, s) -> [ string_of_int i; s ]) initial)
  in
  match Csv.load rel text with
  | Ok (t, _) -> t
  | Error e -> QCheck.Test.fail_reportf "load: %s" (Error.to_string e)

let run_case c =
  Ooc.with_config ~segment_rows:16 (fun () ->
      let t = load_csv c.initial in
      let rows = ref (List.map (fun (i, s) -> [ vi i; vs s ]) c.initial) in
      check_state "load" t !rows;
      List.iteri
        (fun step op ->
          let n = List.length !rows in
          (match op with
          | Append batch ->
              Table.insert_many t batch;
              rows := !rows @ batch
          | (Delete_tail _ | Delete _) when n = 0 -> ()
          | Delete_tail k ->
              let k = min k n in
              Table.delete_rows t (List.init k (fun i -> n - k + i));
              rows := List.filteri (fun i _ -> i < n - k) !rows
          | Delete fs ->
              let idxs = List.sort_uniq compare (List.map (fun f -> int_of_float (f *. float_of_int n)) fs) in
              Table.delete_rows t idxs;
              rows := List.filteri (fun i _ -> not (List.mem i idxs)) !rows);
          check_state (Printf.sprintf "step %d" step) t !rows)
        c.ops;
      true)

let test_sequences =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"mutation sequences = reference encoding"
       (QCheck.make ~print:print_case gen_case)
       run_case)

(* -- the intern table under collisions ------------------------------- *)

(* Keys [c + k * 2^30] (k < 4) share their 30-bit hash fragment, and so
   their home slot at every table size; [c + 16 * k] share a home slot
   in a 16-slot table only. Beside them: the extremes, 0 and negative
   keys. *)
let gen_key =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun c k -> c + (k lsl 30)) (int_range 0 7) (int_range 0 3));
        (2, map2 (fun c k -> c + (16 * k)) (int_range 0 7) (int_range 0 7));
        (1, oneofl [ min_int; max_int; 0; min_int + 1; max_int - 1 ]);
        (1, map (fun k -> -k) (int_range 1 40));
        (1, map (fun c -> -(c + (1 lsl 30))) (int_range 0 7));
      ])

type dict_op =
  | Intern of int  (* reserve, probe, commit a miss *)
  | Abandon of int  (* reserve, probe, leave a miss staged *)
  | Reclaim of float * bool list * bool
      (* from [lo] (a fraction of the length) on, drop the entries
         flagged, and renumber the rest in order or reversed *)

let gen_dict_ops =
  QCheck.Gen.(
    list_size (int_range 1 120)
      (frequency
         [
           (8, map (fun k -> Intern k) gen_key);
           (2, map (fun k -> Abandon k) gen_key);
           ( 1,
             map3
               (fun f drop rev -> Reclaim (f, drop, rev))
               (float_bound_exclusive 1.)
               (list_size (int_range 0 40) (frequency [ (1, return true); (2, return false) ]))
               bool );
         ]))

let print_dict_op = function
  | Intern k -> Printf.sprintf "intern %d" k
  | Abandon k -> Printf.sprintf "abandon %d" k
  | Reclaim (f, drop, rev) ->
      Printf.sprintf "reclaim from %g, drop [%s]%s" f
        (String.concat ";" (List.map string_of_bool drop))
        (if rev then ", reversed" else "")

let run_dict_ops ops =
  let d = Dict.create () in
  Dict.index d;
  (* the model: key -> code, and code -> key *)
  let model : (int, int) Hashtbl.t = Hashtbl.create 16 and keys = ref [| 0 |] in
  (* every key an op names, in a source dictionary [find_in] reads *)
  let src = Dict.create () and src_code : (int, int) Hashtbl.t = Hashtbl.create 16 in
  List.iter
    (function
      | Intern k | Abandon k ->
          if not (Hashtbl.mem src_code k) then Hashtbl.add src_code k (Dict.intern src (Value.Int k))
      | Reclaim _ -> ())
    ops;
  let check step =
    if Dict.length d <> Array.length !keys then
      QCheck.Test.fail_reportf "step %d: length %d, model %d" step (Dict.length d) (Array.length !keys);
    Array.iteri
      (fun c k ->
        if c > 0 && Dict.get d c <> Value.Int k then
          QCheck.Test.fail_reportf "step %d: code %d holds %s, model %d" step c
            (Value.to_string (Dict.get d c)) k)
      !keys;
    Hashtbl.iter
      (fun k sc ->
        let expected = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
        let got = Dict.find_in d src sc in
        if got <> expected then
          QCheck.Test.fail_reportf "step %d: find_in %d gave %d, model %d" step k got expected)
      src_code
  in
  List.iteri
    (fun step op ->
      (match op with
      | Intern k | Abandon k -> (
          Dict.reserve d;
          let c = Dict.probe_int d k in
          let expected = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
          if c <> expected then QCheck.Test.fail_reportf "step %d: probe %d gave %d, model %d" step k c expected;
          match op with
          | Intern _ when c < 0 ->
              let c = Dict.commit d in
              if c <> Array.length !keys then
                QCheck.Test.fail_reportf "step %d: commit gave %d, next code %d" step c (Array.length !keys);
              Hashtbl.add model k c;
              keys := Array.append !keys [| k |]
          | _ -> ())
      | Reclaim (f, drop, rev) ->
          let len = Array.length !keys in
          let lo = 1 + int_of_float (f *. float_of_int (len - 1)) in
          let n = len - lo in
          let dropped j = List.nth_opt drop j = Some true in
          let survivors = List.filter (fun j -> not (dropped j)) (List.init n Fun.id) in
          let next = lo + List.length survivors in
          let remap = Array.make n (-1) in
          List.iteri
            (fun r j -> remap.(j) <- (if rev then next - 1 - r else lo + r))
            survivors;
          Dict.reclaim d ~lo remap ~next;
          let keys' = Array.make next 0 in
          Array.blit !keys 0 keys' 0 lo;
          Array.iteri
            (fun j c ->
              let k = !keys.(lo + j) in
              Hashtbl.remove model k;
              if c >= 0 then begin
                keys'.(c) <- k;
                Hashtbl.replace model k c
              end)
            remap;
          keys := keys');
      check step)
    ops;
  true

let test_collisions =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"intern table = Hashtbl model under collisions"
       (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map print_dict_op ops)) gen_dict_ops)
       run_dict_ops)

(* -- dictionary memory ------------------------------------------------ *)

(* An Int column of 3 distinct values is a 4-word int array (code 0
   included) with its header: 5 words. A String column of "ab" and "cd"
   is a 4-byte arena (2 words with header and padding) and 4 offsets (5
   words). An intern table of 16 one-word slots adds 17 words. *)
let test_dict_words () =
  let words rel text ~probe =
    match Csv.load rel text with
    | Error e -> Alcotest.fail (Error.to_string e)
    | Ok (t, _) ->
        let s = Table.store t in
        if probe then Column_store.prepare ~probe:true s rel.Relation.attrs;
        (Column_store.residency s).Column_store.dict_words
  in
  let ints = Relation.make "I" ~domains:[ ("i", Domain.Int) ] [ "i" ] in
  let strs = Relation.make "T" ~domains:[ ("s", Domain.String) ] [ "s" ] in
  let int_text = "i\n1\n2\n1\n\n3\n" and str_text = "s\nab\ncd\n\nab\n" in
  Alcotest.(check int) "Int column" 5 (words ints int_text ~probe:false);
  Alcotest.(check int) "String column" 7 (words strs str_text ~probe:false);
  Alcotest.(check int) "Int column and its intern table" 22 (words ints int_text ~probe:true);
  Alcotest.(check int) "String column and its intern table" 24 (words strs str_text ~probe:true)

(* Seed 42's two 6000-row entities and one 20k-row fact table (the
   analyze-spill benchmark shape, scaled down) allocate 9,185,488 bytes
   through [Csv.load] by [Gc.allocated_bytes]; the ceiling is that
   figure plus 10%. Sizes are picked so most intern tables end between
   half and three-quarters full: two-word slots at most half full
   (13.9 MB) or one-word slots at most half full (10.8 MB) cross it. The load runs on this
   domain alone. The counter moves with where minor collections fall
   (by up to 10% here), so the major cycle is closed first, which also
   empties the minor heap: the reading then repeats to within a few
   bytes, alone or after the other suites. *)
let test_load_allocation () =
  let g =
    Workload.Gen_schema.generate
      {
        Workload.Gen_schema.default_spec with
        n_entities = 2;
        rows_per_entity = 6000;
        n_denorm = 1;
        refs_per_denorm = 2;
        payload_per_ref = 1;
        rows_per_denorm = 20_000;
        seed = 42L;
      }
  in
  let texts =
    List.map
      (fun rel -> (rel, Csv.dump_table (Database.table g.db rel.Relation.name)))
      (Schema.relations (Database.schema g.db))
  in
  Gc.full_major ();
  let before = Gc.allocated_bytes () in
  List.iter
    (fun (rel, text) ->
      match Csv.load rel text with Ok _ -> () | Error e -> Alcotest.fail (Error.to_string e))
    texts;
  let bytes = Gc.allocated_bytes () -. before in
  if bytes > 10_100_000. then Alcotest.failf "the load allocated %.0f bytes, ceiling 10,100,000" bytes

let suite =
  [
    test_sequences;
    test_collisions;
    Alcotest.test_case "dict_words of known columns" `Quick test_dict_words;
    Alcotest.test_case "load allocation ceiling" `Quick test_load_allocation;
  ]
