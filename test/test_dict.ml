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
   - a QCheck property on an ascending Int dictionary with no intern
     table: runs past the last entry, equal and smaller keys, abandoned
     misses, reclaims, selects and a widening, against a Hashtbl model;
   - a QCheck property on a dense Int dictionary (consecutive keys, no
     plane array): runs from bases near 0, [min_int] and [max_int],
     gaps, smaller keys, pushes, reclaims, selects, widenings and trims,
     against a Hashtbl model and a twin that keeps its plane;
   - lookups by arithmetic: a dense dictionary answers hits and misses
     with no table, in at most 10 ms a 10k batch, and out-of-range
     misses on a gapped ascending one build no table;
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

(* [d] against a model: its length, each code's value, and what
   [find_in] answers for each [(src, c, code)] *)
let check_model step d (values : Value.t array) lookups =
  if Dict.length d <> Array.length values then
    QCheck.Test.fail_reportf "step %d: length %d, model %d" step (Dict.length d) (Array.length values);
  Array.iteri
    (fun c v ->
      if c > 0 && compare (Dict.get d c) v <> 0 then
        QCheck.Test.fail_reportf "step %d: code %d holds %s, model %s" step c
          (Value.to_string (Dict.get d c)) (Value.to_string v))
    values;
  List.iter
    (fun (src, sc, expected) ->
      let got = Dict.find_in d src sc in
      if got <> expected then
        QCheck.Test.fail_reportf "step %d: find_in %s gave %d, model %d" step
          (Value.to_string (Dict.get src sc)) got expected)
    lookups

(* [Reclaim (f, drop, rev)] on [d] and on the model ([keys] holds code
   -> key, [model] key -> code) *)
let reclaim_model d model keys (f, drop, rev) =
  let len = Array.length !keys in
  let lo = 1 + int_of_float (f *. float_of_int (len - 1)) in
  let n = len - lo in
  let dropped j = List.nth_opt drop j = Some true in
  let survivors = List.filter (fun j -> not (dropped j)) (List.init n Fun.id) in
  let next = lo + List.length survivors in
  let remap = Array.make n (-1) in
  List.iteri (fun r j -> remap.(j) <- (if rev then next - 1 - r else lo + r)) survivors;
  Dict.reclaim d ~lo remap ~next;
  let keys' = Array.make next !keys.(0) in
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
  keys := keys'

let run_dict_ops ops =
  let d = Dict.create () in
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
    check_model step d
      (Array.map (fun k -> Value.Int k) !keys)
      (Hashtbl.fold
         (fun k sc acc -> (src, sc, Option.value ~default:(-1) (Hashtbl.find_opt model k)) :: acc)
         src_code [])
  in
  List.iteri
    (fun step op ->
      (match op with
      | Intern k | Abandon k -> (
          (* keep a table whenever the plane is not dense *)
          Dict.index d;
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
      | Reclaim (f, drop, rev) -> reclaim_model d model keys (f, drop, rev));
      check step)
    ops;
  true

let test_collisions =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"intern table = Hashtbl model under collisions"
       (QCheck.make ~print:(fun ops -> String.concat "\n" (List.map print_dict_op ops)) gen_dict_ops)
       run_dict_ops)

(* -- the ascending plane ---------------------------------------------- *)

(* A dictionary whose Int entries each exceed the one before keeps no
   intern table while it stays so: a key above the last entry is staged
   with no slot, and the first other key builds the table. Each step is
   one command, checked after it against a Hashtbl model (codes, [get],
   [find_in] for every key named so far), and then may drop the table as
   a load's finish does, so the next command starts from the plane and
   its ascending flag alone. Keys are relative to the largest one named
   so far ([hi]), so runs go past the last entry. *)
type asc_op =
  | Run of int * int * int * bool
      (* [n] keys from [gap] above [hi], [step] apart; through [intern]
         or through reserve, probe and commit *)
  | Equal of int  (* an entry's own key, the [i]-th modulo the length *)
  | Smaller of int * bool  (* [k] at or below the last entry; committed or abandoned *)
  | Abandon of int  (* [gap] above [hi], probed and never committed *)
  | Renumber of float * bool list * bool  (* as [Reclaim] above *)
  | Select of bool list * bool  (* keep the entries flagged, in order or reversed *)
  | Widen of Value.t  (* intern a value of another constructor *)

let gen_asc_ops =
  QCheck.Gen.(
    let flags = list_size (int_range 0 30) (frequency [ (2, return true); (1, return false) ]) in
    let op =
      frequency
        [
          ( 6,
            map3
              (fun (n, gap) step via -> Run (n, gap, step, via))
              (pair (int_range 1 12) (int_range 1 3))
              (int_range 1 3) bool );
          (2, map (fun i -> Equal i) small_nat);
          (2, map2 (fun k c -> Smaller (k, c)) (int_range 0 4) bool);
          (1, map (fun g -> Abandon g) (int_range 1 3));
          (1, map3 (fun f drop rev -> Renumber (f, drop, rev)) (float_bound_exclusive 1.) flags bool);
          (1, map2 (fun keep rev -> Select (keep, rev)) flags bool);
          (1, map (fun v -> Widen v) (oneofl [ Value.String "w"; Value.Float 0.5; Value.Float 1.0 ]));
        ]
    in
    pair (int_range (-50) 50) (list_size (int_range 1 40) (pair op bool)))

let print_asc_op = function
  | Run (n, gap, step, via) ->
      Printf.sprintf "run of %d from hi+%d step %d%s" n gap step (if via then " (intern)" else "")
  | Equal i -> Printf.sprintf "equal #%d" i
  | Smaller (k, c) -> Printf.sprintf "last-%d%s" k (if c then "" else ", abandoned")
  | Abandon g -> Printf.sprintf "abandon hi+%d" g
  | Renumber (f, drop, rev) -> print_dict_op (Reclaim (f, drop, rev))
  | Select (keep, rev) ->
      Printf.sprintf "select [%s]%s"
        (String.concat ";" (List.map string_of_bool keep))
        (if rev then ", reversed" else "")
  | Widen v -> "widen with " ^ Value.to_string v

let print_asc (base, steps) =
  Printf.sprintf "base %d\n%s" base
    (String.concat "\n"
       (List.map (fun (op, drop) -> print_asc_op op ^ if drop then ", drop the table" else "") steps))

let run_asc (base, steps) =
  let d = ref (Dict.create ()) in
  (* the model: value -> code, and code -> value *)
  let model : (Value.t, int) Hashtbl.t = Hashtbl.create 16 and keys = ref [| Value.Null |] in
  let hi = ref base in
  (* every key named so far, with its code in a source [find_in] reads:
     Int keys in one on the Ints plane, the others in one on the boxed
     plane *)
  let ints = Dict.create () and others = Dict.create () in
  let named : (Value.t, Dict.t * int) Hashtbl.t = Hashtbl.create 16 in
  let name v =
    let src = match v with Value.Int _ -> ints | _ -> others in
    if not (Hashtbl.mem named v) then Hashtbl.add named v (src, Dict.intern src v);
    match v with Value.Int k -> hi := max !hi k | _ -> ()
  in
  let expected v = Option.value ~default:(-1) (Hashtbl.find_opt model v) in
  let add step v c =
    if c <> Array.length !keys then
      QCheck.Test.fail_reportf "step %d: %s took code %d, next code %d" step (Value.to_string v) c
        (Array.length !keys);
    Hashtbl.add model v c;
    keys := Array.append !keys [| v |]
  in
  (* reserve, probe, and commit a miss when [commit] *)
  let probe step v ~commit =
    name v;
    Dict.reserve !d;
    let c = match v with Value.Int k -> Dict.probe_int !d k | _ -> Dict.probe_value !d v in
    if c <> expected v then
      QCheck.Test.fail_reportf "step %d: probe %s gave %d, model %d" step (Value.to_string v) c (expected v);
    if c < 0 && commit then add step v (Dict.commit !d)
  in
  let intern step v =
    name v;
    let c = Dict.intern !d v and e = expected v in
    if e >= 0 && c <> e then
      QCheck.Test.fail_reportf "step %d: intern %s gave %d, model %d" step (Value.to_string v) c e;
    if e < 0 then add step v c
  in
  let last () = match !keys.(Array.length !keys - 1) with Value.Int k -> k | _ -> !hi in
  let check step =
    check_model step !d !keys (Hashtbl.fold (fun v (src, sc) acc -> (src, sc, expected v) :: acc) named [])
  in
  List.iteri
    (fun step (op, drop) ->
      (match op with
      | Run (n, gap, stride, via) ->
          let from = !hi + gap in
          for i = 0 to n - 1 do
            let v = Value.Int (from + (i * stride)) in
            if via then intern step v else probe step v ~commit:true
          done
      | Equal i ->
          let len = Array.length !keys in
          if len > 1 then probe step !keys.(1 + (i mod (len - 1))) ~commit:true
      | Smaller (k, commit) -> probe step (Value.Int (last () - k)) ~commit
      | Abandon gap -> probe step (Value.Int (!hi + gap)) ~commit:false
      | Renumber (f, drop, rev) -> reclaim_model !d model keys (f, drop, rev)
      | Select (keep, rev) ->
          let kept =
            List.filter
              (fun c -> List.nth_opt keep (c - 1) <> Some false)
              (List.init (Array.length !keys - 1) succ)
          in
          let order = Array.of_list (0 :: (if rev then List.rev kept else kept)) in
          d := Dict.select !d order (Array.length order);
          keys := Array.map (fun c -> !keys.(c)) order;
          Hashtbl.reset model;
          Array.iteri (fun c v -> if c > 0 then Hashtbl.add model v c) !keys
      | Widen v -> intern step v);
      check step;
      if drop then Dict.trim !d)
    steps;
  true

let test_ascending =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"ascending plane = Hashtbl model"
       (QCheck.make ~print:print_asc gen_asc_ops)
       run_asc)

(* -- the dense plane ----------------------------------------------------- *)

(* An Int dictionary of consecutive keys is dense: entry [c] is
   [base + c - 1], with no array and no table, until a write breaks the
   run (a gap above, a key at or below the last entry, a reclaim, a
   widening) and builds the array once. Runs start from random bases,
   among them negative ones and [max_int - k], so a run may wrap to
   [min_int], which must break the run and not extend it. After every
   step the dictionary is checked against a Hashtbl model and against a
   twin that holds the same entries in a plane array: length, [get],
   [find_in] both ways, and [digest]. While the model says the run is
   unbroken the dictionary keeps no words, and its reads build none. *)
type dense_op =
  | Extend of int * bool  (* [n] keys, each one above the last entry; through [intern] or not *)
  | Gap of int * bool  (* [g] above the last entry; committed or abandoned *)
  | Smaller of int * bool  (* [k] at or below the last entry, at times below the first *)
  | Push of bool * int * int
      (* [push_from] a source of four keys from [off] above the last
         entry, dense or not, of its entry [i] when it is new *)
  | Cut of float * bool list * bool  (* as [Reclaim] above *)
  | Pick of bool list * bool  (* as [Select] above *)
  | Box of Value.t  (* intern a value of another constructor *)
  | Trim

let gen_dense =
  QCheck.Gen.(
    let flags = list_size (int_range 0 30) (frequency [ (2, return true); (1, return false) ]) in
    let base =
      frequency
        [
          (3, int_range (-50) 50);
          (2, map (fun k -> max_int - k) (int_range 0 6));
          (1, map (fun k -> min_int + k) (int_range 0 6));
          (1, int);
        ]
    in
    let op =
      frequency
        [
          (8, map2 (fun n via -> Extend (n, via)) (int_range 1 12) bool);
          (2, map2 (fun g c -> Gap (g, c)) (int_range 2 4) bool);
          (2, map2 (fun k c -> Smaller (k, c)) (int_range 0 15) bool);
          (2, map3 (fun dense off i -> Push (dense, off, i)) bool (int_range (-3) 3) (int_range 1 4));
          (1, map3 (fun f drop rev -> Cut (f, drop, rev)) (float_bound_exclusive 1.) flags bool);
          (1, map2 (fun keep rev -> Pick (keep, rev)) flags bool);
          (1, map (fun v -> Box v) (oneofl [ Value.Float 0.5; Value.Float 1.0; Value.Bool false ]));
          (1, return Trim);
        ]
    in
    pair base (list_size (int_range 1 30) op))

let print_dense_op = function
  | Extend (n, via) -> Printf.sprintf "extend by %d%s" n (if via then " (intern)" else "")
  | Gap (g, c) -> Printf.sprintf "last+%d%s" g (if c then "" else ", abandoned")
  | Smaller (k, c) -> Printf.sprintf "last-%d%s" k (if c then "" else ", abandoned")
  | Push (dense, off, i) ->
      Printf.sprintf "push entry %d of a %s source from last%+d" i (if dense then "dense" else "gapped") off
  | Cut (f, drop, rev) -> print_dict_op (Reclaim (f, drop, rev))
  | Pick (keep, rev) -> print_asc_op (Select (keep, rev))
  | Box v -> "widen with " ^ Value.to_string v
  | Trim -> "trim"

let print_dense (base, ops) =
  Printf.sprintf "base %d\n%s" base (String.concat "\n" (List.map print_dense_op ops))

(* [keys] (code -> value, NULL first) in a dictionary that keeps a plane
   array: interned in reverse, so no run of two is ever dense, and
   selected back into code order; [boxed] puts them on the boxed plane
   through an entry the selection leaves out *)
let twin ~boxed keys =
  let n = Array.length keys and r = Dict.create () in
  let first = if boxed then (ignore (Dict.intern r (Value.Bool true)); 1) else 0 in
  for c = n - 1 downto 1 do
    ignore (Dict.intern r keys.(c))
  done;
  Dict.select r (Array.init n (fun c -> if c = 0 then 0 else first + n - c)) n

let run_dense (base, ops) =
  let d = ref (Dict.create ()) in
  let model : (Value.t, int) Hashtbl.t = Hashtbl.create 16 and keys = ref [| Value.Null |] in
  (* the last Int key taken, for a dictionary whose last entry is not one *)
  let cur = ref (base - 1) and boxed = ref false and dense = ref true in
  let ints = Dict.create () and others = Dict.create () in
  let named : (Value.t, Dict.t * int) Hashtbl.t = Hashtbl.create 16 in
  let name v =
    let src = match v with Value.Int _ -> ints | _ -> others in
    if not (Hashtbl.mem named v) then Hashtbl.add named v (src, Dict.intern src v)
  in
  let expected v = Option.value ~default:(-1) (Hashtbl.find_opt model v) in
  let last () = match !keys.(Array.length !keys - 1) with Value.Int k -> k | _ -> !cur in
  (* [v] took code [c]: a key that is not one above the last entry
     breaks the run, as does anything on the boxed plane *)
  let add step v c =
    if c <> Array.length !keys then
      QCheck.Test.fail_reportf "step %d: %s took code %d, next code %d" step (Value.to_string v) c
        (Array.length !keys);
    (match v with
    | Value.Int k ->
        if Array.length !keys > 1 && not (k > last () && k - 1 = last ()) then dense := false;
        cur := k
    | _ -> dense := false);
    Hashtbl.add model v c;
    keys := Array.append !keys [| v |]
  in
  let probe step k ~commit ~via =
    let v = Value.Int k in
    name v;
    let e = expected v in
    let c =
      if via then Dict.intern !d v
      else begin
        Dict.reserve !d;
        Dict.probe_int !d k
      end
    in
    if via && e < 0 then add step v c
    else begin
      if c <> e then QCheck.Test.fail_reportf "step %d: probe %d gave %d, model %d" step k c e;
      (* a staged miss writes its entry, so one that breaks the run
         breaks it even abandoned *)
      if c < 0 && Array.length !keys > 1 && not (k > last () && k - 1 = last ()) then dense := false;
      if c < 0 && commit then add step v (Dict.commit !d)
    end
  in
  let check step =
    let words = Dict.heap_words !d in
    if !dense && words <> 0 then QCheck.Test.fail_reportf "step %d: a dense run keeps %d words" step words;
    let t = twin ~boxed:!boxed !keys in
    check_model step !d !keys (Hashtbl.fold (fun v (src, sc) acc -> (src, sc, expected v) :: acc) named []);
    check_model step t !keys [];
    for c = 1 to Dict.length !d - 1 do
      if Dict.find_in t !d c <> c || Dict.find_in !d t c <> c then
        QCheck.Test.fail_reportf "step %d: code %d found elsewhere in its twin" step c
    done;
    if Dict.to_strings !d <> Dict.to_strings t then QCheck.Test.fail_reportf "step %d: to_strings" step;
    if Dict.digest !d <> Dict.digest t then QCheck.Test.fail_reportf "step %d: digest" step;
    if words = 0 && Dict.heap_words !d <> 0 then
      QCheck.Test.fail_reportf "step %d: reads built %d words" step (Dict.heap_words !d)
  in
  List.iteri
    (fun step op ->
      (match op with
      | Extend (n, via) ->
          for _ = 1 to n do
            probe step (last () + 1) ~commit:true ~via
          done
      | Gap (g, commit) -> probe step (last () + g) ~commit ~via:false
      | Smaller (k, commit) -> probe step (last () - k) ~commit ~via:false
      | Push (dense_src, off, i) ->
          let src = Dict.create () and from = last () + off in
          List.iter
            (fun j -> ignore (Dict.intern src (Value.Int (from + j))))
            (if dense_src then [ 0; 1; 2; 3 ] else [ 3; 0; 2; 1 ]);
          let v = Dict.get src i in
          if expected v < 0 then begin
            name v;
            add step v (Dict.push_from !d src i)
          end
      | Cut (f, drop, rev) ->
          reclaim_model !d model keys (f, drop, rev);
          dense := false
      | Pick (keep, rev) ->
          let kept =
            List.filter
              (fun c -> List.nth_opt keep (c - 1) <> Some false)
              (List.init (Array.length !keys - 1) succ)
          in
          let order = Array.of_list (0 :: (if rev then List.rev kept else kept)) in
          let words = Dict.heap_words !d in
          let e = Dict.select !d order (Array.length order) in
          if Dict.heap_words !d <> words then
            QCheck.Test.fail_reportf "step %d: select built its source's plane" step;
          d := e;
          keys := Array.map (fun c -> !keys.(c)) order;
          Hashtbl.reset model;
          Array.iteri (fun c v -> if c > 0 then Hashtbl.add model v c) !keys;
          (* a selection of no entry is a fresh dictionary, with no plane *)
          dense := Array.length order = 1;
          boxed := !boxed && not !dense
      | Box v ->
          name v;
          let c = Dict.intern !d v in
          boxed := true;
          if expected v < 0 then add step v c
      | Trim -> Dict.trim !d);
      check step)
    ops;
  true

let test_dense =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"dense plane = Hashtbl model"
       (QCheck.make ~print:print_dense gen_dense)
       run_dense)

(* an Int dictionary of [keys], interned in order *)
let int_dict keys =
  let d = Dict.create () in
  List.iter (fun k -> ignore (Dict.intern d (Value.Int k))) keys;
  d

(* A dense dictionary of 1..70000 answers in-range hits and misses
   below and above its range by arithmetic: no table, no plane, and
   [heap_words] stays 0. A gapped ascending one (1..30000 and
   131073..171072) answers misses outside its range with no table too,
   but builds its table on an in-range lookup: 131,073 words. *)
let test_out_of_range () =
  let d = int_dict (List.init 70_000 succ) in
  Alcotest.(check int) "a dense dictionary keeps no words" 0 (Dict.heap_words d);
  let probe = int_dict (List.init 10_000 (fun i -> 1 + (7 * i))) in
  let misses = int_dict (List.init 5_000 (fun i -> -i) @ List.init 5_000 (fun i -> 131_073 + i)) in
  for c = 1 to Dict.length probe - 1 do
    let got = Dict.find_in d probe c in
    if got <> 1 + (7 * (c - 1)) then Alcotest.failf "hit %d: code %d" (1 + (7 * (c - 1))) got
  done;
  for c = 1 to Dict.length misses - 1 do
    let got = Dict.find_in d misses c in
    if got <> -1 then Alcotest.failf "key %s: code %d" (Value.to_string (Dict.get misses c)) got
  done;
  Alcotest.(check int) "nor after 20k lookups" 0 (Dict.heap_words d);
  let g = int_dict (List.init 30_000 succ @ List.init 40_000 (fun i -> 131_073 + i)) in
  let outside = int_dict (List.init 5_000 (fun i -> -i) @ List.init 5_000 (fun i -> 171_073 + i)) in
  let words = Dict.heap_words g in
  for c = 1 to Dict.length outside - 1 do
    let got = Dict.find_in g outside c in
    if got <> -1 then Alcotest.failf "key %s: code %d" (Value.to_string (Dict.get outside c)) got
  done;
  Alcotest.(check int) "a gapped column, missed outside its range" words (Dict.heap_words g);
  Alcotest.(check int) "an in-range key" 5 (Dict.find_in g g 5);
  Alcotest.(check bool) "which builds its table" true (Dict.heap_words g > words + 131_072)

(* 10k [find_in] hits and 10k misses, half below and half above the
   range, against a dense 1..70000 and a dense run from -70000: each
   batch takes at most 10 ms (arithmetic, about 1 ms). *)
let test_dense_lookup_cost () =
  List.iter
    (fun lo ->
      let d = int_dict (List.init 70_000 (fun i -> lo + i)) in
      let hits = int_dict (List.init 10_000 (fun i -> lo + (7 * i))) in
      let misses = int_dict (List.init 5_000 (fun i -> lo - 1 - i) @ List.init 5_000 (fun i -> lo + 70_000 + i)) in
      List.iter
        (fun (what, src, expect) ->
          let t0 = Unix.gettimeofday () in
          let ok = ref true in
          for c = 1 to Dict.length src - 1 do
            if Dict.find_in d src c <> expect c then ok := false
          done;
          let ms = 1000. *. (Unix.gettimeofday () -. t0) in
          if not !ok then Alcotest.failf "from %d: a %s answered wrong" lo what;
          if ms > 10. then Alcotest.failf "from %d: 10k %s took %.2f ms, ceiling 10" lo what ms)
        [ ("hits", hits, fun c -> 1 + (7 * (c - 1))); ("misses", misses, fun _ -> -1) ])
    [ 1; -70_000 ]

(* -- dictionary memory ------------------------------------------------ *)

(* An Int column of the consecutive values 1, 2, 3 is dense: it keeps
   no plane and no table, 0 words. An Int column of 3 distinct values
   with a gap is a 4-word int array (code 0 included) with its header:
   5 words. A String column of "ab" and "cd" is a 4-byte arena (2 words
   with header and padding) and 4 offsets (5 words). An intern table of
   16 one-word slots adds 17 words. *)
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
  let dense_text = "i\n1\n2\n1\n\n3\n" and gapped_text = "i\n1\n3\n1\n\n4\n" in
  let str_text = "s\nab\ncd\n\nab\n" in
  Alcotest.(check int) "dense Int column" 0 (words ints dense_text ~probe:false);
  Alcotest.(check int) "dense Int column, prepared for probes" 0 (words ints dense_text ~probe:true);
  Alcotest.(check int) "gapped Int column" 5 (words ints gapped_text ~probe:false);
  Alcotest.(check int) "String column" 7 (words strs str_text ~probe:false);
  Alcotest.(check int) "gapped Int column and its intern table" 22 (words ints gapped_text ~probe:true);
  Alcotest.(check int) "String column and its intern table" 24 (words strs str_text ~probe:true)

(* Seed 42's two 6000-row entities and one 20k-row fact table (the
   analyze-spill benchmark shape, scaled down) allocate 7,345,915 bytes
   through [Csv.load] by [Gc.allocated_bytes]; the ceiling is that plus
   about 1%. The three id columns are consecutive, so they keep no plane
   and no intern table: an array plane for them reads 8,391,867 and
   crosses it, an intern table on top of that 9,049,725 to 9,185,539, as
   do two-word slots at most half full (13.9 MB) and one-word slots at
   most half full (10.8 MB). Sizes are picked so most other intern
   tables end between half and three-quarters full. The load runs on
   this domain alone. The counter moves with where minor collections
   fall (by up to 10% here), so the major cycle is closed first, which
   also empties the minor heap. What earlier tests leave in the heap
   moves the reading too (by 118,846 bytes after the random properties
   below), so the test is a suite of its own that runs first
   ([alloc_suite]): one value, whatever runs. *)
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
  if bytes > 7_420_000. then Alcotest.failf "the load allocated %.0f bytes, ceiling 7,420,000" bytes

let suite =
  [
    test_sequences;
    test_collisions;
    test_ascending;
    test_dense;
    Alcotest.test_case "out-of-range misses build no table" `Quick test_out_of_range;
    Alcotest.test_case "dense lookups cost no table" `Quick test_dense_lookup_cost;
    Alcotest.test_case "dict_words of known columns" `Quick test_dict_words;
  ]

let alloc_suite =
  [ Alcotest.test_case "load allocation ceiling" `Quick test_load_allocation ]
