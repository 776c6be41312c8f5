(* Shared test utilities. *)

open Relational

let vi i = Value.Int i
let vs s = Value.String s
let vnull = Value.Null

(* build a table from attribute names and rows of values *)
let table ?uniques ?not_nulls name attrs rows =
  let rel = Relation.make ?uniques ?not_nulls name attrs in
  let t = Table.create rel in
  List.iter (Table.insert t) rows;
  t

(* a cold column store over [t]'s rows: the memoized store of a copy *)
let cold_store t =
  let copy = Table.create (Table.schema t) in
  Table.insert_many copy (Table.to_lists t);
  Table.store copy

(* a fresh, not yet created spill directory under the temp dir, and its
   removal (spill directories are flat) *)
let spill_dir_counter = ref 0

let fresh_spill_dir () =
  incr spill_dir_counter;
  Filename.concat
    (Filename.get_temp_dir_name ())
    (Printf.sprintf "dbre-ooc-test-%d-%d" (Unix.getpid ()) !spill_dir_counter)

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
      (Sys.readdir dir);
    try Unix.rmdir dir with Unix.Unix_error _ -> ()
  end

(* build a database from (relation, rows) pairs *)
let database rels_rows =
  let schema = Schema.of_relations (List.map fst rels_rows) in
  let db = Database.create schema in
  List.iter
    (fun (rel, rows) ->
      List.iter (Database.insert db rel.Relation.name) rows)
    rels_rows;
  db

let fd = Deps.Fd.make
let ind l r = Deps.Ind.make l r

(* Alcotest testables *)
let value = Alcotest.testable Value.pp Value.equal
let relation = Alcotest.testable Relation.pp Relation.equal
let attr = Alcotest.testable Attribute.pp Attribute.equal

let fd_t = Alcotest.testable Deps.Fd.pp Deps.Fd.equal
let ind_t = Alcotest.testable Deps.Ind.pp Deps.Ind.equal
let equijoin_t = Alcotest.testable Sqlx.Equijoin.pp Sqlx.Equijoin.equal

let names =
  Alcotest.testable Attribute.Names.pp Attribute.Names.equal

let sorted_strings l = List.sort String.compare l

let check_sorted_inds msg expected actual =
  Alcotest.(check (list ind_t))
    msg
    (List.sort Deps.Ind.compare expected)
    (List.sort Deps.Ind.compare actual)

let check_sorted_fds msg expected actual =
  Alcotest.(check (list fd_t))
    msg
    (List.sort Deps.Fd.compare expected)
    (List.sort Deps.Fd.compare actual)

(* IND-Discovery against the row-at-a-time reference: every step's §6.1
   triple is [Reference.Counts.ind_counts] over [db], and its case is the
   one those counts select *)
let check_ind_steps_reference msg db (r : Dbre.Ind_discovery.result) =
  List.iter
    (fun (s : Dbre.Ind_discovery.step) ->
      let j = s.Dbre.Ind_discovery.join in
      let c =
        Reference.Counts.ind_counts db
          (j.Sqlx.Equijoin.rel1, j.Sqlx.Equijoin.attrs1)
          (j.Sqlx.Equijoin.rel2, j.Sqlx.Equijoin.attrs2)
      in
      let case (n_left, n_right, n_join) =
        if n_join = 0 then "empty"
        else if n_join = n_left || n_join = n_right then "included"
        else "nei"
      in
      let got = s.Dbre.Ind_discovery.counts in
      let got_case =
        match s.Dbre.Ind_discovery.case with
        | Dbre.Ind_discovery.Empty_intersection -> "empty"
        | Dbre.Ind_discovery.Included _ -> "included"
        | Dbre.Ind_discovery.Nei _ -> "nei"
      in
      let expected = (c.Verify_plan.n_left, c.n_right, c.n_join) in
      Alcotest.(check (pair (triple int int int) string))
        (Printf.sprintf "%s: %s" msg (Sqlx.Equijoin.to_string j))
        (expected, case expected)
        ((got.Deps.Ind.n_left, got.n_right, got.n_join), got_case))
    r.Dbre.Ind_discovery.steps

(* RHS-Discovery against the row-at-a-time reference, for oracles that
   neither enforce nor reject FDs: a step elicits exactly the pruned
   candidates [Reference.Fd_infer.holds_naive] says hold over [db], and
   elicits nothing when none does *)
let check_rhs_steps_reference msg db (r : Dbre.Rhs_discovery.result) =
  List.iter
    (fun (s : Dbre.Rhs_discovery.step) ->
      let a = s.Dbre.Rhs_discovery.candidate in
      let rel = a.Attribute.rel and lhs = a.Attribute.attrs in
      let holding =
        List.filter
          (fun b ->
            Reference.Fd_infer.holds_naive (Database.table db rel)
              (Deps.Fd.make rel lhs [ b ]))
          s.Dbre.Rhs_discovery.pruned_rhs
      in
      let label = Printf.sprintf "%s: %s" msg (Attribute.to_string a) in
      match s.Dbre.Rhs_discovery.outcome with
      | Dbre.Rhs_discovery.Fd_elicited f when holding <> [] ->
          Alcotest.check fd_t label (Deps.Fd.make rel lhs holding) f
      | Dbre.Rhs_discovery.Fd_elicited f ->
          Alcotest.failf "%s: elicited %s, reference holds none" label
            (Deps.Fd.to_string f)
      | _ -> Alcotest.(check (list string)) label [] holding)
    r.Dbre.Rhs_discovery.steps

(* rows of [t] NULL-free on every one of [attrs] *)
let reference_witnesses t attrs =
  let idx = Table.positions t attrs in
  Array.fold_left
    (fun n tup -> if Tuple.has_null_at idx tup then n else n + 1)
    0 (Table.rows t)

(* value lists compared by [compare], the equality interning uses
   ([Value.equal] would call [Int 1] and [Float 1.0] equal) *)
let value_rows =
  Alcotest.testable
    (Fmt.Dump.list (Fmt.Dump.list Value.pp))
    (fun a b -> compare a b = 0)

(* The memoized stores of [t1] and [t2] against [Reference.Counts]:
   each side's distinct count and witnesses, the join count both ways
   round, and the common projections. *)
let check_join_counts msg (t1, a1) (t2, a2) =
  let s1 = Table.store t1 and s2 = Table.store t2 in
  let side name t a s =
    Alcotest.(check int)
      (Printf.sprintf "%s: ||%s||" msg name)
      (Reference.Counts.count_distinct t a)
      (Column_store.count_distinct s a);
    Alcotest.(check int)
      (Printf.sprintf "%s: %s witnesses" msg name)
      (reference_witnesses t a)
      (Column_store.witness_count s a)
  in
  side "left" t1 a1 s1;
  side "right" t2 a2 s2;
  let want = Reference.Counts.equijoin_distinct_count t1 a1 t2 a2 in
  Alcotest.(check int) (msg ^ ": join") want
    (Column_store.equijoin_distinct_count s1 a1 s2 a2);
  Alcotest.(check int) (msg ^ ": join, sides swapped") want
    (Column_store.equijoin_distinct_count s2 a2 s1 a1);
  let right = Reference.Counts.distinct_table t2 a2 in
  Alcotest.check value_rows (msg ^ ": common values")
    (List.sort compare
       (List.filter (Hashtbl.mem right) (Reference.Counts.project_distinct t1 a1)))
    (List.sort compare (Column_store.common_values s1 a1 s2 a2))

(* the result of a run the test needs whole: a stage failure fails it *)
let ok = function
  | Ok r -> r
  | Error (p : Dbre.Pipeline.partial) ->
      Alcotest.failf "run failed: %s" (Error.to_string p.Dbre.Pipeline.p_error)

let run_ok ?config ?checkpoint_dir ?resume_from db input =
  ok (Dbre.Pipeline.run_checked ?config ?checkpoint_dir ?resume_from db input)

(* the §5 reproduction (E1-F1) *)
let paper () = ok (Dbre.Job.run (Workload.Paper_example.spec ()))

(* replay [result]'s migration script from [original] on [fresh], a
   second copy of the run's input, through the reference SQL
   interpreter: true when every relation of Restruct's database comes
   out with the same attribute list and the same bag of rows *)
let migration_replays ~original result fresh =
  Reference.Exec.exec_script fresh (Dbre.Migration.script ~original result);
  let expected =
    Option.get result.Dbre.Pipeline.restruct_result.Dbre.Restruct.database
  in
  List.for_all
    (fun rel ->
      let name = rel.Relation.name in
      let sort t = List.sort compare (Table.to_lists t) in
      match Database.table_opt fresh name with
      | None -> false
      | Some t ->
          (Table.schema t).Relation.attrs = rel.Relation.attrs
          && sort t = sort (Database.table expected name))
    (Schema.relations (Database.schema expected))

(* substring check for error-message assertions *)
let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let check_contains name ~sub s =
  if not (contains ~sub s) then
    Alcotest.failf "%s: expected %S within %S" name sub s

(* run [f], expecting a typed error with [code]; returns the error record
   so callers can inspect stage/relation/attribute/message *)
let expect_error name code f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Error.Error" name
  | exception Error.Error e ->
      Alcotest.(check string)
        (name ^ ": code")
        (Error.code_to_string code)
        (Error.code_to_string e.Error.code);
      e

(* [text] damaged one to three times: a bit flipped, the text cut short,
   one of [tokens] inserted, or a slice of the text spliced in
   elsewhere: what the totality properties of the decoders feed them *)
let gen_mutated ~tokens text =
  QCheck.Gen.(
    let once s =
      let n = String.length s in
      let* at = int_range 0 n in
      let* at' = int_range 0 n in
      let* bit = int_range 0 7 in
      let* tok = oneofl tokens in
      let lo = min at at' and hi = max at at' in
      oneofl
        [
          String.mapi (fun i c -> if i = at then Char.chr (Char.code c lxor (1 lsl bit)) else c) s;
          String.sub s 0 at;
          String.sub s 0 at ^ tok ^ String.sub s at (n - at);
          String.sub s 0 at ^ String.sub s lo (hi - lo) ^ String.sub s at (n - at);
        ]
    in
    let rec go k s = if k = 0 then return s else once s >>= go (k - 1) in
    int_range 1 3 >>= fun k -> go k text)
