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
