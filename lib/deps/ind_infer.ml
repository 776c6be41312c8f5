open Relational

type stats = {
  pairs_considered : int;
  pairs_tested : int;
  inds_found : int;
}

let all_attrs db =
  List.concat_map
    (fun r ->
      List.map (fun a -> (r.Relation.name, a, Relation.domain_of r a))
        r.Relation.attrs)
    (Schema.relations (Database.schema db))

let store db rel = Table.store (Database.table db rel)

(* effective domain: declared domain, or inferred from data when
   Unknown — the lub over the column's dictionary, which holds each
   live value once (lub is a semilattice join, so order and
   multiplicity do not matter) *)
let effective_domain db (rel, a, declared) =
  match declared with
  | Domain.Unknown -> Column_store.column_domain (Column_store.column (store db rel) a)
  | d -> d

let discover_unary db =
  let attrs = all_attrs db in
  let sides =
    List.map
      (fun ((rel, a, _) as t) ->
        let s = store db rel in
        ((rel, a, effective_domain db t), s, Column_store.count_distinct s [ a ]))
      attrs
  in
  let n = List.length attrs in
  let considered = n * (n - 1) in
  let tested = ref 0 in
  let found = ref [] in
  (* [r1.a1] is included in [r2.a2] when every code of its dictionary
     translates into [r2.a2]'s *)
  List.iter
    (fun ((r1, a1, d1), s1, n1) ->
      List.iter
        (fun ((r2, a2, d2), s2, n2) ->
          if (r1, a1) <> (r2, a2) && Domain.compatible d1 d2 then begin
            incr tested;
            if
              n1 > 0 && n1 <= n2
              && Column_store.unary_included s1 a1 s2 a2
            then found := Ind.make (r1, [ a1 ]) (r2, [ a2 ]) :: !found
          end)
        sides)
    sides;
  let inds = List.rev !found in
  (inds, { pairs_considered = considered; pairs_tested = !tested;
           inds_found = List.length inds })
