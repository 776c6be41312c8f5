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

let store db rel = Column_store.of_table (Database.table db rel)

(* effective domain: declared domain, or inferred from data when
   Unknown — the lub over the column's dictionary, which holds each
   live value once (lub is a semilattice join, so order and
   multiplicity do not matter) *)
let effective_domain db (rel, a, declared) =
  match declared with
  | Domain.Unknown ->
      Array.fold_left
        (fun acc v -> Domain.lub acc (Domain.of_value v))
        Domain.Unknown
        (Column_store.column_dict (Column_store.column (store db rel) a))
  | d -> d

let discover_unary db =
  let attrs = all_attrs db in
  let enriched =
    List.map (fun ((rel, a, _) as t) -> (rel, a, effective_domain db t)) attrs
  in
  let value_sets =
    List.map
      (fun (rel, a, d) ->
        ((rel, a, d), Column_store.distinct_set (store db rel) [ a ]))
      enriched
  in
  let n = List.length attrs in
  let considered = n * (n - 1) in
  let tested = ref 0 in
  let found = ref [] in
  List.iter
    (fun ((r1, a1, d1), set1) ->
      List.iter
        (fun ((r2, a2, d2), set2) ->
          if (r1, a1) <> (r2, a2) && Domain.compatible d1 d2 then begin
            incr tested;
            if Hashtbl.length set1 <= Hashtbl.length set2 then begin
              let included =
                try
                  Hashtbl.iter
                    (fun k () -> if not (Hashtbl.mem set2 k) then raise Exit)
                    set1;
                  true
                with Exit -> false
              in
              if included && Hashtbl.length set1 > 0 then
                found := Ind.make (r1, [ a1 ]) (r2, [ a2 ]) :: !found
            end
          end)
        value_sets)
    value_sets;
  let inds = List.rev !found in
  (inds, { pairs_considered = considered; pairs_tested = !tested;
           inds_found = List.length inds })
