open Relational
open Deps

type result = {
  schema : Schema.t;
  inds : Ind.t list;
  ric : Ind.t list;
  renamings : (Attribute.t * string) list;
  database : Database.t option;
}

let fresh_name schema base =
  let rec go i =
    let candidate = if i = 0 then base else Printf.sprintf "%s_%d" base i in
    if Schema.mem schema candidate then go (i + 1) else candidate
  in
  go 0

(* rewrite one IND side: occurrences of rel[attrs ⊆ moved] become
   new_rel[attrs]; [exact] additionally requires set equality with the
   moved attributes (the H case rewrites only R_i[A_i] itself) *)
let rewrite_side ~rel ~moved ~new_rel ~exact (side_rel, side_attrs) =
  if
    String.equal side_rel rel
    &&
    let canon = Attribute.Names.normalize side_attrs in
    if exact then Attribute.Names.equal canon moved
    else Attribute.Names.subset canon moved
  then (new_rel, side_attrs)
  else (side_rel, side_attrs)

let rewrite_inds ~rel ~moved ~new_rel ~exact inds =
  List.map
    (fun (ind : Ind.t) ->
      let lhs =
        rewrite_side ~rel ~moved ~new_rel ~exact
          (ind.Ind.lhs_rel, ind.Ind.lhs_attrs)
      in
      let rhs =
        rewrite_side ~rel ~moved ~new_rel ~exact
          (ind.Ind.rhs_rel, ind.Ind.rhs_attrs)
      in
      Ind.make lhs rhs)
    inds

(* [rel]'s extension projected from the input table [src], when there
   is one: the code columns move through the store, never as rows *)
let extension_of ?distinct src rel =
  match src with
  | Some t -> Table.of_store rel (Column_store.project ?distinct (Table.store t) rel)
  | None -> Table.create rel

let run (oracle : Oracle.t) ?db ~schema ~fds ~hidden ~inds () =
  let schema = ref schema in
  let inds = ref inds in
  let renamings = ref [] in
  let out_db = Option.map Database.copy_structure db in
  let source rel = Option.bind db (fun d -> Database.table_opt d rel) in
  (* a new relation: distinct projection of its source, NULL-free on
     the identifier [non_null] (a null identifier denotes "no object") *)
  let add_relation rel ~src ~non_null =
    schema := Schema.add !schema rel;
    Option.iter
      (fun d ->
        Database.replace_table d
          (extension_of ~distinct:non_null (source src) rel))
      out_db
  in
  (* ---- hidden objects ---- *)
  List.iter
    (fun (h : Attribute.t) ->
      let src_rel = h.Attribute.rel and attrs = h.Attribute.attrs in
      let name = fresh_name !schema (oracle.Oracle.name_hidden h) in
      let domains =
        match Schema.find !schema src_rel with
        | Some source ->
            List.filter_map
              (fun a ->
                if Relation.has_attr source a then
                  Some (a, Relation.domain_of source a)
                else None)
              attrs
        | None -> []
      in
      let rel = Relation.make ~domains ~uniques:[ attrs ] name attrs in
      add_relation rel ~src:src_rel ~non_null:attrs;
      renamings := (h, name) :: !renamings;
      let moved = Attribute.Names.normalize attrs in
      inds := rewrite_inds ~rel:src_rel ~moved ~new_rel:name ~exact:true !inds;
      inds := !inds @ [ Ind.make (src_rel, attrs) (name, attrs) ])
    hidden;
  (* ---- FD splits ---- *)
  List.iter
    (fun (fd : Fd.t) ->
      match Schema.find !schema fd.Fd.rel with
      | None -> ()
      | Some source
        when List.for_all (Relation.has_attr source) fd.Fd.lhs
             && List.exists (Relation.has_attr source) fd.Fd.rhs ->
          (* an earlier split may have moved part of this FD's RHS out of
             the source relation: restrict to what is still there *)
          let fd =
            Fd.make fd.Fd.rel fd.Fd.lhs
              (List.filter (Relation.has_attr source) fd.Fd.rhs)
          in
          let name = fresh_name !schema (oracle.Oracle.name_fd_relation fd) in
          (* keep the source's declared attribute order: A_i then B_i *)
          let ordered =
            List.filter
              (fun a ->
                Attribute.Names.mem a fd.Fd.lhs
                || Attribute.Names.mem a fd.Fd.rhs)
              source.Relation.attrs
          in
          let domains =
            List.map (fun a -> (a, Relation.domain_of source a)) ordered
          in
          let rel =
            Relation.make ~domains ~uniques:[ fd.Fd.lhs ]
              ~not_nulls:
                (List.filter
                   (fun a -> Attribute.Names.mem a source.Relation.not_nulls)
                   ordered)
              name ordered
          in
          add_relation rel ~src:fd.Fd.rel ~non_null:fd.Fd.lhs;
          renamings := (Attribute.make fd.Fd.rel fd.Fd.lhs, name) :: !renamings;
          (* shrink the source relation; its extension moves once, after
             every split (see below) *)
          let shrunk = Relation.remove_attrs source fd.Fd.rhs in
          schema := Schema.replace !schema shrunk;
          Option.iter
            (fun d -> Database.replace_table d (Table.create shrunk))
            out_db;
          (* rewrite INDs: A_i occurrences exactly, B_i subsets *)
          inds :=
            rewrite_inds ~rel:fd.Fd.rel ~moved:fd.Fd.lhs ~new_rel:name
              ~exact:true !inds;
          inds :=
            rewrite_inds ~rel:fd.Fd.rel ~moved:fd.Fd.rhs ~new_rel:name
              ~exact:false !inds;
          inds := !inds @ [ Ind.make (fd.Fd.rel, fd.Fd.lhs) (name, fd.Fd.lhs) ]
      | Some _ -> () (* LHS gone or RHS fully moved: nothing left to split *))
    fds;
  (* every input relation, shrunk or not, moves once: a plain projection
     onto its final attributes (the identity when nothing was split) *)
  (match (db, out_db) with
  | Some src, Some dst ->
      List.iter
        (fun r ->
          let name = r.Relation.name in
          Database.replace_table dst
            (extension_of (source name)
               (Table.schema (Database.table dst name))))
        (Schema.relations (Database.schema src))
  | _ -> ());
  let final_schema = !schema in
  let nontrivial (ind : Ind.t) =
    not
      (String.equal ind.Ind.lhs_rel ind.Ind.rhs_rel
      && ind.Ind.lhs_attrs = ind.Ind.rhs_attrs)
  in
  let ric =
    List.filter
      (fun ind -> nontrivial ind && Ind.key_based final_schema ind)
      !inds
  in
  {
    schema = final_schema;
    inds = !inds;
    ric;
    renamings = List.rev !renamings;
    database = out_db;
  }
