open Relational
open Deps

type result = {
  eer : Er.Eer.t;
  entity_of_relation : (string * string) list;
}

(* classification of one RIC relative to its left relation's keys *)
type ric_kind = Isa | Key_part | Non_key

let classify schema (ind : Ind.t) =
  match Schema.find schema ind.Ind.lhs_rel with
  | None -> None
  | Some rel ->
      let a_l = Attribute.Names.normalize ind.Ind.lhs_attrs in
      if Relation.is_key rel a_l then Some Isa
      else
        let keys = rel.Relation.uniques in
        let part_of_key =
          List.exists (fun k -> Attribute.Names.subset a_l k) keys
        in
        if part_of_key then Some Key_part else Some Non_key

(* Many when the (non-NULL) projection of the left relation on the
   realizing attributes has duplicates: the referenced entity then
   participates in several relationship instances *)
let participation db rel attrs =
  match Option.bind db (fun d -> Database.table_opt d rel) with
  | None -> None
  | Some t when List.for_all (Relation.has_attr (Table.schema t)) attrs ->
      let s = Table.store t in
      let witnesses = Column_store.witness_count s attrs in
      Some
        (if Column_store.count_distinct s attrs < witnesses then Er.Eer.Many
         else Er.Eer.One)
  | Some _ -> None

let run ?db ~schema ric =
  (* bucket the key-part RICs by left relation *)
  let key_part_rics : (string, Ind.t list ref) Hashtbl.t = Hashtbl.create 16 in
  let isa_rics = ref [] and non_key_rics = ref [] in
  List.iter
    (fun (ind : Ind.t) ->
      match classify schema ind with
      | Some Isa -> isa_rics := ind :: !isa_rics
      | Some Key_part -> (
          match Hashtbl.find_opt key_part_rics ind.Ind.lhs_rel with
          | Some cell -> cell := ind :: !cell
          | None -> Hashtbl.add key_part_rics ind.Ind.lhs_rel (ref [ ind ]))
      | Some Non_key -> non_key_rics := ind :: !non_key_rics
      | None -> ())
    ric;
  let isa_rics = List.rev !isa_rics and non_key_rics = List.rev !non_key_rics in
  (* decide, per relation with key-part RICs, m:n relationship vs weak *)
  let relationship_relations = ref [] and weak_owners = ref [] in
  Hashtbl.iter
    (fun rel_name cell ->
      match Schema.find schema rel_name with
      | None -> ()
      | Some rel ->
          let rics = List.rev !cell in
          let key =
            match rel.Relation.uniques with
            | k :: _ -> k
            | [] -> Relation.key_attrs rel
          in
          let covered =
            List.fold_left
              (fun acc (ind : Ind.t) ->
                Attribute.Names.union acc
                  (Attribute.Names.normalize ind.Ind.lhs_attrs))
              [] rics
          in
          if Attribute.Names.subset key covered then
            relationship_relations := (rel_name, rics) :: !relationship_relations
          else
            (* weak entity: owned by the target of the first key-part RIC *)
            let owner = (List.hd rics).Ind.rhs_rel in
            weak_owners := (rel_name, owner) :: !weak_owners)
    key_part_rics;
  let is_relationship name = List.mem_assoc name !relationship_relations in
  (* binary-relationship attributes leave their entity *)
  let binary_attrs_of rel_name =
    List.concat_map
      (fun (ind : Ind.t) ->
        if String.equal ind.Ind.lhs_rel rel_name then ind.Ind.lhs_attrs else [])
      non_key_rics
  in
  (* ---- entities ---- *)
  let eer = ref Er.Eer.empty in
  let entity_of_relation = ref [] in
  List.iter
    (fun rel ->
      let name = rel.Relation.name in
      if not (is_relationship name) then begin
        let weak_of = List.assoc_opt name !weak_owners in
        let key =
          match rel.Relation.uniques with
          | k :: _ -> k
          | [] -> []
        in
        let borrowed =
          match weak_of with
          | None -> []
          | Some _ ->
              (* the key part covered by key-part RICs is borrowed *)
              List.concat_map
                (fun (ind : Ind.t) ->
                  if String.equal ind.Ind.lhs_rel name then
                    Attribute.Names.normalize ind.Ind.lhs_attrs
                  else [])
                (match Hashtbl.find_opt key_part_rics name with
                | Some cell -> List.rev !cell
                | None -> [])
        in
        let e_key = Attribute.Names.diff key borrowed in
        let gone = binary_attrs_of name in
        let e_attrs =
          List.filter
            (fun a ->
              (not (Attribute.Names.mem a key))
              && (not (List.mem a gone))
              && not (Attribute.Names.mem a borrowed))
            rel.Relation.attrs
        in
        eer :=
          Er.Eer.add_entity !eer
            { Er.Eer.e_name = name; e_attrs; e_key; e_weak_of = weak_of };
        entity_of_relation := (name, name) :: !entity_of_relation
      end)
    (Schema.relations schema);
  (* ---- n-ary relationship types ---- *)
  List.iter
    (fun (rel_name, rics) ->
      match Schema.find schema rel_name with
      | None -> ()
      | Some rel ->
          let roles =
            List.map
              (fun (ind : Ind.t) ->
                Er.Eer.role
                  ?card:(participation db rel_name ind.Ind.lhs_attrs)
                  ind.Ind.rhs_rel ind.Ind.lhs_attrs)
              rics
          in
          let key = Relation.key_attrs rel in
          let r_attrs =
            List.filter
              (fun a -> not (Attribute.Names.mem a key))
              rel.Relation.attrs
          in
          eer :=
            Er.Eer.add_relationship !eer
              { Er.Eer.r_name = rel_name; r_roles = roles; r_attrs };
          entity_of_relation := (rel_name, rel_name) :: !entity_of_relation)
    (List.rev !relationship_relations);
  (* ---- is-a links (skipping links that would close a cycle) ---- *)
  List.iter
    (fun (ind : Ind.t) ->
      let sub = ind.Ind.lhs_rel and super = ind.Ind.rhs_rel in
      if
        (not (String.equal sub super))
        && (not (is_relationship sub))
        && not (is_relationship super)
      then begin
        let rec ancestor seen n =
          String.equal n sub
          || (not (List.mem n seen))
             && List.exists
                  (fun s -> ancestor (n :: seen) s)
                  (Er.Eer.supertypes !eer n)
        in
        if not (ancestor [] super) then eer := Er.Eer.add_isa !eer ~sub ~super
      end)
    isa_rics;
  (* ---- binary relationship types ---- *)
  let used_names = ref (Er.Eer.entity_names !eer) in
  List.iter
    (fun (ind : Ind.t) ->
      if
        (not (is_relationship ind.Ind.lhs_rel))
        && not (is_relationship ind.Ind.rhs_rel)
      then begin
        let base = Printf.sprintf "%s_%s" ind.Ind.lhs_rel ind.Ind.rhs_rel in
        let rec fresh i =
          let cand = if i = 0 then base else Printf.sprintf "%s_%d" base i in
          if List.mem cand !used_names then fresh (i + 1) else cand
        in
        let name = fresh 0 in
        used_names := name :: !used_names;
        eer :=
          Er.Eer.add_relationship !eer
            {
              Er.Eer.r_name = name;
              r_roles =
                [
                  (* the referencing side holds one FK value per tuple *)
                  Er.Eer.role
                    ?card:
                      (match db with None -> None | Some _ -> Some Er.Eer.One)
                    ind.Ind.lhs_rel ind.Ind.lhs_attrs;
                  Er.Eer.role
                    ?card:(participation db ind.Ind.lhs_rel ind.Ind.lhs_attrs)
                    ind.Ind.rhs_rel ind.Ind.rhs_attrs;
                ];
              r_attrs = [];
            }
      end)
    non_key_rics;
  { eer = !eer; entity_of_relation = List.rev !entity_of_relation }
