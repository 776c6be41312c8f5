open Relational
open Er

type result = {
  schema : Schema.t;
  refs : (string * string list * string * string list) list;
}

let sorted = List.sort String.compare

(* an entity's full identifier: weak entities borrow the owner's *)
let rec full_key eer visited name =
  match Eer.find_entity eer name with
  | None -> []
  | Some e -> (
      match e.Eer.e_weak_of with
      | Some owner when not (List.mem name visited) ->
          sorted (full_key eer (name :: visited) owner @ e.Eer.e_key)
      | Some _ | None -> sorted e.Eer.e_key)

let map (eer : Eer.t) =
  (match Validate.check eer with
  | Ok () -> ()
  | Error msgs ->
      invalid_arg
        ("To_relational.map: ill-formed EER schema: " ^ String.concat "; " msgs));
  (* split relationships into foldable (a One leg) and junction ones *)
  let foldable, junctions =
    List.partition
      (fun (r : Eer.relationship) ->
        List.length r.Eer.r_roles = 2
        && List.exists
             (fun (role : Eer.role) -> role.Eer.role_card = Some Eer.One)
             r.Eer.r_roles)
      eer.Eer.relationships
  in
  let refs = ref [] in
  let add_ref rel attrs target tattrs =
    refs := (rel, attrs, target, tattrs) :: !refs
  in
  (* ---- entity relations ---- *)
  let relations =
    List.map
      (fun (e : Eer.entity) ->
        let name = e.Eer.e_name in
        let key = full_key eer [] name in
        (* folded FKs hosted by this entity *)
        let folded =
          List.filter_map
            (fun (r : Eer.relationship) ->
              match r.Eer.r_roles with
              | [ a; b ] ->
                  let host, other =
                    if a.Eer.role_card = Some Eer.One then (a, b)
                    else (b, a)
                  in
                  if String.equal host.Eer.role_entity name then Some (host, other)
                  else None
              | _ -> None)
            foldable
        in
        let fk_attrs =
          List.concat_map (fun ((host : Eer.role), _) -> host.Eer.role_attrs) folded
        in
        List.iter
          (fun ((host : Eer.role), (other : Eer.role)) ->
            add_ref name host.Eer.role_attrs other.Eer.role_entity
              (full_key eer [] other.Eer.role_entity))
          folded;
        (* weak entity: reference the owner through the borrowed key *)
        (match e.Eer.e_weak_of with
        | Some owner ->
            let owner_key = full_key eer [] owner in
            add_ref name owner_key owner owner_key
        | None -> ());
        (* is-a: reference the supertype through the own key *)
        List.iter
          (fun super -> add_ref name key super (full_key eer [] super))
          (Eer.supertypes eer name);
        let attrs =
          key @ e.Eer.e_attrs
          @ List.filter (fun a -> not (List.mem a key)) fk_attrs
        in
        Relation.make ~uniques:[ key ] name attrs)
      eer.Eer.entities
  in
  (* ---- junction relations (m:n and n-ary) ---- *)
  let junction_relations =
    List.map
      (fun (r : Eer.relationship) ->
        let name = r.Eer.r_name in
        let key =
          sorted
            (List.concat_map (fun (role : Eer.role) -> role.Eer.role_attrs)
               r.Eer.r_roles)
        in
        List.iter
          (fun (role : Eer.role) ->
            add_ref name role.Eer.role_attrs role.Eer.role_entity
              (full_key eer [] role.Eer.role_entity))
          r.Eer.r_roles;
        Relation.make ~uniques:[ key ] name (key @ r.Eer.r_attrs))
      junctions
  in
  {
    schema = Schema.of_relations (relations @ junction_relations);
    refs = List.rev !refs;
  }
