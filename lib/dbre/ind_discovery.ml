open Relational
open Deps

type case =
  | Empty_intersection
  | Included of Ind.t list
  | Nei of Oracle.nei_decision

type step = { join : Sqlx.Equijoin.t; counts : Ind.counts; case : case }

type result = {
  inds : Ind.t list;
  new_relations : Relation.t list;
  steps : step list;
  unverified : Sqlx.Equijoin.t list;
  exhausted : Supervise.reason option;
}

let join_resolvable db (j : Sqlx.Equijoin.t) =
  let side rel attrs =
    match Database.table_opt db rel with
    | None -> false
    | Some t -> List.for_all (Relation.has_attr (Table.schema t)) attrs
  in
  side j.Sqlx.Equijoin.rel1 j.Sqlx.Equijoin.attrs1
  && side j.Sqlx.Equijoin.rel2 j.Sqlx.Equijoin.attrs2

(* materialize the intersection of the two projections as a new relation *)
let conceptualize ~engine db (j : Sqlx.Equijoin.t) name =
  let t1 = Database.table db j.Sqlx.Equijoin.rel1 in
  let t2 = Database.table db j.Sqlx.Equijoin.rel2 in
  let attrs = j.Sqlx.Equijoin.attrs1 in
  let domains =
    List.map (fun a -> (a, Relation.domain_of (Table.schema t1) a)) attrs
  in
  let rel = Relation.make ~domains ~uniques:[ attrs ] name attrs in
  Database.add_relation db rel;
  let distinct t attrs =
    Column_store.distinct_set
      (Column_store.of_table ~delta_fraction:engine.Engine.delta_fraction t)
      attrs
  in
  let d1 = distinct t1 j.Sqlx.Equijoin.attrs1
  and d2 = distinct t2 j.Sqlx.Equijoin.attrs2 in
  (* sort the intersection so the materialized extension does not
     depend on hash order *)
  let intersection =
    Hashtbl.fold
      (fun values () acc ->
        if Hashtbl.mem d2 values then values :: acc else acc)
      d1 []
  in
  List.iter
    (fun values -> Database.insert db name values)
    (List.sort compare intersection);
  rel

let fresh_name db base =
  let rec go i =
    let candidate = if i = 0 then base else Printf.sprintf "%s_%d" base i in
    if Schema.mem (Database.schema db) candidate then go (i + 1) else candidate
  in
  go 0

(* Plan every count the elicitation loop will need as one batch: the
   planner builds each distinct (table, attrs) side once — fanning
   tables over the engine's persistent Domain_pool under a parallel
   engine, replacing the domain-spawn-per-call warm-up of
   PR 2 — and answers the N_k / N_l / N_kl triples in Q-order. The
   elicitation loop itself stays sequential in the order of [Q]
   (expert decisions are inherently ordered) and conceptualization
   only ever inserts into freshly created relations, so the planned
   counts cannot go stale mid-loop; a join that only becomes
   resolvable mid-loop (its relation conceptualized by an earlier NEI
   decision) falls back to direct per-join counting, preserving the
   exact semantics of the unbatched loop. *)
let plan ~engine ~supervise db joins =
  let planned = ref [] and probes = ref [] and n_probes = ref 0 in
  List.iter
    (fun (j : Sqlx.Equijoin.t) ->
      if join_resolvable db j then begin
        probes :=
          ( (j.Sqlx.Equijoin.rel1, j.Sqlx.Equijoin.attrs1),
            (j.Sqlx.Equijoin.rel2, j.Sqlx.Equijoin.attrs2) )
          :: !probes;
        planned := Some !n_probes :: !planned;
        incr n_probes
      end
      else planned := None :: !planned)
    joins;
  let counts =
    Array.of_list (Verify_plan.ind_batch ~engine ~supervise db (List.rev !probes))
  in
  let planned = Array.of_list (List.rev !planned) in
  fun i ->
    match planned.(i) with
    | Some k -> Some counts.(k)
    | None -> None

(* Supervision: the token is polled once per equi-join of Q — the unit
   between oracle decisions — by the sequential elicitation loop only
   (the batched planner honors the latched verdict but never polls, per
   the Supervise determinism contract). On a trip the joins not yet
   processed come back verbatim in [unverified] and [exhausted] names
   the budget; under the engine's [`Fail] policy the trip raises
   [Error.Error] instead. A later run can pass the partial result as
   [?prior] to process exactly the unverified tail, seeded with the
   already-elicited INDs, conceptualized relations and steps — the
   resumed trace is identical to an unbudgeted run's. *)
let run ?(engine = Engine.default) ?(supervise = Supervise.unlimited) ?prior
    (oracle : Oracle.t) db joins =
  let todo =
    match prior with
    | None -> joins
    | Some p -> p.unverified
  in
  let planned_counts =
    (* a trip while planning falls back to per-join counting, which the
       loop's own first poll then cuts off before any oracle call *)
    try plan ~engine ~supervise db todo
    with Supervise.Interrupt _ -> fun _ -> None
  in
  let inds = ref [] and new_relations = ref [] and steps = ref [] in
  (match prior with
  | None -> ()
  | Some p ->
      inds := List.rev p.inds;
      new_relations := List.rev p.new_relations;
      steps := List.rev p.steps);
  let add_ind ind =
    if not (List.exists (Ind.equal ind) !inds) then inds := ind :: !inds
  in
  let process i (j : Sqlx.Equijoin.t) =
    if not (join_resolvable db j) then
      steps :=
        {
          join = j;
          counts = { Ind.n_left = 0; n_right = 0; n_join = 0 };
          case = Empty_intersection;
        }
        :: !steps
    else begin
      let left = (j.Sqlx.Equijoin.rel1, j.Sqlx.Equijoin.attrs1) in
      let right = (j.Sqlx.Equijoin.rel2, j.Sqlx.Equijoin.attrs2) in
      let n_left, n_right, n_join =
        match planned_counts i with
        | Some c ->
            (c.Verify_plan.n_left, c.Verify_plan.n_right, c.Verify_plan.n_join)
        | None ->
            (* became resolvable mid-loop: count directly *)
            ( Database.count_distinct ~engine db (fst left) (snd left),
              Database.count_distinct ~engine db (fst right) (snd right),
              Database.join_count ~engine db left right )
      in
      let counts = { Ind.n_left; n_right; n_join } in
      let case =
        if n_join = 0 then Empty_intersection
        else if n_join = n_left || n_join = n_right then begin
          let elicited = ref [] in
          if n_join = n_left && n_left <= n_right then begin
            let ind = Ind.make left right in
            add_ind ind;
            elicited := ind :: !elicited
          end;
          if n_join = n_right && n_right <= n_left then begin
            let ind = Ind.make right left in
            add_ind ind;
            elicited := ind :: !elicited
          end;
          Included (List.rev !elicited)
        end
        else begin
          let decision = oracle.Oracle.on_nei { Oracle.join = j; counts } in
          (match decision with
          | Oracle.Conceptualize name ->
              let name = fresh_name db name in
              let rel = conceptualize ~engine db j name in
              new_relations := rel :: !new_relations;
              add_ind (Ind.make (name, rel.Relation.attrs) left);
              add_ind (Ind.make (name, rel.Relation.attrs) right)
          | Oracle.Force_left_in_right -> add_ind (Ind.make left right)
          | Oracle.Force_right_in_left -> add_ind (Ind.make right left)
          | Oracle.Ignore_nei -> ());
          Nei decision
        end
      in
      steps := { join = j; counts; case } :: !steps
    end
  in
  let exhausted = ref None in
  let rec loop i = function
    | [] -> []
    | j :: rest -> (
        match Supervise.poll supervise with
        | Some r ->
            exhausted := Some r;
            j :: rest
        | None ->
            process i j;
            loop (i + 1) rest)
  in
  let unverified = loop 0 todo in
  (match !exhausted with
  | Some r when Engine.fail_on_exhausted engine ->
      raise (Error.Error (Supervise.error_of ~stage:Error.Ind_discovery r))
  | _ -> ());
  {
    inds = List.rev !inds;
    new_relations = List.rev !new_relations;
    steps = List.rev !steps;
    unverified;
    exhausted = !exhausted;
  }
