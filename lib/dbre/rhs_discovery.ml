open Relational
open Deps

type outcome =
  | Fd_elicited of Fd.t
  | Became_hidden
  | Dropped
  | Already_hidden

type step = {
  candidate : Attribute.t;
  pruned_rhs : string list;
  outcome : outcome;
}

type result = {
  fds : Fd.t list;
  hidden : Attribute.t list;
  steps : step list;
  unverified : Attribute.t list;
  exhausted : Supervise.reason option;
}

(* Supervision mirrors Ind_discovery: the sequential candidate loop
   polls once per candidate attribute, returns the untouched tail as
   [unverified] on a trip (or raises under the [`Fail] policy), and a
   [?prior] partial result resumes from exactly that tail with the
   elicited FDs, hidden set and steps seeded. *)
let run ?(engine = Engine.default) ?(supervise = Supervise.unlimited) ?prior
    (oracle : Oracle.t) db ~lhs ~hidden =
  let schema = Database.schema db in
  let fds = ref [] and out_hidden = ref [] and steps = ref [] in
  let todo =
    match prior with
    | None -> lhs @ hidden
    | Some p ->
        fds := List.rev p.fds;
        out_hidden := List.rev p.hidden;
        steps := List.rev p.steps;
        p.unverified
  in
  let in_h (a : Attribute.t) = List.exists (Attribute.equal a) hidden in
  let keep_hidden a =
    if not (List.exists (Attribute.equal a) !out_hidden) then
      out_hidden := a :: !out_hidden
  in
  let process (a : Attribute.t) =
    match Schema.find schema a.Attribute.rel with
    | None ->
        steps := { candidate = a; pruned_rhs = []; outcome = Dropped } :: !steps
    | Some relation ->
        let table = Database.table db a.Attribute.rel in
        let x_i = relation.Relation.attrs in
        let k_i = Relation.key_attrs relation in
        let a_attrs = a.Attribute.attrs in
        (* T = X_i - A - K_i *)
        let t0 =
          List.filter
            (fun b ->
              (not (Attribute.Names.mem b a_attrs))
              && not (Attribute.Names.mem b k_i))
            x_i
        in
        (* if A not null-free, drop the not-null attributes *)
        let a_not_null =
          List.for_all
            (fun x -> Schema.attr_not_null schema a.Attribute.rel x)
            a_attrs
        in
        let t =
          if a_not_null then t0
          else
            List.filter
              (fun b -> not (Schema.attr_not_null schema a.Attribute.rel b))
              t0
        in
        (* one planner batch answers every pruned-RHS candidate from a
           single LHS partition pass (§6.2.2 step (i) for the whole T at
           once); the oracle fallback then runs in T-order over the
           misses, exactly the decision sequence of the per-candidate
           loop this replaces *)
        let verdicts =
          Fd_infer.holds_all ~supervise table ~lhs:a_attrs ~rhs:t
        in
        let b =
          List.filter_map
            (fun (bt, data_backed) ->
              if
                data_backed
                || oracle.Oracle.enforce_fd ~rel:a.Attribute.rel ~lhs:a_attrs
                     ~attr:bt
              then Some bt
              else None)
            verdicts
        in
        let outcome =
          if b <> [] then begin
            let fd = Fd.make a.Attribute.rel a_attrs b in
            if oracle.Oracle.validate_fd fd then begin
              fds := fd :: !fds;
              (* if A was in H it is now conceptualized in F *)
              Fd_elicited fd
            end
            else if in_h a then begin
              keep_hidden a;
              Already_hidden
            end
            else Dropped
          end
          else if in_h a then begin
            keep_hidden a;
            Already_hidden
          end
          else if oracle.Oracle.conceptualize_hidden a then begin
            keep_hidden a;
            Became_hidden
          end
          else Dropped
        in
        steps := { candidate = a; pruned_rhs = t; outcome } :: !steps
  in
  let exhausted = ref None in
  let rec loop = function
    | [] -> []
    | a :: rest -> (
        match Supervise.poll supervise with
        | Some r ->
            exhausted := Some r;
            a :: rest
        | None -> (
            (* a trip inside the candidate's own verification batch
               surfaces here before anything was recorded for it, so
               the candidate stays whole in the unverified tail *)
            match process a with
            | () -> loop rest
            | exception Supervise.Interrupt r ->
                exhausted := Some r;
                a :: rest))
  in
  let unverified = loop todo in
  (match !exhausted with
  | Some r when Engine.fail_on_exhausted engine ->
      raise (Error.Error (Supervise.error_of ~stage:Error.Rhs_discovery r))
  | _ -> ());
  {
    fds = List.rev !fds;
    hidden = List.rev !out_hidden;
    steps = List.rev !steps;
    unverified;
    exhausted = !exhausted;
  }
