open Relational

(* the FD check is the conjunction of one batched sweep over the RHS
   attributes; the LHS is normalized exactly as [holds_all] normalizes
   it, so memoized verdicts are shared between the two *)
let holds ?(engine = Engine.default) table (fd : Fd.t) =
  List.for_all snd
    (Column_store.fd_batch ?pool:(Engine.pool engine)
       (Column_store.of_table ~delta_fraction:engine.Engine.delta_fraction
          table)
       ~lhs:(Attribute.Names.normalize fd.lhs)
       ~rhs:fd.rhs)

(* the batched check: all [lhs -> a] verdicts from one planner group
   (one fused sweep) instead of one independent scan per attribute *)
let holds_all ?(engine = Engine.default) ?supervise table ~lhs ~rhs =
  let lhs = Attribute.Names.normalize lhs in
  Verify_plan.fd_group ~engine ?supervise table ~lhs ~rhs

let error_rate table (fd : Fd.t) =
  let n = Table.cardinality table in
  if n = 0 then 0.0
  else begin
    (* g3: n minus the size of a maximum consistent subset; for an FD the
       maximum subset keeps, per LHS value, the most frequent RHS value *)
    let lidx = Table.positions table fd.lhs in
    let ridx = Table.positions table fd.rhs in
    let per_lhs : (Value.t list, (Value.t list, int) Hashtbl.t) Hashtbl.t =
      Hashtbl.create 64
    in
    let nulls = ref 0 in
    Array.iter
      (fun tup ->
        if Tuple.has_null_at lidx tup then incr nulls
        else
        let key = Tuple.project_list lidx tup in
        let rhs = Tuple.project_list ridx tup in
        let inner =
          match Hashtbl.find_opt per_lhs key with
          | Some h -> h
          | None ->
              let h = Hashtbl.create 4 in
              Hashtbl.add per_lhs key h;
              h
        in
        Hashtbl.replace inner rhs
          (1 + Option.value ~default:0 (Hashtbl.find_opt inner rhs)))
      (Table.rows table);
    let kept =
      Hashtbl.fold
        (fun _ inner acc ->
          acc + Hashtbl.fold (fun _ c best -> max c best) inner 0)
        per_lhs 0
    in
    float_of_int (n - kept - !nulls) /. float_of_int n
  end

type stats = {
  candidates_tested : int;
  fds_found : int;
  exhausted : Supervise.reason option;
}

(* Supervision: the levelwise searches poll the token once per LHS
   candidate set (the unit of work between prunable states) and catch
   the trip at that boundary, returning the minimal FDs found so far
   with [stats.exhausted] naming the tripped budget — a typed partial,
   never an exception. *)

let discover ?(max_lhs = 3) ?(supervise = Supervise.unlimited) ~rel table =
  let store = Column_store.of_table table in
  let attrs = (Table.schema table).Relation.attrs in
  let tested = ref 0 in
  let found : Fd.t list ref = ref [] in
  (* minimal-LHS bookkeeping: per RHS attribute, the LHSes already found *)
  let minimal_lhs : (string, string list list) Hashtbl.t = Hashtbl.create 16 in
  let covered_by_smaller rhs lhs =
    match Hashtbl.find_opt minimal_lhs rhs with
    | None -> false
    | Some ls -> List.exists (fun l -> Attribute.Names.subset l lhs) ls
  in
  (* key pruning: once an LHS is a key (unique), every FD from it holds
     trivially and no superset is minimal *)
  let keys : string list list ref = ref [] in
  let superset_of_key lhs =
    List.exists (fun k -> Attribute.Names.subset k lhs) !keys
  in
  let arr = Array.of_list attrs in
  let n = Array.length arr in
  let max_lhs = min max_lhs n in
  let exhausted = ref None in
  (try
  for size = 1 to max_lhs do
    let rec choose start acc count =
      if count = 0 then begin
        Supervise.check supervise;
        let lhs = Attribute.Names.normalize acc in
        if not (superset_of_key lhs) then begin
          if Column_store.count_distinct store lhs = Table.cardinality table
          then
            (* unique: record as key, emit FDs to all remaining attrs *)
            keys := lhs :: !keys;
          (* one fused sweep answers every uncovered candidate of this
             LHS; recording [lhs -> a] only covers [a], so the batch
             sees the same candidates a per-attribute loop would *)
          let candidates =
            List.filter
              (fun a ->
                (not (Attribute.Names.mem a lhs))
                && not (covered_by_smaller a lhs))
              attrs
          in
          tested := !tested + List.length candidates;
          List.iter
            (fun (a, ok) ->
              if ok then begin
                found := Fd.make rel lhs [ a ] :: !found;
                Hashtbl.replace minimal_lhs a
                  (lhs
                  :: Option.value ~default:[] (Hashtbl.find_opt minimal_lhs a))
              end)
            (if candidates = [] then []
             else Column_store.fd_batch store ~lhs ~rhs:candidates)
        end
      end
      else
        for i = start to n - count do
          choose (i + 1) (arr.(i) :: acc) (count - 1)
        done
    in
    choose 0 [] size
  done
  with Supervise.Interrupt r -> exhausted := Some r);
  let fds = Fd.combine (List.rev !found) in
  ( fds,
    {
      candidates_tested = !tested;
      fds_found = List.length !found;
      exhausted = !exhausted;
    } )

let discover_for_lhs ?engine ?supervise ~rel table lhs =
  let attrs = (Table.schema table).Relation.attrs in
  let candidates = List.filter (fun a -> not (List.mem a lhs)) attrs in
  let rhs =
    List.filter_map
      (fun (a, ok) -> if ok then Some a else None)
      (holds_all ?engine ?supervise table ~lhs ~rhs:candidates)
  in
  if rhs = [] then None else Some (Fd.make rel lhs rhs)
