(* Reference FD checks: the seed's row-hashing check, the TANE
   stripped-partition criterion, and TANE-style levelwise discovery
   over memoized partitions. *)

open Relational
open Deps

(* hash LHS projections, compare RHS projections within each bucket;
   NULL-LHS rows exempt, NULL = NULL on the RHS *)
let holds_naive table (fd : Fd.t) =
  let lidx = Table.positions table fd.lhs in
  let ridx = Table.positions table fd.rhs in
  let seen = Hashtbl.create (max 16 (Table.cardinality table)) in
  try
    Array.iter
      (fun tup ->
        (* NULL-LHS rows carry no identifier: they never contradict *)
        if not (Tuple.has_null_at lidx tup) then begin
          let key = Tuple.project_list lidx tup in
          let rhs = Tuple.project_list ridx tup in
          match Hashtbl.find_opt seen key with
          | Some rhs0 -> if rhs0 <> rhs then raise Exit
          | None -> Hashtbl.add seen key rhs
        end)
      (Table.rows table);
    true
  with Exit -> false

(* the TANE criterion e(X) = e(X ∪ Y) over stripped partitions *)
let holds_partition table (fd : Fd.t) =
  let lidx = Table.positions table fd.lhs in
  let keep tup = not (Tuple.has_null_at lidx tup) in
  let rows = Table.rows table in
  let p_lhs = Partition.of_rows ~keep rows lidx in
  let p_both =
    Partition.of_rows ~keep rows
      (Table.positions table (Attribute.Names.union fd.lhs fd.rhs))
  in
  Partition.fd_holds ~lhs:p_lhs ~lhs_rhs:p_both

(* [Deps.Fd_infer.discover]'s contract (all minimal FDs with
   |X| <= max_lhs), but every test goes through memoized stripped
   partitions: pi_X is computed once per attribute set by
   [Partition.product] over smaller sets. NULL caveat: partition
   products cannot express the "skip rows with a NULL left-hand side"
   exemption, so this treats NULL as an ordinary value throughout; on
   NULL-free extensions it returns exactly [discover]'s output. *)
let discover_tane ?(max_lhs = 3) ?(supervise = Supervise.unlimited) ~rel table =
  let attrs = (Table.schema table).Relation.attrs in
  let arr = Array.of_list (Attribute.Names.normalize attrs) in
  let n = Array.length arr in
  let max_lhs = min max_lhs n in
  (* memoized stripped partitions keyed by canonical attribute sets *)
  let partitions : (string list, Partition.t) Hashtbl.t = Hashtbl.create 64 in
  let rows = Table.rows table in
  let rec partition_of set =
    match Hashtbl.find_opt partitions set with
    | Some p -> p
    | None ->
        let p =
          match set with
          | [] -> invalid_arg "discover_tane: empty attribute set"
          | [ a ] -> Partition.of_rows rows (Table.positions table [ a ])
          | a :: rest -> Partition.product (partition_of [ a ]) (partition_of rest)
        in
        Hashtbl.add partitions set p;
        p
  in
  let tested = ref 0 in
  let found : Fd.t list ref = ref [] in
  let minimal_lhs : (string, string list list) Hashtbl.t = Hashtbl.create 16 in
  let covered_by_smaller rhs lhs =
    match Hashtbl.find_opt minimal_lhs rhs with
    | None -> false
    | Some ls -> List.exists (fun l -> Attribute.Names.subset l lhs) ls
  in
  let keys : string list list ref = ref [] in
  let superset_of_key set =
    List.exists (fun k -> Attribute.Names.subset k set) !keys
  in
  let cardinality = Table.cardinality table in
  (* iterate LHS candidates by size, exactly as [discover] does, but test
     through partitions: X -> a holds iff e(π_X) = e(π_{X∪a}) *)
  let exhausted = ref None in
  (try
  for size = 1 to max_lhs do
    let rec choose start acc count =
      if count = 0 then begin
        Supervise.check supervise;
        let lhs = Attribute.Names.normalize acc in
        if not (superset_of_key lhs) then begin
          let p_lhs = partition_of lhs in
          if Partition.rank p_lhs = cardinality then keys := lhs :: !keys;
          List.iter
            (fun a ->
              if
                (not (Attribute.Names.mem a lhs))
                && not (covered_by_smaller a lhs)
              then begin
                incr tested;
                let p_both = partition_of (Attribute.Names.union lhs [ a ]) in
                if Partition.fd_holds ~lhs:p_lhs ~lhs_rhs:p_both then begin
                  found := Fd.make rel lhs [ a ] :: !found;
                  Hashtbl.replace minimal_lhs a
                    (lhs
                    :: Option.value ~default:[]
                         (Hashtbl.find_opt minimal_lhs a))
                end
              end)
            attrs
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
      Deps.Fd_infer.candidates_tested = !tested;
      fds_found = List.length !found;
      exhausted = !exhausted;
    } )

(* the §2 definition by grouping: rows sharing a NULL-free LHS agree on
   the RHS (NULL = NULL) *)
let non_null_groups table lhs =
  Hashtbl.fold
    (fun key members acc ->
      if List.exists Value.is_null key then acc else (key, members) :: acc)
    (Counts.group_rows table lhs) []

let satisfied_by table (fd : Fd.t) =
  let ridx = Table.positions table fd.rhs in
  let rows = Table.rows table in
  List.for_all
    (fun (_, members) ->
      match members with
      | [] -> true
      | first :: rest ->
          let rhs0 = Tuple.project_list ridx rows.(first) in
          List.for_all (fun i -> Tuple.project_list ridx rows.(i) = rhs0) rest)
    (non_null_groups table fd.lhs)

(* at most one witness pair [(lhs, rhs), (lhs, rhs')] per conflicting
   LHS value *)
let violations table (fd : Fd.t) =
  let ridx = Table.positions table fd.rhs in
  let rows = Table.rows table in
  List.fold_left
    (fun acc (lhs0, members) ->
      match members with
      | [] -> acc
      | first :: rest -> (
          let rhs0 = Tuple.project_list ridx rows.(first) in
          match
            List.find_opt
              (fun i -> Tuple.project_list ridx rows.(i) <> rhs0)
              rest
          with
          | None -> acc
          | Some i ->
              ((lhs0, rhs0), (lhs0, Tuple.project_list ridx rows.(i))) :: acc))
    [] (non_null_groups table fd.lhs)

(* g3: the fraction of rows to remove for the FD to hold — n minus a
   maximum consistent subset, which keeps, per NULL-free LHS value, the
   most frequent RHS value (NULL-LHS rows never conflict) *)
let error_rate table (fd : Fd.t) =
  let n = Table.cardinality table in
  if n = 0 then 0.0
  else begin
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
