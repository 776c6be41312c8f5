(* Query-guided elicitation vs. exhaustive dependency mining.

   Section 8 of the paper closes with a knowledge-discovery claim: the
   application programs act as *oracles* that point data mining at the
   dependencies that matter. This example makes that concrete on the §5
   database:

   - exhaustive levelwise FD discovery (Mannila-Raiha style) finds
     *every* minimal FD, including accidental ones and pure integrity
     constraints (zip-code -> state);
   - exhaustive unary IND discovery tests hundreds of attribute pairs;
   - the query-guided method tests a handful of candidates and returns
     exactly the dependencies that shape the conceptual schema.

   Run with:  dune exec examples/fd_mining.exe *)

open Relational
open Deps

let () =
  let db = Workload.Paper_example.database () in

  Format.printf "== Exhaustive FD discovery (levelwise, |LHS| <= 2) ==@.";
  let total_tested = ref 0 and total_found = ref 0 in
  List.iter
    (fun rel ->
      let name = rel.Relation.name in
      let fds, stats =
        Fd_infer.discover ~max_lhs:2 ~rel:name (Database.table db name)
      in
      total_tested := !total_tested + stats.Fd_infer.candidates_tested;
      total_found := !total_found + List.length fds;
      Format.printf "-- %s: %d candidates tested, %d minimal FDs@." name
        stats.Fd_infer.candidates_tested (List.length fds);
      List.iter (fun f -> Format.printf "   %s@." (Fd.to_string f)) fds)
    (Schema.relations (Database.schema db));
  Format.printf "total: %d candidates tested, %d FDs found@.@." !total_tested
    !total_found;

  Format.printf "== Exhaustive unary IND discovery ==@.";
  let inds, stats = Ind_infer.discover_unary db in
  Format.printf "%d pairs considered, %d tested, %d INDs found@."
    stats.Ind_infer.pairs_considered stats.Ind_infer.pairs_tested
    (List.length inds);
  List.iter (fun i -> Format.printf "   %s@." (Ind.to_string i)) inds;

  Format.printf "@.== Query-guided elicitation (the paper's method) ==@.";
  let result =
    match Dbre.Job.run (Workload.Paper_example.spec ()) with
    | Ok r -> r
    | Error p -> raise (Error.Error p.Dbre.Pipeline.p_error)
  in
  let guided_fds = result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds in
  let guided_inds = result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds in
  Format.printf "%d equi-joins analyzed -> %d INDs, %d FDs@."
    (List.length result.Dbre.Pipeline.equijoins)
    (List.length guided_inds) (List.length guided_fds);
  Format.printf "%a@." Dbre.Report.pp_fds guided_fds;

  (* the contrast the paper cares about *)
  let zip = Fd.make "Person" [ "zip-code" ] [ "state" ] in
  Format.printf
    "@.zip-code -> state: holds in the extension (%b), found by exhaustive \
     mining (%b), elicited by the guided method (%b) - it is an integrity \
     constraint, not a conceptual object, and normalizing along it would \
     produce an erroneous design [13].@."
    (Fd_infer.holds (Database.table db "Person") zip)
    (let fds, _ = Fd_infer.discover ~max_lhs:1 ~rel:"Person" (Database.table db "Person") in
     List.exists
       (fun (f : Fd.t) ->
         Attribute.Names.equal f.Fd.lhs [ "zip-code" ]
         && List.mem "state" f.Fd.rhs)
       fds)
    (List.exists (fun (f : Fd.t) -> f.Fd.rel = "Person") guided_fds)
