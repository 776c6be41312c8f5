(* Single-pass batching planner for the dependency checks the §6
   algorithms issue in bulk.

   Two access patterns dominate the pipeline: RHS-Discovery tests many
   candidate FDs sharing one (table, LHS), and IND-Discovery counts
   N_k / N_l / N_kl for every equi-join of Q, where the same projection
   side recurs across joins. Answering each request independently
   re-scans the extension per candidate; this module groups the
   requests and answers every group from one pass — one fused sweep
   over the encoded columns for all RHS attributes of an FD group, one
   code-level preparation per projection side of an IND batch.

   Determinism: results always come back in submission order, and
   verdicts/counts equal the row-at-a-time reference (the equivalence
   contract), so oracles see the same decision sequence batched or
   not. *)

type side = string * string list

type counts = { n_left : int; n_right : int; n_join : int }

(* Supervision: [fd_group]/[ind_batch] poll the token at sweep
   granularity — once per batched pass — and raise
   [Supervise.Interrupt] on a trip; the discovery loops above catch it
   at a group boundary. The IND pre-pass reads only the latched
   verdict between tables, so a trip latched by the driver stops it
   without running the remaining builds. *)

(* ------------------------------------------------------------------ *)
(* FD groups                                                            *)
(* ------------------------------------------------------------------ *)

let fd_group ?(supervise = Supervise.unlimited) table ~lhs ~rhs =
  match rhs with
  | [] -> []
  | _ ->
      Supervise.check supervise;
      Column_store.fd_batch (Table.store table) ~lhs ~rhs

(* ------------------------------------------------------------------ *)
(* IND batches                                                          *)
(* ------------------------------------------------------------------ *)

let ind_batch ?(supervise = Supervise.unlimited) db probes =
  match probes with
  | [] -> []
  | _ ->
      Supervise.check supervise;
      let store_of rel = Table.store (Database.table db rel) in
      (* [Column_store.prepare] every side once, table by table. The
         pre-pass reads only the latched verdict and consumes no fuel,
         so fuel-tripped prefixes and resume boundaries are fixed by
         the discovery loops' own polls. *)
      let warm ?probe sides =
        let sides = List.sort_uniq compare sides in
        List.iter
          (fun rel ->
            (match Supervise.tripped supervise with
            | Some r -> raise (Supervise.Interrupt r)
            | None -> ());
            List.iter
              (fun (r, attrs) ->
                if r = rel then Column_store.prepare ?probe (store_of rel) attrs)
              sides)
          (List.sort_uniq compare (List.map fst sides))
      in
      (* first every side's columns and code-tuple sets, then the
         intern tables of the side each count probes *)
      warm (List.concat_map (fun (l, r) -> [ l; r ]) probes);
      warm ~probe:true
        (List.map
           (fun (((lrel, lattrs) as l), ((rrel, rattrs) as r)) ->
             if Column_store.walks_left (store_of lrel) lattrs (store_of rrel) rattrs
             then r
             else l)
           probes);
      List.map
        (fun ((lrel, lattrs), (rrel, rattrs)) ->
          Supervise.check supervise;
          let sl = store_of lrel and sr = store_of rrel in
          {
            n_left = Column_store.count_distinct sl lattrs;
            n_right = Column_store.count_distinct sr rattrs;
            n_join = Column_store.equijoin_distinct_count sl lattrs sr rattrs;
          })
        probes
