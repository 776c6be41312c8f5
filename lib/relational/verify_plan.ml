(* Single-pass batching planner for the dependency checks the §6
   algorithms issue in bulk.

   Two access patterns dominate the pipeline: RHS-Discovery tests many
   candidate FDs sharing one (table, LHS), and IND-Discovery counts
   N_k / N_l / N_kl for every equi-join of Q, where the same projection
   side recurs across joins. Answering each request independently
   re-scans the extension per candidate; this module groups the
   requests and answers every group from one pass — one fused sweep
   over the encoded columns for all RHS attributes of an FD group, one
   code-level preparation per projection side of an IND batch — and
   fans an IND batch's per-table preparations over the engine's
   persistent Domain_pool.

   Determinism: results always come back in submission order, whatever
   the domain count, and verdicts/counts equal the row-at-a-time
   reference (the equivalence contract), so oracles see the same
   decision sequence batched or not. *)

type side = string * string list

type counts = { n_left : int; n_right : int; n_join : int }

(* Supervision: [fd_group]/[ind_batch] poll the token at sweep
   granularity — once per batched pass — and raise
   [Supervise.Interrupt] on a trip; the discovery loops above catch it
   at a group boundary. Pool-fanned passes get the token as the batch
   token, so a trip latched by the driver drains the fan-out without
   running the remaining builds. *)

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

let ind_batch ?(engine = Engine.default) ?(supervise = Supervise.unlimited)
    db probes =
  match probes with
  | [] -> []
  | _ ->
      Supervise.check supervise;
      (* one store per table for the whole batch *)
      let stores : (string, Column_store.t) Hashtbl.t = Hashtbl.create 16 in
      let store_of rel =
        match Hashtbl.find_opt stores rel with
        | Some s -> s
        | None ->
            let s = Table.store (Database.table db rel) in
            Hashtbl.add stores rel s;
            s
      in
      (* [Column_store.prepare] every side once, fanning tables over the
         pool: a table is touched by exactly one task, so no store is
         shared while building. The pre-pass reads only the latched
         verdict — on the pool path tasks may not poll, and the
         sequential fallback must consume exactly as much fuel (none)
         so the trip boundary is independent of the domain count. *)
      let warm ?probe sides =
        let sides = List.sort_uniq compare sides in
        let tables =
          Array.of_list
            (List.map
               (fun rel ->
                 ( store_of rel,
                   List.filter_map
                     (fun (r, attrs) -> if r = rel then Some attrs else None)
                     sides ))
               (List.sort_uniq compare (List.map fst sides)))
        in
        let task i =
          let store, attr_lists = tables.(i) in
          List.iter (Column_store.prepare ?probe store) attr_lists
        in
        match Engine.pool engine with
        | Some pool when Domain_pool.size pool > 1 && Array.length tables > 1 ->
            Domain_pool.parallel_for ~supervise pool (Array.length tables) task
        | _ ->
            for i = 0 to Array.length tables - 1 do
              (match Supervise.tripped supervise with
              | Some r -> raise (Supervise.Interrupt r)
              | None -> ());
              task i
            done
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
