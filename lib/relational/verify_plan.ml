(* Single-pass batching planner for the dependency checks the §6
   algorithms issue in bulk.

   Two access patterns dominate the pipeline: RHS-Discovery tests many
   candidate FDs sharing one (table, LHS), and IND-Discovery counts
   N_k / N_l / N_kl for every equi-join of Q, where the same projection
   side recurs across joins. Answering each request independently
   re-scans the extension per candidate; this module groups the
   requests and answers every group from one pass — one fused sweep
   over the encoded columns for all RHS attributes of an FD group, one
   distinct-set build per projection side of an IND batch — fanning the
   independent passes over the engine's persistent Domain_pool.

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

let fd_group ?(engine = Engine.default) ?(supervise = Supervise.unlimited)
    table ~lhs ~rhs =
  match rhs with
  | [] -> []
  | _ ->
      Supervise.check supervise;
      Column_store.fd_batch ?pool:(Engine.pool engine)
        (Column_store.of_table ~delta_fraction:engine.Engine.delta_fraction
           table)
        ~lhs ~rhs

(* ------------------------------------------------------------------ *)
(* IND batches                                                          *)
(* ------------------------------------------------------------------ *)

let ind_batch ?(engine = Engine.default) ?(supervise = Supervise.unlimited)
    db probes =
  match probes with
  | [] -> []
  | _ ->
      Supervise.check supervise;
      (* one store per table for the whole batch; build each side's
         distinct set once, fanning tables over the pool — a table is
         touched by exactly one task, so no store is shared while
         building *)
      let stores : (string, Column_store.t) Hashtbl.t = Hashtbl.create 16 in
      let store_of rel =
        match Hashtbl.find_opt stores rel with
        | Some s -> s
        | None ->
            let s =
              Column_store.of_table
                ~delta_fraction:engine.Engine.delta_fraction
                (Database.table db rel)
            in
            Hashtbl.add stores rel s;
            s
      in
      let per_table : (string, string list list) Hashtbl.t =
        Hashtbl.create 16
      in
      let order = ref [] in
      let add (rel, attrs) =
        ignore (store_of rel);
        match Hashtbl.find_opt per_table rel with
        | None ->
            order := rel :: !order;
            Hashtbl.add per_table rel [ attrs ]
        | Some prev ->
            if not (List.mem attrs prev) then
              Hashtbl.replace per_table rel (attrs :: prev)
      in
      List.iter
        (fun (l, r) ->
          add l;
          add r)
        probes;
      let tables =
        Array.of_list
          (List.rev_map
             (fun rel -> (store_of rel, Hashtbl.find per_table rel))
             !order)
      in
      let warm i =
        let store, attr_lists = tables.(i) in
        List.iter
          (fun attrs -> ignore (Column_store.distinct_set store attrs))
          attr_lists
      in
      (* the warm pre-pass reads only the latched verdict — on the pool
         path tasks may not poll, and the sequential fallback must
         consume exactly as much fuel (none) so the trip boundary is
         independent of the domain count *)
      (match Engine.pool engine with
      | Some pool when Domain_pool.size pool > 1 && Array.length tables > 1 ->
          Domain_pool.parallel_for ~supervise pool (Array.length tables) warm
      | _ ->
          for i = 0 to Array.length tables - 1 do
            (match Supervise.tripped supervise with
            | Some r -> raise (Supervise.Interrupt r)
            | None -> ());
            warm i
          done);
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
