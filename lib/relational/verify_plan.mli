(** Single-pass batching planner for bulk dependency verification.

    The §6 algorithms are extension-intensive in two specific shapes:
    RHS-Discovery tests one candidate FD per remaining attribute
    against the same (table, LHS), and IND-Discovery counts
    [N_k / N_l / N_kl] per equi-join of Q, where projection sides recur
    across joins. This planner groups such requests and answers each
    group from one pass over the {!Column_store}:

    - an {b FD group} encodes the touched columns once and answers
      every RHS attribute with a single fused sweep over the LHS codes,
      instead of [|rhs|] independent full scans;
    - an {b IND batch} builds each distinct [(table, attrs)] side's
      distinct set once and reuses it across every probe that mentions
      it, fanning per-table builds over the engine's persistent
      {!Domain_pool}.

    {b Determinism contract.} Results come back in submission order,
    and every verdict/count is domain-count-independent and equal to
    the row-at-a-time reference the equivalence suite checks against,
    so an oracle consuming batched answers sees exactly the decision
    sequence of per-candidate checks. [Domains n] draws workers from
    the shared {!Domain_pool.get} pool. *)

type side = string * string list
(** A projection side: relation name × attribute list. *)

type counts = { n_left : int; n_right : int; n_join : int }
(** The §6.1 triple for one probe: [||r_k[A_k]||], [||r_l[A_l]||],
    [||r_k[A_k] ⋈ r_l[A_l]||]. *)

val fd_group :
  ?engine:Engine.t ->
  ?supervise:Supervise.t ->
  Table.t ->
  lhs:string list ->
  rhs:string list ->
  (string * bool) list
(** [fd_group table ~lhs ~rhs] is [(a, lhs -> a holds)] for every
    [a] of [rhs], in order. [lhs] should be normalized
    ([Attribute.Names.normalize]) so memoized verdicts are shared with
    single-FD checks. [supervise] is polled once per batched pass; a
    trip raises [Supervise.Interrupt] for the discovery loop to catch at
    a group boundary. *)

val ind_batch :
  ?engine:Engine.t ->
  ?supervise:Supervise.t ->
  Database.t ->
  (side * side) list ->
  counts list
(** [ind_batch db probes] answers every [(left, right)] probe, in
    order. Every relation mentioned must resolve in [db] and every
    attribute in its relation (raises [Not_found] / [Invalid_argument]
    otherwise — filter with resolvability first, as IND-Discovery
    does). [supervise] is polled per side build and per probe; a trip
    raises [Supervise.Interrupt]. *)
