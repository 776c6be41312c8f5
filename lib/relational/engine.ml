type parallelism = Sequential | Domains of int

type budget = {
  deadline_s : float option;
  max_heap_words : int option;
  on_exhausted : [ `Partial | `Fail ];
}

type t = { parallelism : parallelism; budget : budget }

let no_budget = { deadline_s = None; max_heap_words = None; on_exhausted = `Partial }

let make ?(parallelism = Sequential) ?deadline_s ?max_heap_words
    ?(on_exhausted = `Partial) ?spill_dir ?resident_budget_words ?segment_rows
    () =
  (* out-of-core parameters configure the process-wide Ooc policy (the
     thing being budgeted — the heap — is process-wide); the engine
     record itself stays pure data so job specs round-trip unchanged *)
  if spill_dir <> None || resident_budget_words <> None || segment_rows <> None
  then Ooc.configure ?spill_dir ?resident_budget_words ?segment_rows ();
  { parallelism; budget = { deadline_s; max_heap_words; on_exhausted } }

let with_budget ?deadline_s ?max_heap_words ?on_exhausted t =
  let b = t.budget in
  {
    t with
    budget =
      {
        deadline_s = (match deadline_s with Some _ -> deadline_s | None -> b.deadline_s);
        max_heap_words =
          (match max_heap_words with Some _ -> max_heap_words | None -> b.max_heap_words);
        on_exhausted = Option.value on_exhausted ~default:b.on_exhausted;
      };
  }

(* a fresh token per call: deadlines are anchored at creation, so the
   pipeline mints one per run, not one per engine value *)
let supervisor t =
  match t.budget with
  | { deadline_s = None; max_heap_words = None; _ } -> Supervise.unlimited
  | { deadline_s; max_heap_words; _ } ->
      Supervise.create ?deadline_s ?max_heap_words ()

let fail_on_exhausted t = t.budget.on_exhausted = `Fail

let default = make ()

(* hosts can recommend absurd counts (128-core build machines); past
   ~16 domains every stage here is memory-bound and extra workers only
   buy GC-barrier contention *)
let max_domains = 16

let parallel ?domains () =
  let n =
    match domains with
    | Some d -> max 1 d
    | None -> min max_domains (Stdlib.Domain.recommended_domain_count ())
  in
  make ~parallelism:(if n <= 1 then Sequential else Domains n) ()

let domain_count t =
  match t.parallelism with Sequential -> 1 | Domains n -> max 1 n

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "default" -> Some default
  | "parallel" -> Some (parallel ())
  | s when String.length s > 9 && String.sub s 0 9 = "parallel:" -> (
      match int_of_string_opt (String.sub s 9 (String.length s - 9)) with
      | Some n when n >= 1 -> Some (parallel ~domains:n ())
      | _ -> None)
  | _ -> None

let pp ppf t =
  Format.pp_print_string ppf
    (match t.parallelism with
    | Sequential -> "sequential"
    | Domains n -> Printf.sprintf "%d-domains" n);
  (match t.budget.deadline_s with
  | Some d -> Format.fprintf ppf "/deadline=%gs" d
  | None -> ());
  (match t.budget.max_heap_words with
  | Some w -> Format.fprintf ppf "/max-heap=%dw" w
  | None -> ());
  if t.budget <> no_budget && t.budget.on_exhausted = `Fail then
    Format.fprintf ppf "/fail-on-exhausted"

let to_string t = Format.asprintf "%a" pp t

let describe t =
  let d = Column_store.delta_stats () in
  let c = Ooc.config () in
  let o = Ooc.stats () in
  Printf.sprintf
    "%s [%d domain%s resolved; host recommends %d, cap %d] [delta: %g \
     fallback, %d rows absorbed, %d incremental / %d full refreshes] [ooc: \
     %d-row segments, spill %s, budget %s, %d resident segs (%d words), %d \
     spills / %d maps / %d evictions, %d segments swept]"
    (to_string t) (domain_count t)
    (if domain_count t = 1 then "" else "s")
    (Stdlib.Domain.recommended_domain_count ())
    max_domains Column_store.delta_fraction d.Column_store.rows_absorbed
    d.Column_store.incremental_refreshes d.Column_store.full_rebuilds
    c.Ooc.segment_rows
    (match c.Ooc.spill_dir with Some dir -> dir | None -> "off")
    (match c.Ooc.resident_budget_words with
    | Some w -> Printf.sprintf "%dw" w
    | None -> "off")
    o.Ooc.resident_segments o.Ooc.resident_words o.Ooc.spill_writes
    o.Ooc.map_loads o.Ooc.evictions o.Ooc.zone_segments_swept

let pool t =
  match t.parallelism with
  | Sequential -> None
  | Domains n when n <= 1 -> None
  | Domains n -> Some (Domain_pool.get (min n max_domains))
