type budget = {
  deadline_s : float option;
  max_heap_words : int option;
  on_exhausted : [ `Partial | `Fail ];
}

type t = { budget : budget }

let make ?deadline_s ?max_heap_words ?(on_exhausted = `Partial) ?spill_dir
    ?resident_budget_words ?segment_rows () =
  (* out-of-core parameters configure the process-wide Ooc policy (the
     thing being budgeted — the heap — is process-wide); the engine
     record itself stays pure data so job specs round-trip unchanged *)
  if spill_dir <> None || resident_budget_words <> None || segment_rows <> None
  then Ooc.configure ?spill_dir ?resident_budget_words ?segment_rows ();
  { budget = { deadline_s; max_heap_words; on_exhausted } }

(* a fresh token per call: deadlines are anchored at creation, so the
   pipeline mints one per run, not one per engine value *)
let supervisor t =
  match t.budget with
  | { deadline_s = None; max_heap_words = None; _ } -> Supervise.unlimited
  | { deadline_s; max_heap_words; _ } ->
      Supervise.create ?deadline_s ?max_heap_words ()

let fail_on_exhausted t = t.budget.on_exhausted = `Fail

let default = make ()

let pp ppf t =
  let b = t.budget in
  let fields =
    List.filter_map Fun.id
      [
        Option.map (Printf.sprintf "deadline=%gs") b.deadline_s;
        Option.map (Printf.sprintf "max-heap=%dw") b.max_heap_words;
        (if b.on_exhausted = `Fail then Some "fail-on-exhausted" else None);
      ]
  in
  Format.pp_print_string ppf
    (if fields = [] then "unbudgeted" else String.concat "/" fields)

let to_string t = Format.asprintf "%a" pp t
