(* The analysis daemon: see server.mli. *)

open Relational

type job_state = Queued | Running | Done | Failed | Cancelled

let state_to_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed -> "failed"
  | Cancelled -> "cancelled"

let settled = function
  | Done | Failed | Cancelled -> true
  | Queued | Running -> false

type entry = {
  id : string;
  spec : Dbre.Job_spec.t;
  mutable supervise : Supervise.t;
      (* replaced with a fresh token per (re-)verification: the original
         may be latched tripped by a cancel or budget from the last run *)
  mutable state : job_state;
  mutable cancel_requested : bool;
  mutable events : Json.t list;  (* newest first *)
  mutable next_seq : int;
  mutable artifacts : (string * string) list;
  mutable error : Json.t;  (* Null until a failure *)
  mutable db : Database.t option;
      (* the loaded database, retained after the run settles so mutate /
         refresh can re-verify without reloading; None until the first
         run's load completes (and for jobs adopted from a state dir,
         whose extension was never this process's) *)
  mutable quarantine : Quarantine.report list;
  mutable refreshes : int;  (* delta re-verifications completed *)
}

type t = {
  socket_path : string;
  state_dir : string option;
  max_jobs : int;
  mutex : Mutex.t;
  cond : Condition.t;
      (* events, settlement and shutdown: what watchers and [run] wait on *)
  work : Condition.t;
      (* a queued job or [stop]: what idle workers wait on, so an event
         wakes no worker domain *)
  jobs : (string, entry) Hashtbl.t;
  mutable order : string list;  (* submission order, newest first *)
  mutable queue : string list;  (* pending ids, oldest first *)
  mutable next_id : int;
  mutable stopping : bool;
  mutable shutdown_requested : bool;
  mutable listener : Unix.file_descr option;
  mutable acceptor : Thread.t option;
  mutable workers : unit Stdlib.Domain.t list;
  mutable handlers : Thread.t list;
  mutable clients : Unix.file_descr list;
}

let socket t = t.socket_path

let locked t f =
  Mutex.lock t.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.mutex) f

(* ------------------------------------------------------------------ *)
(* Persistence: state_dir/<id>/{spec.json,status,error,artifacts/,ckpt/} *)
(* ------------------------------------------------------------------ *)

let job_dir t id =
  Option.map (fun dir -> Filename.concat dir id) t.state_dir

(* every file is published with the checkpoints' atomic write: a crash
   leaves the previous value or the new one, never a half-written file *)
let persist_status t entry =
  match job_dir t entry.id with
  | None -> ()
  | Some dir -> (
      try
        Dbre.Checkpoint.write_atomic
          (Filename.concat dir "status")
          (state_to_string entry.state);
        if entry.error <> Json.Null then
          Dbre.Checkpoint.write_atomic
            (Filename.concat dir "error")
            (Json.to_string entry.error);
        if settled entry.state && entry.artifacts <> [] then begin
          let adir = Filename.concat dir "artifacts" in
          Dbre.Checkpoint.ensure_dir adir;
          List.iter
            (fun (name, text) ->
              Dbre.Checkpoint.write_atomic (Filename.concat adir name) text)
            entry.artifacts
        end
      with Sys_error _ -> ())

let persist_spec t entry =
  match job_dir t entry.id with
  | None -> ()
  | Some dir -> (
      try
        Dbre.Checkpoint.ensure_dir dir;
        Dbre.Checkpoint.write_atomic
          (Filename.concat dir "spec.json")
          (Dbre.Job_spec.to_string entry.spec);
        persist_status t entry
      with Sys_error _ -> ())

(* ------------------------------------------------------------------ *)
(* Events                                                              *)
(* ------------------------------------------------------------------ *)

let error_json (e : Error.t) =
  Json.Obj
    ([ ("code", Json.String (Error.code_to_string e.Error.code)) ]
    @ (match e.Error.stage with
      | Some s -> [ ("stage", Json.String (Error.stage_to_string s)) ]
      | None -> [])
    @ (match e.Error.relation with
      | Some r -> [ ("relation", Json.String r) ]
      | None -> [])
    @ [ ("message", Json.String e.Error.message) ])

(* caller holds the lock *)
let push_event t entry fields =
  let seq = entry.next_seq in
  entry.next_seq <- seq + 1;
  entry.events <- Json.Obj (("seq", Json.Int seq) :: fields) :: entry.events;
  Condition.broadcast t.cond

let job_event = function
  | Dbre.Job.Loading rel ->
      [ ("kind", Json.String "loading"); ("relation", Json.String rel) ]
  | Dbre.Job.Loaded (rel, rows) ->
      [
        ("kind", Json.String "loaded");
        ("relation", Json.String rel);
        ("rows", Json.Int rows);
      ]
  | Dbre.Job.Stage ev ->
      let phase stage name =
        [
          ("kind", Json.String "stage");
          ("stage", Json.String (Error.stage_to_string stage));
          ("phase", Json.String name);
        ]
      in
      (match ev with
      | Dbre.Pipeline.Stage_started s -> phase s "started"
      | Dbre.Pipeline.Stage_restored s -> phase s "restored"
      | Dbre.Pipeline.Stage_finished s -> phase s "finished"
      | Dbre.Pipeline.Stage_failed (s, e) ->
          phase s "failed" @ [ ("error", error_json e) ])

let diagnostic_json (d : Dbre_lint.Diagnostic.t) =
  Json.Obj
    [
      ("kind", Json.String "diagnostic");
      ("code", Json.String d.Dbre_lint.Diagnostic.code);
      ( "severity",
        Json.String
          (Dbre_lint.Diagnostic.severity_to_string
             d.Dbre_lint.Diagnostic.severity) );
      ("message", Json.String d.Dbre_lint.Diagnostic.message);
    ]

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

(* [outcome] is what the run produced; a cancel that reached the job
   before this lock (and so was answered "running") still wins. Reading
   [cancel_requested] outside the lock would let such a cancel land in
   the gap and the job settle as its outcome. The run's [error] and
   [artifacts] (when it has them) are written in the same locked
   section: handlers on other domains read them under the lock and must
   never see a settled state without them. *)
let settle ?error ?artifacts t entry outcome =
  locked t (fun () ->
      let state = if entry.cancel_requested then Cancelled else outcome in
      Option.iter (fun e -> entry.error <- e) error;
      Option.iter (fun a -> entry.artifacts <- a) artifacts;
      entry.state <- state;
      push_event t entry
        [
          ("kind", Json.String "settled");
          ("state", Json.String (state_to_string state));
        ];
      persist_status t entry)

(* the daemon always checkpoints into its state dir (unless the spec
   pins its own directory) and always offers resume: a fresh job
   restores nothing, a job re-adopted after a crash restores every
   stage its previous incarnation completed *)
let effective_spec t entry =
  match (job_dir t entry.id, entry.spec.Dbre.Job_spec.checkpoint_dir) with
  | Some dir, None ->
      {
        entry.spec with
        Dbre.Job_spec.checkpoint_dir = Some (Filename.concat dir "ckpt");
        resume = true;
      }
  | _ -> entry.spec

let settle_result t entry result =
  match result with
  | Ok result ->
      settle ~artifacts:(Dbre.Report.artifacts result) ~error:Json.Null t
        entry Done
  | Error partial ->
      settle ~error:(error_json partial.Dbre.Pipeline.p_error) t entry Failed

let crash_json exn =
  Json.Obj
    [
      ("code", Json.String "crashed");
      ("message", Json.String (Printexc.to_string exn));
    ]

let run_entry t entry =
  locked t (fun () ->
      entry.state <- Running;
      persist_status t entry);
  let spec = effective_spec t entry in
  let progress ev = locked t (fun () -> push_event t entry (job_event ev)) in
  try
    match Dbre.Job.database ~supervise:entry.supervise ~progress spec with
    | Error e -> settle ~error:(error_json e) t entry Failed
    | Ok (db, quarantine) ->
        (* retain the loaded database: mutate / refresh re-verify it
           in place instead of reloading *)
        locked t (fun () ->
            entry.db <- Some db;
            entry.quarantine <- quarantine);
        settle_result t entry
          (Dbre.Job.verify ~progress ~supervise:entry.supervise ~db
             ~quarantine spec)
  with exn -> settle ~error:(crash_json exn) t entry Failed

let rec worker t =
  let job =
    locked t (fun () ->
        let rec wait () =
          if t.stopping then None
          else
            match t.queue with
            | id :: rest ->
                t.queue <- rest;
                Hashtbl.find_opt t.jobs id
            | [] ->
                Condition.wait t.work t.mutex;
                wait ()
        in
        wait ())
  in
  match job with
  | None -> ()
  | Some entry ->
      (* a job cancelled while still queued settles without running *)
      if entry.cancel_requested then settle t entry Cancelled
      else run_entry t entry;
      worker t

(* ------------------------------------------------------------------ *)
(* Request handling                                                    *)
(* ------------------------------------------------------------------ *)

let fresh_id t =
  let id = Printf.sprintf "job-%06d" t.next_id in
  t.next_id <- t.next_id + 1;
  id

let enqueue t entry =
  Hashtbl.replace t.jobs entry.id entry;
  t.order <- entry.id :: t.order;
  t.queue <- t.queue @ [ entry.id ];
  Condition.signal t.work

let submit t spec_json =
  match Dbre.Job_spec.of_json spec_json with
  | Error msg -> Protocol.error ~code:"spec-invalid" msg
  | Ok { oracle = Dbre.Oracle.Interactive; _ } ->
      Protocol.error ~code:"spec-invalid"
        "the interactive oracle needs a terminal; the daemon runs none"
  | Ok spec ->
      let diags = Dbre_lint.Rules_verify.check_job spec in
      locked t (fun () ->
          if t.stopping || t.shutdown_requested then
            Protocol.error ~code:"shutting-down"
              "the server is shutting down and accepts no new jobs"
          else begin
            let entry =
              {
                id = fresh_id t;
                spec;
                supervise = Dbre.Job_spec.supervisor spec;
                state = Queued;
                cancel_requested = false;
                events = [];
                next_seq = 0;
                artifacts = [];
                error = Json.Null;
                db = None;
                quarantine = [];
                refreshes = 0;
              }
            in
            (* surface the source/schema lint before any work happens:
               in the event stream and in the submit response *)
            List.iter
              (fun d ->
                match diagnostic_json d with
                | Json.Obj fields -> push_event t entry fields
                | _ -> ())
              diags;
            persist_spec t entry;
            enqueue t entry;
            Protocol.ok
              [
                ("id", Json.String entry.id);
                ("diagnostics", Json.List (List.map diagnostic_json diags));
              ]
          end)

let find t id =
  match id with
  | None -> Error (Protocol.error ~code:"bad-request" "missing \"id\"")
  | Some id -> (
      match Hashtbl.find_opt t.jobs id with
      | Some e -> Ok e
      | None -> Error (Protocol.error ~code:"unknown-job" id))

(* per-table segment residency of the loaded database's stores: which
   sealed segments exist, which are warm, which live on disk, at what
   pack widths, and the words the dictionaries hold (outside the
   budget) *)
let residency_json db =
  match db with
  | None -> Json.Null
  | Some db ->
      Json.List
        (List.filter_map
           (fun (rel : Relation.t) ->
             Option.map
               (fun tbl ->
                 let r = Column_store.residency (Table.store tbl) in
                 Json.Obj
                   [
                     ("table", Json.String rel.Relation.name);
                     ("sealed_segments", Json.Int r.Column_store.sealed_segments);
                     ("resident_segments", Json.Int r.Column_store.resident_segments);
                     ("dict_words", Json.Int r.Column_store.dict_words);
                     ("spilled_segments", Json.Int r.Column_store.spilled_segments);
                     ("tail_rows", Json.Int r.Column_store.tail_rows);
                     ( "width_histogram",
                       Json.Obj
                         (List.map
                            (fun (w, n) -> (string_of_int w, Json.Int n))
                            r.Column_store.width_histogram) );
                   ])
               (Database.table_opt db rel.Relation.name))
           (Schema.relations (Database.schema db)))

let status_fields entry =
  let d = Column_store.delta_stats () in
  let oc = Ooc.config () in
  let os = Ooc.stats () in
  [
    ("id", Json.String entry.id);
    ("label", Json.opt_string entry.spec.Dbre.Job_spec.label);
    ("state", Json.String (state_to_string entry.state));
    ("events", Json.Int entry.next_seq);
    ("error", entry.error);
    ("refreshes", Json.Int entry.refreshes);
    ( "delta",
      (* the delta-cache statistics behind this job's verdicts: the
         fallback fraction plus the process-wide maintenance counters
         (Column_store.delta_stats) *)
      Json.Obj
        [
          ("fraction", Json.Float Column_store.delta_fraction);
          ("rows_absorbed", Json.Int d.Column_store.rows_absorbed);
          ( "incremental_refreshes",
            Json.Int d.Column_store.incremental_refreshes );
          ("full_rebuilds", Json.Int d.Column_store.full_rebuilds);
        ] );
    ( "ooc",
      (* the process-wide out-of-core policy and its counters, plus the
         per-store segment residency of this job's database *)
      Json.Obj
        [
          ("segment_rows", Json.Int oc.Ooc.segment_rows);
          ("spill_dir", Json.opt_string oc.Ooc.spill_dir);
          ( "resident_budget_words",
            match oc.Ooc.resident_budget_words with
            | Some w -> Json.Int w
            | None -> Json.Null );
          ("resident_segments", Json.Int os.Ooc.resident_segments);
          ("resident_words", Json.Int os.Ooc.resident_words);
          ("spill_writes", Json.Int os.Ooc.spill_writes);
          ("map_loads", Json.Int os.Ooc.map_loads);
          ("evictions", Json.Int os.Ooc.evictions);
          ("zone_segments_swept", Json.Int os.Ooc.zone_segments_swept);
          ("stores", residency_json entry.db);
        ] );
  ]

(* JSON scalars map to values the way CSV fields do: explicit typed
   scalars directly, strings through the same most-specific-type guess
   the loader applies — so a mutated row is indistinguishable from one
   that arrived in the original extension *)
let value_of_json = function
  | Json.Null -> Ok Value.Null
  | Json.Bool b -> Ok (Value.Bool b)
  | Json.Int i -> Ok (Value.Int i)
  | Json.Float f -> Ok (Value.Float f)
  | Json.String s -> Ok (Value.parse s)
  | Json.List _ | Json.Obj _ -> Error "row cells must be JSON scalars"

let rows_of_json =
  Json.decode_list (function
    | Json.List cells -> Json.decode_list value_of_json cells
    | _ -> Error "\"insert\" must be a list of rows (lists of scalars)")

let indices_of_json =
  Json.decode_list (function
    | Json.Int i -> Ok i
    | _ -> Error "\"delete\" must be a list of row indices")

(* caller holds the lock; entry is settled and its database present *)
let apply_mutation t entry db request =
  match Json.mem_string "relation" request with
  | None -> Protocol.error ~code:"bad-request" "mutate needs \"relation\""
  | Some rel -> (
      match Database.table_opt db rel with
      | None -> Protocol.error ~code:"unknown-relation" rel
      | Some table -> (
          let inserts =
            Option.value ~default:[] (Json.mem_list "insert" request)
          in
          let deletes =
            Option.value ~default:[] (Json.mem_list "delete" request)
          in
          match (rows_of_json inserts, indices_of_json deletes) with
          | Error msg, _ | _, Error msg ->
              Protocol.error ~code:"bad-request" msg
          | Ok rows, Ok idxs -> (
              let arity = Relation.arity (Table.schema table) in
              match
                List.find_opt (fun r -> List.length r <> arity) rows
              with
              | Some bad ->
                  Protocol.error ~code:"bad-request"
                    (Printf.sprintf
                       "%s: arity mismatch (%d cells, expected %d)" rel
                       (List.length bad) arity)
              | None -> (
                  (* deletes address the pre-mutation numbering and are
                     validated (and applied) before the appends; a bad
                     index leaves the table untouched *)
                  match Table.delete_rows table idxs with
                  | exception Invalid_argument msg ->
                      Protocol.error ~code:"bad-request" msg
                  | () ->
                      Table.insert_many table rows;
                      push_event t entry
                        [
                          ("kind", Json.String "mutated");
                          ("relation", Json.String rel);
                          ("inserted", Json.Int (List.length rows));
                          ("deleted", Json.Int (List.length idxs));
                        ];
                      Protocol.ok
                        [
                          ("relation", Json.String rel);
                          ("cardinality", Json.Int (Table.cardinality table));
                          ("version", Json.Int (Table.version table));
                          ("inserted", Json.Int (List.length rows));
                          ("deleted", Json.Int (List.length idxs));
                        ]))))

let refresh_report_json (r : Dbre.Refresh.report) =
  Json.Obj
    [
      ("fresh", Json.Int r.Dbre.Refresh.fresh);
      ("incremental", Json.Int r.Dbre.Refresh.absorbed);
      ("rebuilt", Json.Int r.Dbre.Refresh.rebuilt);
      ("rows_applied", Json.Int r.Dbre.Refresh.rows_applied);
      ( "relations",
        Json.Obj
          (List.map
             (fun (name, o) ->
               ( name,
                 Json.String
                   (Format.asprintf "%a" Dbre.Refresh.pp_outcome o) ))
             r.Dbre.Refresh.relations) );
    ]

(* Synchronous delta re-verification of a settled job, in the handler
   thread: claim the entry (Running) under the lock, run the refresh
   outside it, settle, reply with the refresh report and final state. *)
let refresh_job t id =
  let claim =
    locked t (fun () ->
        match find t id with
        | Error e -> Error e
        | Ok entry ->
            if t.stopping || t.shutdown_requested then
              Error
                (Protocol.error ~code:"shutting-down"
                   "the server is shutting down and accepts no new work")
            else if not (settled entry.state) then
              Error
                (Protocol.error ~code:"not-settled"
                   (Printf.sprintf "job %s is %s" entry.id
                      (state_to_string entry.state)))
            else
              match entry.db with
              | None ->
                  Error
                    (Protocol.error ~code:"no-database"
                       (Printf.sprintf
                          "job %s holds no loaded database (adopted from a \
                           previous process?) — resubmit it instead"
                          entry.id))
              | Some db ->
                  entry.state <- Running;
                  entry.cancel_requested <- false;
                  (* the previous token may be latched (cancel, budget) *)
                  entry.supervise <- Dbre.Job_spec.supervisor entry.spec;
                  push_event t entry
                    [ ("kind", Json.String "refresh-started") ];
                  persist_status t entry;
                  Ok (entry, db))
  in
  match claim with
  | Error e -> e
  | Ok (entry, db) -> (
      let spec = effective_spec t entry in
      let progress ev =
        locked t (fun () -> push_event t entry (job_event ev))
      in
      match
        Dbre.Job.refresh ~progress ~supervise:entry.supervise ~db
          ~quarantine:entry.quarantine spec
      with
      | report, result ->
          locked t (fun () ->
              entry.refreshes <- entry.refreshes + 1;
              push_event t entry
                (("kind", Json.String "refreshed")
                :: [ ("report", refresh_report_json report) ]));
          settle_result t entry result;
          locked t (fun () ->
              Protocol.ok
                (("report", refresh_report_json report)
                :: status_fields entry))
      | exception exn ->
          settle ~error:(crash_json exn) t entry Failed;
          Protocol.error ~code:"crashed" (Printexc.to_string exn))

let events_since entry since =
  List.filter
    (fun ev ->
      match Json.mem_int "seq" ev with Some s -> s >= since | None -> false)
    (List.rev entry.events)

let events_response entry since =
  Protocol.ok
    [
      ("events", Json.List (events_since entry since));
      ("next", Json.Int entry.next_seq);
      ("settled", Json.Bool (settled entry.state));
    ]

let handle t request =
  match Json.mem_string "op" request with
  | None ->
      Protocol.error ~code:"bad-request" "request object has no \"op\" field"
  | Some op -> (
      let id = Json.mem_string "id" request in
      match op with
      | "ping" -> Protocol.ok [ ("pong", Json.Bool true) ]
      | "submit" -> (
          match Json.member "spec" request with
          | None -> Protocol.error ~code:"bad-request" "submit needs \"spec\""
          | Some spec -> submit t spec)
      | "status" ->
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry -> Protocol.ok (status_fields entry))
      | "events" ->
          let since =
            Option.value ~default:0 (Json.mem_int "since" request)
          in
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry -> events_response entry since)
      | "watch" ->
          let since =
            Option.value ~default:0 (Json.mem_int "since" request)
          in
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry ->
                  let rec wait () =
                    if
                      entry.next_seq > since
                      || settled entry.state
                      || t.stopping
                    then events_response entry since
                    else begin
                      Condition.wait t.cond t.mutex;
                      wait ()
                    end
                  in
                  wait ())
      | "mutate" ->
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry -> (
                  if not (settled entry.state) then
                    Protocol.error ~code:"not-settled"
                      (Printf.sprintf "job %s is %s" entry.id
                         (state_to_string entry.state))
                  else
                    match entry.db with
                    | None ->
                        Protocol.error ~code:"no-database"
                          (Printf.sprintf
                             "job %s holds no loaded database (adopted from \
                              a previous process?) — resubmit it instead"
                             entry.id)
                    | Some db -> apply_mutation t entry db request))
      | "refresh" -> refresh_job t id
      | "cancel" ->
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry ->
                  if not (settled entry.state) then begin
                    entry.cancel_requested <- true;
                    Supervise.cancel entry.supervise;
                    (* a queued job settles right here; a running one
                       settles when its runner observes the trip *)
                    if entry.state = Queued then begin
                      t.queue <-
                        List.filter (fun i -> i <> entry.id) t.queue;
                      entry.state <- Cancelled;
                      push_event t entry
                        [
                          ("kind", Json.String "settled");
                          ("state", Json.String "cancelled");
                        ];
                      persist_status t entry
                    end
                  end;
                  Protocol.ok
                    [ ("state", Json.String (state_to_string entry.state)) ])
      | "artifacts" ->
          locked t (fun () ->
              match find t id with
              | Error e -> e
              | Ok entry ->
                  if not (settled entry.state) then
                    Protocol.error ~code:"not-settled"
                      (Printf.sprintf "job %s is %s" entry.id
                         (state_to_string entry.state))
                  else
                    Protocol.ok
                      [
                        ( "artifacts",
                          Json.Obj
                            (List.map
                               (fun (name, text) -> (name, Json.String text))
                               entry.artifacts) );
                        ("state", Json.String (state_to_string entry.state));
                        ("error", entry.error);
                      ])
      | "jobs" ->
          locked t (fun () ->
              Protocol.ok
                [
                  ( "jobs",
                    Json.List
                      (List.rev_map
                         (fun id ->
                           match Hashtbl.find_opt t.jobs id with
                           | Some e -> Json.Obj (status_fields e)
                           | None -> Json.Null)
                         t.order) );
                ])
      | "shutdown" ->
          locked t (fun () ->
              t.shutdown_requested <- true;
              Condition.broadcast t.cond);
          Protocol.ok []
      | op -> Protocol.error ~code:"unknown-op" op)

let handle_connection t fd =
  let rec loop () =
    match Protocol.read_frame fd with
    | exception Protocol.Closed -> ()
    | exception Protocol.Frame_error msg ->
        (* framing is broken: report once and drop the connection (we
           can no longer find the next frame boundary) *)
        (try Protocol.write_frame fd (Protocol.error ~code:"bad-frame" msg)
         with _ -> ())
    | exception Unix.Unix_error _ -> ()
    | payload ->
        (* whatever a request raises comes back as a typed error, and
           the connection keeps serving *)
        let response =
          try
            match Json.of_string payload with
            | Json.Obj _ as request -> handle t request
            | _ ->
                Protocol.error ~code:"bad-request"
                  "request frame must be a JSON object"
          with
          | Json.Parse_error msg -> Protocol.error ~code:"bad-json" msg
          | e -> Protocol.error ~code:"internal-error" (Printexc.to_string e)
        in
        (match Protocol.write_frame fd response with
        | () -> loop ()
        | exception _ -> ())
  in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close fd with Unix.Unix_error _ -> ());
      locked t (fun () ->
          t.clients <- List.filter (fun c -> c <> fd) t.clients))
    loop

let acceptor t listener =
  let rec loop () =
    match Unix.accept listener with
    | exception Unix.Unix_error _ -> ()  (* listener closed: stopping *)
    | fd, _ ->
        let continue =
          locked t (fun () ->
              if t.stopping then begin
                (try Unix.close fd with Unix.Unix_error _ -> ());
                false
              end
              else begin
                t.clients <- fd :: t.clients;
                t.handlers <-
                  Thread.create (handle_connection t) fd :: t.handlers;
                true
              end)
        in
        if continue then loop ()
  in
  loop ()

(* ------------------------------------------------------------------ *)
(* State-dir adoption                                                  *)
(* ------------------------------------------------------------------ *)

let adopt_state t =
  match t.state_dir with
  | None -> ()
  | Some dir when not (Sys.file_exists dir) -> Dbre.Checkpoint.ensure_dir dir
  | Some dir ->
      let ids =
        Sys.readdir dir |> Array.to_list
        |> List.filter (fun id ->
               String.length id > 4
               && String.sub id 0 4 = "job-"
               && Sys.file_exists
                    (Filename.concat (Filename.concat dir id) "spec.json"))
        |> List.sort String.compare
      in
      List.iter
        (fun id ->
          let jdir = Filename.concat dir id in
          match
            Dbre.Job_spec.of_string
              In_channel.(
                with_open_bin (Filename.concat jdir "spec.json") input_all)
          with
          | exception Sys_error _ -> ()
          | Error _ -> ()
          | Ok spec ->
              (* keep the id counter ahead of every adopted job *)
              (match
                 int_of_string_opt (String.sub id 4 (String.length id - 4))
               with
              | Some n when n >= t.next_id -> t.next_id <- n + 1
              | _ -> ());
              let status =
                match
                  In_channel.(
                    with_open_bin (Filename.concat jdir "status") input_all)
                with
                | s -> s
                | exception Sys_error _ -> "queued"
              in
              let state =
                match status with
                | "done" -> Done
                | "failed" -> Failed
                | "cancelled" -> Cancelled
                | _ -> Queued  (* queued or running: the crash lost it *)
              in
              let artifacts =
                let adir = Filename.concat jdir "artifacts" in
                if settled state && Sys.file_exists adir then
                  Sys.readdir adir |> Array.to_list |> List.sort compare
                  |> List.filter_map (fun name ->
                         match
                           In_channel.(
                             with_open_bin (Filename.concat adir name) input_all)
                         with
                         | text -> Some (name, text)
                         | exception Sys_error _ -> None)
                else []
              in
              let error =
                let epath = Filename.concat jdir "error" in
                if Sys.file_exists epath then
                  match
                    Json.of_string In_channel.(with_open_bin epath input_all)
                  with
                  | j -> j
                  | exception _ -> Json.Null
                else Json.Null
              in
              let entry =
                {
                  id;
                  spec;
                  supervise = Dbre.Job_spec.supervisor spec;
                  state;
                  cancel_requested = false;
                  events = [];
                  next_seq = 0;
                  artifacts;
                  error;
                  db = None;
                  quarantine = [];
                  refreshes = 0;
                }
              in
              Hashtbl.replace t.jobs id entry;
              t.order <- id :: t.order;
              if state = Queued then begin
                entry.state <- Queued;
                persist_status t entry;
                t.queue <- t.queue @ [ id ]
              end)
        ids

(* ------------------------------------------------------------------ *)
(* Lifecycle                                                           *)
(* ------------------------------------------------------------------ *)

(* hosts can recommend absurd core counts; past ~16 domains every stage
   here is memory-bound and extra workers only buy GC-barrier
   contention *)
let max_jobs_cap = 16

let create ?(max_jobs = 2) ?state_dir ~socket () =
  if max_jobs < 0 || max_jobs > max_jobs_cap then
    invalid_arg
      (Printf.sprintf "Server.create: max_jobs must be between 0 and %d, got %d"
         max_jobs_cap max_jobs);
  {
    socket_path = socket;
    state_dir;
    max_jobs;
    mutex = Mutex.create ();
    cond = Condition.create ();
    work = Condition.create ();
    jobs = Hashtbl.create 16;
    order = [];
    queue = [];
    next_id = 1;
    stopping = false;
    shutdown_requested = false;
    listener = None;
    acceptor = None;
    workers = [];
    handlers = [];
    clients = [];
  }

let start t =
  (* a peer hanging up mid-reply must surface as EPIPE, not kill the
     daemon *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  adopt_state t;
  let listener = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.unlink t.socket_path with Unix.Unix_error _ -> ());
  Unix.bind listener (Unix.ADDR_UNIX t.socket_path);
  Unix.listen listener 16;
  t.listener <- Some listener;
  t.acceptor <- Some (Thread.create (acceptor t) listener);
  t.workers <-
    List.init t.max_jobs (fun _ -> Stdlib.Domain.spawn (fun () -> worker t))

let stop t =
  let already =
    locked t (fun () ->
        let was = t.stopping in
        t.stopping <- true;
        Condition.broadcast t.cond;
        Condition.broadcast t.work;
        was)
  in
  if not already then begin
    (* closing a listener does not reliably wake a thread blocked in
       accept(2): poke it with a throwaway connection instead — the
       acceptor sees [stopping] and exits *)
    (try
       let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
       (try Unix.connect fd (Unix.ADDR_UNIX t.socket_path)
        with Unix.Unix_error _ -> ());
       try Unix.close fd with Unix.Unix_error _ -> ()
     with Unix.Unix_error _ -> ());
    Option.iter Thread.join t.acceptor;
    t.acceptor <- None;
    (match t.listener with
    | Some fd ->
        t.listener <- None;
        (try Unix.close fd with Unix.Unix_error _ -> ())
    | None -> ());
    (* unblock handler threads parked in read *)
    locked t (fun () ->
        List.iter
          (fun fd ->
            try Unix.shutdown fd Unix.SHUTDOWN_ALL
            with Unix.Unix_error _ -> ())
          t.clients);
    List.iter Stdlib.Domain.join t.workers;
    t.workers <- [];
    let handlers = locked t (fun () -> t.handlers) in
    List.iter Thread.join handlers;
    t.handlers <- [];
    try Unix.unlink t.socket_path with Unix.Unix_error _ | Sys_error _ -> ()
  end

let run t =
  start t;
  locked t (fun () ->
      while not (t.shutdown_requested || t.stopping) do
        Condition.wait t.cond t.mutex
      done);
  stop t
