(* The analysis daemon, driven in-process: concurrent submissions are
   byte-identical to local runs, cancel settles with a typed result,
   malformed frames get typed protocol errors, and a daemon restarted
   over its state dir resumes interrupted jobs from their checkpoints
   to the same bytes. *)

open Relational
module Job_spec = Dbre.Job_spec
module Server = Dbre_serve.Server
module Client = Dbre_serve.Client
module Protocol = Dbre_serve.Protocol

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let rec mkdir_p d =
  if not (Sys.file_exists d) then begin
    mkdir_p (Filename.dirname d);
    try Sys.mkdir d 0o755 with Sys_error _ -> ()
  end

(* unix sockets live under a ~107-byte path limit: keep them short *)
let socket_counter = ref 0

let fresh_socket () =
  incr socket_counter;
  Printf.sprintf "/tmp/dbre_t%d_%d.sock" (Unix.getpid ()) !socket_counter

let with_server ?max_jobs ?state_dir f =
  let server = Server.create ?max_jobs ?state_dir ~socket:(fresh_socket ()) () in
  Server.start server;
  Fun.protect ~finally:(fun () -> Server.stop server) (fun () -> f server)

let with_client server f =
  let c = Client.connect (Server.socket server) in
  Fun.protect ~finally:(fun () -> Client.close c) (fun () -> f c)

(* ------------------------------------------------------------------ *)
(* A small, fast job: two relations, one join, full six-stage run      *)
(* ------------------------------------------------------------------ *)

let ddl =
  "CREATE TABLE Emp (eid INT, dep VARCHAR(8), dname VARCHAR(16), PRIMARY KEY \
   (eid));\n\
   CREATE TABLE Dept (dep VARCHAR(8), dname VARCHAR(16), loc VARCHAR(8), \
   PRIMARY KEY (dep));"

let emp_csv ?(rows = 60) ~deps () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "eid,dep,dname\n";
  for i = 1 to rows do
    let d = i mod deps in
    Buffer.add_string b (Printf.sprintf "%d,d%d,dept-%d\n" i d d)
  done;
  Buffer.contents b

let dept_csv ~deps () =
  let b = Buffer.create 256 in
  Buffer.add_string b "dep,dname,loc\n";
  for d = 0 to deps - 1 do
    Buffer.add_string b (Printf.sprintf "d%d,dept-%d,loc-%d\n" d d d)
  done;
  Buffer.contents b

let script = "SELECT eid FROM Emp, Dept WHERE Emp.dep = Dept.dep"

let spec ?label ?(rows = 60) ?(deps = 4) ?engine ?fuel () =
  Job_spec.make ?label ?engine ?fuel
    ~sources:
      [
        ("Emp", Source.csv_inline (emp_csv ~rows ~deps ()));
        ("Dept", Source.csv_inline (dept_csv ~deps ()));
      ]
    ~ddl
    (Job_spec.Sql_scripts [ script ])

let local_artifacts spec =
  match Dbre.Job.run spec with
  | Ok result -> Dbre.Report.artifacts result
  | Error p ->
      Alcotest.failf "local run failed: %s"
        (Error.to_string p.Dbre.Pipeline.p_error)

let check_artifacts msg expected actual =
  Alcotest.(check (list (pair string string))) msg expected actual

let submit_exn client spec =
  match Client.submit client spec with
  | Ok (id, diags) -> (id, diags)
  | Error (code, msg) -> Alcotest.failf "submit: %s: %s" code msg

let wait_exn client id =
  match Client.wait client id with
  | Ok (state, artifacts) -> (state, artifacts)
  | Error (code, msg) -> Alcotest.failf "wait %s: %s: %s" id code msg

(* drain the whole event stream via watch until the job settles *)
let stream_events client id =
  let rec go since acc =
    match Client.watch client ~since id with
    | Error (code, msg) -> Alcotest.failf "watch %s: %s: %s" id code msg
    | Ok (evs, next, settled) ->
        let acc = acc @ evs in
        if settled then acc else go next acc
  in
  go 0 []

let kinds events =
  List.filter_map (fun ev -> Json.mem_string "kind" ev) events

(* ------------------------------------------------------------------ *)
(* Basics                                                              *)
(* ------------------------------------------------------------------ *)

let test_ping () =
  with_server @@ fun server ->
  with_client server @@ fun c ->
  Alcotest.(check bool) "pong" true (Client.ping c)

let test_one_job_byte_identical () =
  let s = spec ~label:"one" () in
  let expected = local_artifacts s in
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let id, diags = submit_exn c s in
  Alcotest.(check string) "first id" "job-000001" id;
  Alcotest.(check int) "clean spec, no diagnostics" 0 (List.length diags);
  let state, artifacts = wait_exn c id in
  Alcotest.(check string) "done" "done" state;
  check_artifacts "byte-identical to the local run" expected artifacts

let test_event_stream_shape () =
  let s = spec ~label:"events" () in
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let id, _ = submit_exn c s in
  let events = stream_events c id in
  let ks = kinds events in
  Alcotest.(check bool) "loading events for both relations" true
    (List.length (List.filter (( = ) "loading") ks) = 2
    && List.length (List.filter (( = ) "loaded") ks) = 2);
  let stage_phases =
    List.filter_map
      (fun ev ->
        match (Json.mem_string "kind" ev, Json.mem_string "phase" ev) with
        | Some "stage", Some p -> Some p
        | _ -> None)
      events
  in
  Alcotest.(check int) "six stages started" 6
    (List.length (List.filter (( = ) "started") stage_phases));
  Alcotest.(check int) "six stages finished" 6
    (List.length (List.filter (( = ) "finished") stage_phases));
  (match List.rev ks with
  | "settled" :: _ -> ()
  | _ -> Alcotest.fail "last event is not the settlement");
  (* the events op honors [since]: asking from the last sequence number
     returns exactly the settlement *)
  match Client.events c ~since:(List.length events - 1) id with
  | Ok ([ last ], _, true) ->
      Alcotest.(check (option string)) "tail event" (Some "settled")
        (Json.mem_string "kind" last)
  | Ok (evs, _, _) ->
      Alcotest.failf "expected 1 tail event, got %d" (List.length evs)
  | Error (code, msg) -> Alcotest.failf "events: %s: %s" code msg

let test_concurrent_jobs_byte_identical () =
  (* four different specs, submitted concurrently on four connections
     over two runner threads, must each match their own local run *)
  let specs =
    List.init 4 (fun i ->
        spec ~label:(Printf.sprintf "c%d" i) ~rows:(50 + (10 * i))
          ~deps:(3 + i) ())
  in
  let expected = List.map local_artifacts specs in
  with_server ~max_jobs:2 @@ fun server ->
  let results = Array.make 4 ("", []) in
  let threads =
    List.mapi
      (fun i s ->
        Thread.create
          (fun () ->
            with_client server @@ fun c ->
            let id, _ = submit_exn c s in
            results.(i) <- wait_exn c id)
          ())
      specs
  in
  List.iter Thread.join threads;
  List.iteri
    (fun i exp ->
      let state, artifacts = results.(i) in
      Alcotest.(check string) (Printf.sprintf "job %d done" i) "done" state;
      check_artifacts
        (Printf.sprintf "job %d byte-identical to its local run" i)
        exp artifacts)
    expected

(* ------------------------------------------------------------------ *)
(* Cancellation                                                        *)
(* ------------------------------------------------------------------ *)

let test_cancel_queued_job () =
  (* an accept-only daemon never runs the job: cancel settles it *)
  with_server ~max_jobs:0 @@ fun server ->
  with_client server @@ fun c ->
  let id, _ = submit_exn c (spec ~label:"parked" ()) in
  (match Client.status c id with
  | Ok st ->
      Alcotest.(check (option string)) "queued" (Some "queued")
        (Json.mem_string "state" st)
  | Error (code, msg) -> Alcotest.failf "status: %s: %s" code msg);
  (match Client.cancel c id with
  | Ok state -> Alcotest.(check string) "settled immediately" "cancelled" state
  | Error (code, msg) -> Alcotest.failf "cancel: %s: %s" code msg);
  match Client.artifacts c id with
  | Ok (artifacts, state) ->
      Alcotest.(check string) "cancelled" "cancelled" state;
      Alcotest.(check int) "no artifacts" 0 (List.length artifacts)
  | Error (code, msg) -> Alcotest.failf "artifacts: %s: %s" code msg

(* open a FIFO's write end once its reader has opened the read end
   (non-blocking opens fail with ENXIO until then); [None] if no reader
   shows up in time *)
let open_fifo_writer path =
  let rec go tries =
    match Unix.openfile path [ Unix.O_WRONLY; Unix.O_NONBLOCK ] 0 with
    | fd ->
        Unix.clear_nonblock fd;
        Some fd
    | exception Unix.Unix_error (Unix.ENXIO, _, _) when tries > 0 ->
        Thread.delay 0.01;
        go (tries - 1)
    | exception Unix.Unix_error (Unix.ENXIO, _, _) -> None
  in
  go 1000

let test_cancel_running_job () =
  (* the job's first source is a FIFO, so it blocks in Loading until
     the test writes it: the cancel deterministically lands while the
     job runs, and the job must settle as cancelled, not done, however
     quickly it finishes once fed *)
  let fifo =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbre_cancel_%d.fifo" (Unix.getpid ()))
  in
  rm_rf fifo;
  Unix.mkfifo fifo 0o600;
  let fed = ref false in
  let feed () =
    if not !fed then begin
      fed := true;
      match open_fifo_writer fifo with
      | Some fd -> (
          let text = emp_csv ~deps:4 () in
          (* the loader may see the latched cancel as soon as its open
             returns and close the read end before this write *)
          try
            ignore (Unix.write_substring fd text 0 (String.length text));
            Unix.close fd
          with Unix.Unix_error (Unix.EPIPE, _, _) -> Unix.close fd)
      | None -> ()
    end
  in
  Fun.protect ~finally:(fun () -> rm_rf fifo) @@ fun () ->
  let s =
    Job_spec.make ~label:"doomed"
      ~sources:
        [
          ("Emp", Source.csv_file fifo);
          ("Dept", Source.csv_inline (dept_csv ~deps:4 ()));
        ]
      ~ddl
      (Job_spec.Sql_scripts [ script ])
  in
  with_server ~max_jobs:1 @@ fun server ->
  with_client server @@ fun c ->
  (* feed before the daemon stops, even on failure: its runner is
     blocked on the FIFO until then *)
  Fun.protect ~finally:feed @@ fun () ->
  let id, diags = submit_exn c s in
  (* no pre-run diagnostic events, so the first event is the job's own
     and it is running, blocked on the FIFO *)
  Alcotest.(check int) "no pre-run diagnostics" 0 (List.length diags);
  (match Client.watch c id with
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "watch: %s: %s" code msg);
  (match Client.cancel c id with
  | Ok state ->
      Alcotest.(check string) "cancel answered while running" "running" state
  | Error (code, msg) -> Alcotest.failf "cancel: %s: %s" code msg);
  feed ();
  let state, _ = wait_exn c id in
  Alcotest.(check string) "settles as cancelled" "cancelled" state

let test_budget_trip_is_typed () =
  (* a fuel'd spec with a fail-on-exhausted budget trips mid-run: the
     daemon reports the typed resource-exhausted error over the wire *)
  let s =
    spec ~label:"tripped"
      ~engine:(Engine.with_budget ~on_exhausted:`Fail Engine.default)
      ~fuel:1 ()
  in
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let id, _ = submit_exn c s in
  let rec wait_settled () =
    match Client.status c id with
    | Error (code, msg) -> Alcotest.failf "status: %s: %s" code msg
    | Ok st -> (
        match Json.mem_string "state" st with
        | Some ("queued" | "running") ->
            Thread.yield ();
            wait_settled ()
        | Some state -> (state, st)
        | None -> Alcotest.fail "status without state")
  in
  let state, st = wait_settled () in
  Alcotest.(check string) "failed" "failed" state;
  match Json.member "error" st with
  | Some err ->
      Alcotest.(check (option string)) "typed error code"
        (Some "resource-exhausted")
        (Json.mem_string "code" err)
  | None -> Alcotest.fail "failed status carries no error"

(* ------------------------------------------------------------------ *)
(* Protocol errors                                                     *)
(* ------------------------------------------------------------------ *)

let raw_connect server =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX (Server.socket server));
  fd

let send_raw fd payload =
  let len = String.length payload in
  let buf = Bytes.create (4 + len) in
  Bytes.set buf 0 (Char.chr ((len lsr 24) land 0xff));
  Bytes.set buf 1 (Char.chr ((len lsr 16) land 0xff));
  Bytes.set buf 2 (Char.chr ((len lsr 8) land 0xff));
  Bytes.set buf 3 (Char.chr (len land 0xff));
  Bytes.blit_string payload 0 buf 4 len;
  ignore (Unix.write fd buf 0 (4 + len))

let response_code fd =
  match Protocol.error_of (Json.of_string (Protocol.read_frame fd)) with
  | Some (code, _) -> code
  | None -> "ok"

let test_malformed_frames () =
  with_server @@ fun server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  (* not JSON: typed error, connection survives *)
  send_raw fd "this is not json";
  Alcotest.(check string) "bad-json" "bad-json" (response_code fd);
  (* JSON but not an object *)
  Protocol.write_frame fd (Json.List [ Json.Int 1 ]);
  Alcotest.(check string) "bad-request (non-object)" "bad-request"
    (response_code fd);
  (* an object with no op *)
  Protocol.write_frame fd (Json.Obj []);
  Alcotest.(check string) "bad-request (no op)" "bad-request"
    (response_code fd);
  (* unknown op *)
  Protocol.write_frame fd (Protocol.request "frobnicate" []);
  Alcotest.(check string) "unknown-op" "unknown-op" (response_code fd);
  (* unknown job *)
  Protocol.write_frame fd
    (Protocol.request "status" [ ("id", Json.String "job-999999") ]);
  Alcotest.(check string) "unknown-job" "unknown-job" (response_code fd);
  (* submit without a spec *)
  Protocol.write_frame fd (Protocol.request "submit" []);
  Alcotest.(check string) "bad-request (no spec)" "bad-request"
    (response_code fd);
  (* submit with an invalid spec *)
  Protocol.write_frame fd
    (Protocol.request "submit" [ ("spec", Json.Obj []) ]);
  Alcotest.(check string) "spec-invalid" "spec-invalid" (response_code fd);
  (* the connection survived all of the above *)
  Protocol.write_frame fd (Protocol.request "ping" []);
  Alcotest.(check string) "still alive" "ok" (response_code fd)

let test_oversize_frame_closes_connection () =
  with_server @@ fun server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  (* announce a 32 MiB frame without sending it: refused and dropped *)
  let hdr = Bytes.of_string "\x02\x00\x00\x00" in
  ignore (Unix.write fd hdr 0 4);
  Alcotest.(check string) "bad-frame" "bad-frame" (response_code fd);
  match Protocol.read_frame fd with
  | exception Protocol.Closed -> ()
  | exception Protocol.Frame_error _ -> ()
  | _ -> Alcotest.fail "connection survived a broken frame boundary"

(* ------------------------------------------------------------------ *)
(* L207: sources vs. declared schema                                   *)
(* ------------------------------------------------------------------ *)

let test_l207_over_the_wire () =
  let bad =
    Job_spec.make ~label:"ghost"
      ~sources:[ ("Ghost", Source.csv_inline "a\n1\n") ]
      ~ddl (Job_spec.Sql_scripts [ script ])
  in
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let id, diags = submit_exn c bad in
  Alcotest.(check bool) "submit response carries L207" true
    (List.exists (fun d -> Json.mem_string "code" d = Some "L207") diags);
  let events = stream_events c id in
  (* the diagnostic is the job's first event, before any run activity *)
  (match events with
  | first :: _ ->
      Alcotest.(check (option string)) "diagnostic first" (Some "diagnostic")
        (Json.mem_string "kind" first)
  | [] -> Alcotest.fail "no events at all");
  (* the run itself then fails with the typed load error *)
  match Client.artifacts c id with
  | Ok (_, state) -> Alcotest.(check string) "failed" "failed" state
  | Error (code, msg) -> Alcotest.failf "artifacts: %s: %s" code msg

(* ------------------------------------------------------------------ *)
(* Crash recovery                                                      *)
(* ------------------------------------------------------------------ *)

let test_restart_runs_queued_job () =
  (* daemon A accepts but never runs (max_jobs = 0) and "crashes";
     daemon B over the same state dir picks the job up and finishes it
     byte-identically to a local run *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dbre_restart_q" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s = spec ~label:"orphan" () in
  let expected = local_artifacts s in
  let id =
    with_server ~max_jobs:0 ~state_dir:dir @@ fun server ->
    with_client server @@ fun c -> fst (submit_exn c s)
  in
  with_server ~max_jobs:1 ~state_dir:dir @@ fun server ->
  with_client server @@ fun c ->
  let state, artifacts = wait_exn c id in
  Alcotest.(check string) "done after restart" "done" state;
  check_artifacts "byte-identical across the restart" expected artifacts;
  (* the adopted id is not reissued to the next submission *)
  let id2, _ = submit_exn c (spec ~label:"next" ()) in
  Alcotest.(check bool) "fresh id after adoption" true (id2 <> id)

(* find a fuel that interrupts the staging run after at least one
   stage completed (so checkpoints exist) but before it finished —
   deterministic, but robust to how often the pipeline polls *)
let staged_interrupted_run ~ckpt base =
  let rec search fuel =
    if fuel > 100_000 then
      Alcotest.fail "no fuel interrupts the run mid-pipeline"
    else begin
      rm_rf ckpt;
      mkdir_p ckpt;
      let s =
        {
          base with
          Job_spec.engine =
            Engine.with_budget ~on_exhausted:`Fail Engine.default;
          checkpoint_dir = Some ckpt;
          fuel = Some fuel;
        }
      in
      match Dbre.Job.run s with
      | Error p when p.Dbre.Pipeline.p_ind_result <> None -> ()
      | Error _ -> search (fuel + 1)  (* tripped before any checkpoint *)
      | Ok _ -> Alcotest.fail "fuel never tripped the staging run"
    end
  in
  search 1

let test_restart_resumes_from_checkpoints () =
  (* stage a state dir as a crashed daemon would leave it: the spec on
     disk, status "running", and the checkpoints of the stages the
     dead daemon had completed; the restarted daemon must re-adopt the
     job, restore those stages (visible in the event stream) and
     settle with the artifacts of an uninterrupted run *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dbre_restart_r" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s = spec ~label:"lazarus" ~rows:200 ~deps:5 () in
  let expected = local_artifacts s in
  let id = "job-000041" in
  let jdir = Filename.concat dir id in
  let ckpt = Filename.concat jdir "ckpt" in
  mkdir_p jdir;
  staged_interrupted_run ~ckpt s;
  let write path contents =
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc contents)
  in
  (match Job_spec.to_string s with
  | Ok text -> write (Filename.concat jdir "spec.json") text
  | Error e -> Alcotest.fail e);
  write (Filename.concat jdir "status") "running";
  with_server ~max_jobs:1 ~state_dir:dir @@ fun server ->
  with_client server @@ fun c ->
  let events = stream_events c id in
  let restored =
    List.filter
      (fun ev ->
        Json.mem_string "kind" ev = Some "stage"
        && Json.mem_string "phase" ev = Some "restored")
      events
  in
  Alcotest.(check bool) "at least one stage restored from checkpoint" true
    (List.length restored > 0);
  let state, artifacts = wait_exn c id in
  Alcotest.(check string) "done after resume" "done" state;
  check_artifacts "resumed run byte-identical to an uninterrupted one"
    expected artifacts;
  let id2, _ = submit_exn c (spec ~label:"after" ()) in
  Alcotest.(check string) "id counter moved past the adopted job"
    "job-000042" id2

(* a state dir written by a daemon of the version-1 spec format: the
   restarted daemon must still decode the spec (dropping the retired
   engine check/cache fields), run it and settle it done *)
let test_restart_adopts_v1_spec () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dbre_restart_v1" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let s = spec ~label:"elder" () in
  let expected = local_artifacts s in
  let v2 =
    match Job_spec.to_string s with Ok text -> text | Error e -> Alcotest.fail e
  in
  let replace ~sub ~by text =
    let n = String.length sub in
    let rec find i =
      if i + n > String.length text then Alcotest.failf "no %S in spec" sub
      else if String.sub text i n = sub then i
      else find (i + 1)
    in
    let i = find 0 in
    String.sub text 0 i ^ by ^ String.sub text (i + n) (String.length text - i - n)
  in
  let v1 =
    v2
    |> replace ~sub:{|{"version":2,|} ~by:{|{"version":1,|}
    |> replace ~sub:{|"engine":{|} ~by:{|"engine":{"check":"partition","cache":false,|}
  in
  let id = "job-000007" in
  let jdir = Filename.concat dir id in
  mkdir_p jdir;
  Out_channel.with_open_bin (Filename.concat jdir "spec.json") (fun oc ->
      Out_channel.output_string oc v1);
  with_server ~max_jobs:1 ~state_dir:dir @@ fun server ->
  with_client server @@ fun c ->
  let state, artifacts = wait_exn c id in
  Alcotest.(check string) "v1 job done after adoption" "done" state;
  check_artifacts "byte-identical to a local run" expected artifacts

(* ------------------------------------------------------------------ *)
(* Mutation and delta refresh                                          *)
(* ------------------------------------------------------------------ *)

(* mutate a settled job's retained extension, refresh, and check the
   refreshed artifacts are byte-identical to running the same job over
   the mutated rows from scratch *)
let test_mutate_refresh_matches_resubmit () =
  with_server (fun server ->
      with_client server (fun c ->
          let id, _ = submit_exn c (spec ~rows:40 ()) in
          let state, _ = wait_exn c id in
          Alcotest.(check string) "settled" "done" state;
          (* delete the first employee, append two new ones *)
          let insert =
            [
              [ Value.Int 101; Value.String "d1"; Value.String "dept-1" ];
              [ Value.Int 102; Value.String "d2"; Value.String "dept-2" ];
            ]
          in
          (match Client.mutate c ~insert ~delete:[ 0 ] id "Emp" with
          | Ok (cardinality, _version) ->
              Alcotest.(check int) "cardinality after mutate" 41 cardinality
          | Error (code, msg) -> Alcotest.failf "mutate: %s: %s" code msg);
          (match Client.refresh c id with
          | Ok (_report, state) ->
              Alcotest.(check string) "settled after refresh" "done" state
          | Error (code, msg) -> Alcotest.failf "refresh: %s: %s" code msg);
          let refreshed =
            match Client.artifacts c id with
            | Ok (arts, _) -> arts
            | Error (code, msg) -> Alcotest.failf "artifacts: %s: %s" code msg
          in
          (* the same extension, loaded fresh: rows 2..40 plus the two
             appended employees *)
          let b = Buffer.create 1024 in
          Buffer.add_string b "eid,dep,dname\n";
          for i = 2 to 40 do
            let d = i mod 4 in
            Buffer.add_string b (Printf.sprintf "%d,d%d,dept-%d\n" i d d)
          done;
          Buffer.add_string b "101,d1,dept-1\n102,d2,dept-2\n";
          let mutated_spec =
            Job_spec.make
              ~sources:
                [
                  ("Emp", Source.csv_inline (Buffer.contents b));
                  ("Dept", Source.csv_inline (dept_csv ~deps:4 ()));
                ]
              ~ddl
              (Job_spec.Sql_scripts [ script ])
          in
          check_artifacts "refresh = resubmit over mutated rows"
            (local_artifacts mutated_spec)
            refreshed;
          (* status reports the refresh and the delta-cache counters *)
          (match Client.status c id with
          | Ok st ->
              Alcotest.(check (option int))
                "refresh count" (Some 1)
                (Json.mem_int "refreshes" st);
              Alcotest.(check bool) "delta stats present" true
                (Json.member "delta" st <> None)
          | Error (code, msg) -> Alcotest.failf "status: %s: %s" code msg);
          (* bad requests are typed and mutate nothing *)
          (match Client.mutate c ~delete:[ 0 ] id "Nope" with
          | Error ("unknown-relation", _) -> ()
          | Ok _ -> Alcotest.fail "mutate of unknown relation succeeded"
          | Error (code, msg) ->
              Alcotest.failf "unexpected error: %s: %s" code msg);
          match
            Client.mutate c ~insert:[ [ Value.Int 1 ] ] ~delete:[ 0 ] id "Emp"
          with
          | Error _ -> (
              match Client.mutate c id "Emp" with
              | Ok (cardinality, _) ->
                  Alcotest.(check int) "bad row mutated nothing" 41 cardinality
              | Error (code, msg) ->
                  Alcotest.failf "no-op mutate: %s: %s" code msg)
          | Ok _ -> Alcotest.fail "arity-mismatched insert succeeded"))

let suite =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "one job is byte-identical to a local run" `Quick
      test_one_job_byte_identical;
    Alcotest.test_case "event stream shape" `Quick test_event_stream_shape;
    Alcotest.test_case "4 concurrent jobs byte-identical" `Quick
      test_concurrent_jobs_byte_identical;
    Alcotest.test_case "cancel a queued job" `Quick test_cancel_queued_job;
    Alcotest.test_case "cancel a running job" `Quick test_cancel_running_job;
    Alcotest.test_case "budget trip is typed over the wire" `Quick
      test_budget_trip_is_typed;
    Alcotest.test_case "malformed frames get typed errors" `Quick
      test_malformed_frames;
    Alcotest.test_case "oversize frame closes the connection" `Quick
      test_oversize_frame_closes_connection;
    Alcotest.test_case "L207 diagnostics over the wire" `Quick
      test_l207_over_the_wire;
    Alcotest.test_case "restart picks up a queued job" `Quick
      test_restart_runs_queued_job;
    Alcotest.test_case "restart resumes from checkpoints" `Quick
      test_restart_resumes_from_checkpoints;
    Alcotest.test_case "restart adopts a v1 spec" `Quick
      test_restart_adopts_v1_spec;
    Alcotest.test_case "mutate + refresh is byte-identical to resubmit" `Quick
      test_mutate_refresh_matches_resubmit;
  ]
