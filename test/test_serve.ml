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

(* a scripted expert is data: the paper scenario's spec survives JSON
   and the daemon with the artifacts of the in-process run, and the
   one expert that needs a terminal is refused *)
let test_scripted_job_byte_identical () =
  let s = Workload.Scenarios.spec Workload.Scenarios.paper in
  let text = Job_spec.to_string s in
  let expected = local_artifacts s in
  (match Job_spec.of_string text with
  | Ok decoded ->
      check_artifacts "decoded from JSON" expected (local_artifacts decoded)
  | Error e -> Alcotest.fail e);
  with_server @@ fun server ->
  with_client server @@ fun c ->
  let id, _ = submit_exn c s in
  let state, artifacts = wait_exn c id in
  Alcotest.(check string) "done" "done" state;
  check_artifacts "byte-identical to the local run" expected artifacts;
  match Client.submit c { s with oracle = Interactive } with
  | Error (code, _) -> Alcotest.(check string) "interactive" "spec-invalid" code
  | Ok _ -> Alcotest.fail "the daemon accepted an interactive spec"

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

let test_concurrent_jobs_byte_identical ~max_jobs () =
  (* four different specs, submitted concurrently on four connections
     over [max_jobs] worker domains, must each match their own local
     run *)
  let specs =
    List.init 4 (fun i ->
        spec ~label:(Printf.sprintf "c%d" i) ~rows:(50 + (10 * i))
          ~deps:(3 + i) ())
  in
  let expected = List.map local_artifacts specs in
  with_server ~max_jobs @@ fun server ->
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

let fifo_counter = ref 0

(* A job held in its load: its Emp source is a FIFO, so it blocks in
   Loading until [feed] writes the rows of [spec ()]'s Emp. [f] gets the
   spec and [feed]; the FIFO is always fed on the way out, so call this
   inside [with_server]: a daemon cannot stop while a worker is blocked
   on it. *)
let with_held_job ?(label = "held") f =
  incr fifo_counter;
  let fifo =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbre_hold_%d_%d.fifo" (Unix.getpid ()) !fifo_counter)
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
          (* the loader may see a latched cancel as soon as its open
             returns and close the read end before this write *)
          try
            ignore (Unix.write_substring fd text 0 (String.length text));
            Unix.close fd
          with Unix.Unix_error (Unix.EPIPE, _, _) -> Unix.close fd)
      | None -> ()
    end
  in
  let s =
    Job_spec.make ~label
      ~sources:
        [
          ("Emp", Source.csv_file fifo);
          ("Dept", Source.csv_inline (dept_csv ~deps:4 ()));
        ]
      ~ddl
      (Job_spec.Sql_scripts [ script ])
  in
  Fun.protect
    ~finally:(fun () ->
      feed ();
      rm_rf fifo)
    (fun () -> f s feed)

(* submit a held job and return once it is running, blocked on its
   FIFO: it has no pre-run diagnostics, so its first event is its own *)
let submit_held c s =
  let id, diags = submit_exn c s in
  Alcotest.(check int) "no pre-run diagnostics" 0 (List.length diags);
  (match Client.watch c id with
  | Ok _ -> ()
  | Error (code, msg) -> Alcotest.failf "watch: %s: %s" code msg);
  id

let state_of c id =
  match Client.status c id with
  | Ok st -> Option.value ~default:"?" (Json.mem_string "state" st)
  | Error (code, msg) -> Alcotest.failf "status %s: %s: %s" id code msg

let test_cancel_running_job () =
  (* the job blocks in Loading until the test feeds it: the cancel
     deterministically lands while the job runs, and the job must
     settle as cancelled, not done, however quickly it finishes once
     fed *)
  with_server ~max_jobs:1 @@ fun server ->
  with_client server @@ fun c ->
  with_held_job ~label:"doomed" @@ fun s feed ->
  let id = submit_held c s in
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
      ~engine:(Engine.make ~on_exhausted:`Fail ())
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

(* a 4-byte big-endian length prefix *)
let header len =
  String.init 4 (fun i -> Char.chr ((len lsr (8 * (3 - i))) land 0xff))

let frame payload = header (String.length payload) ^ payload

let send_raw fd payload =
  let bytes = frame payload in
  ignore (Unix.write_substring fd bytes 0 (String.length bytes))

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

(* a largest-possible frame of '[' is refused at the nesting cap, and
   the daemon goes on serving *)
let test_deep_frame_keeps_serving () =
  with_server @@ fun server ->
  let fd = raw_connect server in
  Fun.protect ~finally:(fun () -> try Unix.close fd with _ -> ())
  @@ fun () ->
  send_raw fd (String.make Protocol.max_frame '[');
  Alcotest.(check string) "bad-json" "bad-json" (response_code fd);
  with_client server @@ fun c -> Alcotest.(check bool) "a new connection is served" true (Client.ping c)

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
(* Mutated wire frames                                                 *)
(* ------------------------------------------------------------------ *)

(* Valid request frames, damaged. A [Framed] payload is sent under a
   length prefix that matches its bytes, so the frame boundary holds
   whatever the JSON became: payload flips, truncations and splices,
   and a prefix padded past the JSON's own length. A [Torn]
   byte string breaks the boundary — a frame cut short, a flipped
   length byte, an oversize length — and the stream ends after it. *)
type wire_case = Framed of string | Torn of string

let wire_requests =
  List.map Json.to_string
    [
      Protocol.request "ping" [];
      Protocol.request "jobs" [];
      Protocol.request "status" [ ("id", Json.String "job-000001") ];
      Protocol.request "events"
        [ ("id", Json.String "job-000001"); ("since", Json.Int 0) ];
      Protocol.request "watch"
        [ ("id", Json.String "job-000001"); ("since", Json.Int 2) ];
      Protocol.request "cancel" [ ("id", Json.String "job-000001") ];
      Protocol.request "artifacts" [ ("id", Json.String "job-000001") ];
      Protocol.request "refresh" [ ("id", Json.String "job-000001") ];
      Protocol.request "mutate"
        [
          ("id", Json.String "job-000001"); ("relation", Json.String "R");
          ("insert", Json.List [ Json.String "1,x" ]);
        ];
      Protocol.request "submit" [ ("spec", Json.Obj []) ];
    ]

let gen_wire_case =
  QCheck.Gen.(
    let* payload = oneofl wire_requests in
    let n = String.length payload in
    let* cut = int_range 0 (n - 1) in
    let* pad = string_size ~gen:(oneofl [ ' '; '}'; ']'; '"'; 'x'; '\000' ]) (int_range 1 8) in
    let* byte = int_range 0 3 and* bit = int_range 0 7 in
    let* oversize = int_range (Protocol.max_frame + 1) 0xFFFF_FFFF in
    let flipped =
      String.mapi
        (fun i c -> if i = byte then Char.chr (Char.code c lxor (1 lsl bit)) else c)
        (frame payload)
    in
    frequency
      [
        ( 5,
          map
            (fun p -> Framed p)
            (Helpers.gen_mutated
               ~tokens:[ "{"; "}"; "["; "]"; ":"; ","; {|"|}; "\\"; "null"; "-1"; "1e999"; {|"op"|}; {|"id"|} ]
               payload) );
        (1, return (Framed (payload ^ pad)));
        (1, return (Torn (String.sub (frame payload) 0 (4 + cut))));
        (1, return (Torn (String.sub (header n) 0 (1 + (cut mod 3)))));
        (1, return (Torn flipped));
        (1, return (Torn (header oversize ^ payload)));
      ])

let show_wire_case = function
  | Framed p -> Printf.sprintf "framed %S" p
  | Torn b -> Printf.sprintf "torn %S" b

(* the exception that ends [Protocol.read_frame]'s pass over [bytes] *)
let decode_all bytes =
  let r, w = Unix.pipe ~cloexec:true () in
  ignore (Unix.write_substring w bytes 0 (String.length bytes));
  Unix.close w;
  let rec go () =
    match Protocol.read_frame r with _ -> go () | exception e -> e
  in
  Fun.protect ~finally:(fun () -> Unix.close r) go

(* the codes a damaged request may earn: a typed refusal, or the
   answer its op gives when no job exists. [internal-error] means the
   request raised, so it is not among them. *)
let wire_codes = [ "ok"; "bad-json"; "bad-request"; "unknown-op"; "unknown-job"; "spec-invalid" ]

(* every response until the server closes the connection *)
let drain fd =
  let rec go acc =
    match Protocol.read_frame fd with
    | payload -> go (payload :: acc)
    | exception (Protocol.Closed | Unix.Unix_error (Unix.ECONNRESET, _, _)) ->
        List.rev acc
  in
  go []

let code_of_payload payload =
  match Protocol.error_of (Json.of_string payload) with
  | None -> "ok"
  | Some (code, _) -> code

let test_mutated_frames () =
  with_server @@ fun server ->
  let connect () =
    let fd = raw_connect server in
    (* a hung daemon fails the test rather than stalling it *)
    Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
    fd
  in
  let framed = connect () in
  Fun.protect ~finally:(fun () -> Unix.close framed) @@ fun () ->
  let prop case =
    let bytes = match case with Framed p -> frame p | Torn b -> b in
    (match decode_all bytes with
    | Protocol.Closed | Protocol.Frame_error _ -> ()
    | e -> QCheck.Test.fail_reportf "read_frame raised %s" (Printexc.to_string e));
    match case with
    | Framed p ->
        (* no damaged request may stop the daemon *)
        QCheck.assume
          (match Json.of_string p with
          | j -> Json.mem_string "op" j <> Some "shutdown"
          | exception Json.Parse_error _ -> true);
        send_raw framed p;
        let code = response_code framed in
        if not (List.mem code wire_codes) then
          QCheck.Test.fail_reportf "answered %s" code;
        Protocol.write_frame framed (Protocol.request "ping" []);
        response_code framed = "ok"
    | Torn b ->
        let fd = connect () in
        Fun.protect ~finally:(fun () -> Unix.close fd) @@ fun () ->
        ignore (Unix.write_substring fd b 0 (String.length b));
        Unix.shutdown fd Unix.SHUTDOWN_SEND;
        (* whole frames before the tear are answered as usual; the tear
           itself gets one bad-frame, and the connection closes *)
        match List.rev_map code_of_payload (drain fd) with
        | "bad-frame" :: earlier -> List.for_all (fun c -> List.mem c wire_codes) earlier
        | codes -> QCheck.Test.fail_reportf "answered [%s]" (String.concat "; " (List.rev codes))
  in
  QCheck.Test.check_exn ~rand:(Random.State.make [| 27 |])
    (QCheck.Test.make ~count:600 ~name:"mutated wire frames"
       (QCheck.make ~print:show_wire_case gen_wire_case)
       prop)

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
            Engine.make ~on_exhausted:`Fail ();
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
  write (Filename.concat jdir "spec.json") (Job_spec.to_string s);
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
  let current = Job_spec.to_string s in
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
    current
    |> replace
         ~sub:(Printf.sprintf {|{"version":%d,|} Job_spec.version)
         ~by:{|{"version":1,|}
    |> replace ~sub:{|"flow":false,|} ~by:""
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

(* the mutation the refresh tests apply to [spec ~rows:40 ()]: delete
   the first employee, append these two *)
let mutation_inserts =
  [
    [ Value.Int 101; Value.String "d1"; Value.String "dept-1" ];
    [ Value.Int 102; Value.String "d2"; Value.String "dept-2" ];
  ]

(* the same extension, loaded fresh: rows 2..40 plus the two appended
   employees *)
let mutated_spec () =
  let b = Buffer.create 1024 in
  Buffer.add_string b "eid,dep,dname\n";
  for i = 2 to 40 do
    let d = i mod 4 in
    Buffer.add_string b (Printf.sprintf "%d,d%d,dept-%d\n" i d d)
  done;
  Buffer.add_string b "101,d1,dept-1\n102,d2,dept-2\n";
  Job_spec.make
    ~sources:
      [
        ("Emp", Source.csv_inline (Buffer.contents b));
        ("Dept", Source.csv_inline (dept_csv ~deps:4 ()));
      ]
    ~ddl
    (Job_spec.Sql_scripts [ script ])

(* mutate a settled job's retained extension, refresh, and check the
   refreshed artifacts are byte-identical to running the same job over
   the mutated rows from scratch *)
let test_mutate_refresh_matches_resubmit () =
  with_server (fun server ->
      with_client server (fun c ->
          let id, _ = submit_exn c (spec ~rows:40 ()) in
          let state, _ = wait_exn c id in
          Alcotest.(check string) "settled" "done" state;
          (match Client.mutate c ~insert:mutation_inserts ~delete:[ 0 ] id "Emp" with
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
          check_artifacts "refresh = resubmit over mutated rows"
            (local_artifacts (mutated_spec ()))
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

(* ------------------------------------------------------------------ *)
(* Worker domains                                                      *)
(* ------------------------------------------------------------------ *)

let test_max_jobs_bounded () =
  (* rejected before anything is bound or spawned: [start] is never
     called *)
  Alcotest.(check int) "cap" 16 Server.max_jobs_cap;
  List.iter
    (fun max_jobs ->
      match Server.create ~max_jobs ~socket:(fresh_socket ()) () with
      | _ -> Alcotest.failf "max_jobs %d was accepted" max_jobs
      | exception Invalid_argument _ -> ())
    [ -1; 17 ];
  List.iter
    (fun max_jobs ->
      ignore (Server.create ~max_jobs ~socket:(fresh_socket ()) ()))
    [ 0; 16 ]

let test_held_job_does_not_block_another () =
  (* one worker is stuck in a load; the other runs a second job to the
     end, and the stuck one can still be cancelled *)
  let other = spec ~label:"free" ~rows:80 ~deps:5 () in
  let expected = local_artifacts other in
  with_server ~max_jobs:2 @@ fun server ->
  with_client server @@ fun c ->
  with_held_job @@ fun held feed ->
  let hid = submit_held c held in
  let oid, _ = submit_exn c other in
  let state, artifacts = wait_exn c oid in
  Alcotest.(check string) "the free job is done" "done" state;
  check_artifacts "byte-identical to its local run" expected artifacts;
  Alcotest.(check string) "the held job still runs" "running" (state_of c hid);
  (match Client.cancel c hid with
  | Ok state ->
      Alcotest.(check string) "cancel answered while running" "running" state
  | Error (code, msg) -> Alcotest.failf "cancel: %s: %s" code msg);
  feed ();
  let state, _ = wait_exn c hid in
  Alcotest.(check string) "the held job settles as cancelled" "cancelled"
    state

(* [state] and what must come with it, as a handler reads them *)
let check_settled_pair ~what ~state ~error ~artifacts =
  match state with
  | "done" ->
      if error <> Json.Null then Alcotest.failf "%s: done with an error" what;
      if artifacts = Some [] then Alcotest.failf "%s: done without artifacts" what
  | "failed" ->
      if error = Json.Null then Alcotest.failf "%s: failed without an error" what
  | "queued" | "running" | "cancelled" -> ()
  | s -> Alcotest.failf "%s: unknown state %S" what s

let test_poll_while_jobs_settle () =
  (* six jobs, four that finish and two that fail, settle on two worker
     domains while a third connection polls status and artifacts: a
     settled state is never seen without its artifacts or error *)
  let ghost =
    Job_spec.make ~label:"ghost"
      ~sources:[ ("Ghost", Source.csv_inline "a\n1\n") ]
      ~ddl (Job_spec.Sql_scripts [ script ])
  in
  let tripped =
    spec ~label:"tripped"
      ~engine:(Engine.make ~on_exhausted:`Fail ())
      ~fuel:1 ()
  in
  let good i =
    spec ~label:(Printf.sprintf "p%d" i) ~rows:(150 + (40 * i)) ~deps:(3 + i) ()
  in
  let specs = [ good 0; ghost; good 1; good 2; tripped; good 3 ] in
  with_server ~max_jobs:2 @@ fun server ->
  let ids =
    with_client server @@ fun a ->
    with_client server @@ fun b ->
    List.mapi
      (fun i s -> fst (submit_exn (if i < 3 then a else b) s))
      specs
  in
  with_client server @@ fun c ->
  let field name r = Option.value ~default:Json.Null (Json.member name r) in
  let rec poll rounds =
    (* every job is polled each round, settled or not *)
    let settled =
      List.for_all Fun.id
      @@ List.map
        (fun id ->
          let st =
            match Client.status c id with
            | Ok st -> st
            | Error (code, msg) -> Alcotest.failf "status: %s: %s" code msg
          in
          let state = Option.value ~default:"?" (Json.mem_string "state" st) in
          check_settled_pair ~what:("status " ^ id) ~state
            ~error:(field "error" st) ~artifacts:None;
          let r =
            Client.request c (Protocol.request "artifacts" [ ("id", Json.String id) ])
          in
          match Protocol.error_of r with
          | Some ("not-settled", _) -> false
          | Some (code, msg) -> Alcotest.failf "artifacts: %s: %s" code msg
          | None ->
              let state =
                Option.value ~default:"?" (Json.mem_string "state" r)
              in
              let artifacts =
                match Json.member "artifacts" r with
                | Some (Json.Obj fields) -> fields
                | _ -> []
              in
              check_settled_pair ~what:("artifacts " ^ id) ~state
                ~error:(field "error" r) ~artifacts:(Some artifacts);
              true)
        ids
    in
    if not settled then begin
      if rounds > 100_000 then Alcotest.fail "jobs never settled";
      poll (rounds + 1)
    end
  in
  poll 0;
  List.iter2
    (fun id s ->
      let state, artifacts = wait_exn c id in
      if s == ghost || s == tripped then
        Alcotest.(check string) (id ^ " failed") "failed" state
      else begin
        Alcotest.(check string) (id ^ " done") "done" state;
        check_artifacts (id ^ " byte-identical to its local run")
          (local_artifacts s) artifacts
      end)
    ids specs

let test_refresh_while_two_run () =
  (* both workers are held in loads; a settled job is mutated and
     refreshed in its handler meanwhile, and matches a cold run over
     the mutated rows *)
  with_server ~max_jobs:2 @@ fun server ->
  with_client server @@ fun c ->
  let id, _ = submit_exn c (spec ~rows:40 ()) in
  Alcotest.(check string) "settled" "done" (fst (wait_exn c id));
  with_held_job ~label:"h1" @@ fun h1 feed1 ->
  with_held_job ~label:"h2" @@ fun h2 feed2 ->
  let i1 = submit_held c h1 in
  let i2 = submit_held c h2 in
  (match Client.mutate c ~insert:mutation_inserts ~delete:[ 0 ] id "Emp" with
  | Ok (cardinality, _) ->
      Alcotest.(check int) "cardinality after mutate" 41 cardinality
  | Error (code, msg) -> Alcotest.failf "mutate: %s: %s" code msg);
  (match Client.refresh c id with
  | Ok (_, state) -> Alcotest.(check string) "refreshed" "done" state
  | Error (code, msg) -> Alcotest.failf "refresh: %s: %s" code msg);
  (match Client.artifacts c id with
  | Ok (arts, _) ->
      check_artifacts "refresh = cold run over the mutated rows"
        (local_artifacts (mutated_spec ()))
        arts
  | Error (code, msg) -> Alcotest.failf "artifacts: %s: %s" code msg);
  List.iter
    (fun i ->
      Alcotest.(check string) "held job still running" "running" (state_of c i))
    [ i1; i2 ];
  feed1 ();
  feed2 ();
  let expected = local_artifacts (spec ()) in
  List.iter
    (fun i ->
      let state, arts = wait_exn c i in
      Alcotest.(check string) "held job done once fed" "done" state;
      check_artifacts "held job byte-identical to its local run" expected arts)
    [ i1; i2 ]

let test_stop_waits_for_running_jobs () =
  (* [stop] with two jobs running returns only once both settled (their
     persisted status says so), and a second [stop] is a no-op *)
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dbre_stop_wait" in
  rm_rf dir;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  with_server ~max_jobs:2 ~state_dir:dir @@ fun server ->
  let ids, stopped =
    with_client server @@ fun c ->
    with_held_job ~label:"h1" @@ fun h1 feed1 ->
    with_held_job ~label:"h2" @@ fun h2 feed2 ->
    let ids = [ submit_held c h1; submit_held c h2 ] in
    let stopped = Atomic.make false in
    let stopper =
      Thread.create
        (fun () ->
          Server.stop server;
          Atomic.set stopped true)
        ()
    in
    Thread.delay 0.1;
    let early = Atomic.get stopped in
    feed1 ();
    feed2 ();
    Thread.join stopper;
    Alcotest.(check bool) "stop waited for the held jobs" false early;
    (ids, Atomic.get stopped)
  in
  Alcotest.(check bool) "stop returned" true stopped;
  let read path = In_channel.with_open_bin path In_channel.input_all in
  List.iter
    (fun id ->
      let jdir = Filename.concat dir id in
      Alcotest.(check string) (id ^ " settled before stop returned") "done"
        (read (Filename.concat jdir "status"));
      Alcotest.(check int) (id ^ " artifacts persisted") 5
        (Array.length (Sys.readdir (Filename.concat jdir "artifacts"))))
    ids;
  Server.stop server

let suite =
  [
    Alcotest.test_case "ping" `Quick test_ping;
    Alcotest.test_case "one job is byte-identical to a local run" `Quick
      test_one_job_byte_identical;
    Alcotest.test_case "event stream shape" `Quick test_event_stream_shape;
    Alcotest.test_case "a scripted job is byte-identical to a local run"
      `Quick test_scripted_job_byte_identical;
    Alcotest.test_case "4 concurrent jobs byte-identical" `Quick
      (test_concurrent_jobs_byte_identical ~max_jobs:2);
    Alcotest.test_case "4 concurrent jobs byte-identical on 1 worker" `Quick
      (test_concurrent_jobs_byte_identical ~max_jobs:1);
    Alcotest.test_case "4 concurrent jobs byte-identical on 4 workers" `Quick
      (test_concurrent_jobs_byte_identical ~max_jobs:4);
    Alcotest.test_case "cancel a queued job" `Quick test_cancel_queued_job;
    Alcotest.test_case "cancel a running job" `Quick test_cancel_running_job;
    Alcotest.test_case "budget trip is typed over the wire" `Quick
      test_budget_trip_is_typed;
    Alcotest.test_case "malformed frames get typed errors" `Quick
      test_malformed_frames;
    Alcotest.test_case "a maximal deep frame gets a typed error" `Quick
      test_deep_frame_keeps_serving;
    Alcotest.test_case "oversize frame closes the connection" `Quick
      test_oversize_frame_closes_connection;
    Alcotest.test_case "mutated frames get typed answers" `Quick
      test_mutated_frames;
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
    Alcotest.test_case "max_jobs is bounded" `Quick test_max_jobs_bounded;
    Alcotest.test_case "a held job does not block another" `Quick
      test_held_job_does_not_block_another;
    Alcotest.test_case "polling never sees a half-settled job" `Quick
      test_poll_while_jobs_settle;
    Alcotest.test_case "refresh while two jobs run" `Quick
      test_refresh_while_two_run;
    Alcotest.test_case "stop waits for running jobs" `Quick
      test_stop_waits_for_running_jobs;
  ]
