(* The four workloads. Each one sets up several times (setup_s is the
   median), then runs the passes asked for: the end-to-end pass with
   tracing off, and the trace pass, which alternates traced and
   untraced operations so the difference between them is the tracing
   overhead. A pass measures for [seconds]. The end-to-end pass runs
   the calibration kernel between its operations and reports its times
   and rates normalized by it (Calib). Every run checks the program's
   outputs; a mismatch is a problem, never a metric. *)

open Relational
module G = Workload.Gen_schema

type config = {
  seed : int;
  seconds : int;
  smoke : bool;  (** tiny inputs and a fixed handful of operations *)
  out : string;  (** scratch inputs, results.json and traces *)
  e2e : bool;
  trace : bool;
}

(* set-ups per run; each comes after one kernel run, which normalizes
   its time as a block's kernel run does the block's *)
let setups = 5

(* analyze-cold and refresh-mixed: [Gen_schema.scale 10.], 80k rows
   and 4 MB of CSV in 6 relations *)
let scaled c = Inputs.scaled (if c.smoke then 0.1 else 10.)

(* analyze-spill: relations that span several default-size (64k-row)
   segments, 340k rows and 11 MB of CSV, under a resident budget about
   ten times smaller than their packed extension (442k words at seed
   42). A smoke run keeps the shape with 16-row segments instead. *)
let spill_spec c =
  if c.smoke then Inputs.scaled 0.1
  else
    {
      G.default_spec with
      G.n_entities = 2;
      rows_per_entity = 70_000;
      n_denorm = 1;
      refs_per_denorm = 2;
      payload_per_ref = 1;
      rows_per_denorm = 200_000;
    }

let spill_segment_rows c = if c.smoke then Some 16 else None
let spill_budget_words c = if c.smoke then 16 else 44_000

(* the daemon retains every settled job (about 2 MB each), so a serve
   pass restarts it every [session_jobs] jobs to bound its heap; a
   block of [block_jobs] takes about three times one kernel run. Both
   are multiples of the three specs, so every seed runs the same mix. *)
let session_jobs c = if c.smoke then 6 else 96
let block_jobs c = if c.smoke then 3 else 24
let serve_warmup c = if c.smoke then 3 else 20

(* the worker's mutation log stops growing once it trims, after about
   25 pairs at this scale: fewer pairs would make its heap depend on
   the pass length *)
let min_refresh_pairs = 30

let nproc = Stdlib.Domain.recommended_domain_count ()

(* [f 0], [f 1], ... until the pass has measured for [c.seconds] and
   run at least [min] times; a smoke pass runs exactly [smoke] times *)
let repeat c ~min ~smoke f =
  let t0 = Probe.now () in
  let rec go i acc =
    let enough =
      if c.smoke then i >= smoke
      else i >= min && Probe.now () -. t0 >= float_of_int c.seconds
    in
    if enough then List.rev acc else go (i + 1) (f i :: acc)
  in
  go 0 []

let timed f =
  let t0 = Probe.now () in
  let v = f () in
  (Probe.now () -. t0, v)

let last l = List.nth l (List.length l - 1)
let calibration c = Child.calibration (Calib.size ~smoke:c.smoke)

type op = {
  latency : float;  (** seconds *)
  traced : bool;
  layers : (string * float) list;  (** per-layer values, traced ops only *)
  spans : Tracer.span list;  (** traced ops only *)
}

(* problems are collected, not raised: one run reports every gate *)
let gates () =
  let problems = ref [] in
  (problems, fun msg -> problems := msg :: !problems)

(* the artifact comparator every gate goes through: the names of the
   artifacts (among [only], default all) that differ *)
let artifact_diff ?only ~expected got =
  List.filter_map
    (fun (name, text) ->
      let wanted = match only with None -> true | Some l -> List.mem name l in
      if wanted && List.assoc_opt name got <> Some text then Some name else None)
    expected

let check_artifacts problem ~what ?only ~expected got =
  match artifact_diff ?only ~expected got with
  | [] -> ()
  | names -> problem (Printf.sprintf "%s: %s differ" what (String.concat "/" names))

(* zero for each layer an operation of this workload never enters *)
let absent names = List.map (fun n -> (n ^ ".ms", 0.)) names

let layers_of ~spans ~stats =
  Tracer.layer_ms spans @ [ ("trace.coverage", Tracer.coverage spans) ] @ stats

(* An end-to-end pass is a sequence of blocks: a few operations, then
   one run of the calibration kernel. *)
type block = {
  latencies_ms : float list;  (** each operation's *)
  ops_s : float;  (** the time the block's operations took together *)
  calib_ms : float;  (** the kernel's time after them *)
}

(* The end-to-end metrics of a pass: set-up time per set-up, latency
   per operation and operations per second per block, each normalized
   by the kernel time that goes with it; the raw values and the
   kernel's own times are kept beside them. [setup] holds (seconds,
   kernel ms) per set-up. *)
let e2e_metrics ~setup ~blocks ~heap_mb ~rss_mb =
  let rate b = float_of_int (List.length b.latencies_ms) /. b.ops_s in
  let each f = List.concat_map f blocks in
  Results.
    [
      metric "setup_s" (List.map (fun (s, calib_ms) -> Calib.time ~calib_ms s) setup);
      metric "norm_latency_ms"
        (each (fun b -> List.map (Calib.time ~calib_ms:b.calib_ms) b.latencies_ms));
      metric "norm_ops_per_s" (each (fun b -> [ Calib.rate ~calib_ms:b.calib_ms (rate b) ]));
      metric "peak_heap_mb" heap_mb;
      metric "peak_rss_mb" rss_mb;
      metric "setup_raw_s" (List.map fst setup);
      metric "latency_ms" (each (fun b -> b.latencies_ms));
      metric "ops_per_s" (each (fun b -> [ rate b ]));
      metric "calib_ms" (each (fun b -> [ b.calib_ms ]));
    ]

(* the per-layer metrics of a trace pass: medians over its traced ops,
   and the tracing overhead against the untraced ops between them *)
let trace_metrics c problem ~coverage_floor ops =
  let traced, plain = List.partition (fun o -> o.traced) ops in
  let median_latency l = Stat.median (List.map (fun o -> o.latency) l) in
  let metrics =
    Results.gather (List.map (fun o -> o.layers) traced)
    @ [
        Results.metric "trace.overhead"
          [ (median_latency traced /. median_latency plain) -. 1. ];
      ]
  in
  (if coverage_floor && not c.smoke then
     let cov =
       Results.value (List.find (fun m -> m.Results.name = "trace.coverage") metrics)
     in
     if cov < 0.95 then problem (Printf.sprintf "trace: coverage %.3f below 0.95" cov));
  metrics

let write_trace c name tracks =
  Inputs.write_file
    (Filename.concat c.out ("trace-" ^ name ^ ".json"))
    (Json.to_string (Tracer.chrome tracks))

let mem_float k j = Option.get (Json.mem_float k j)
let member k j = Option.get (Json.member k j)

let outcome name ~metrics ~attempted ~failed problems =
  { Results.workload = name; metrics; attempted; failed; problems = List.rev problems }

(* ------------------------------------------------------------------ *)
(* analyze-cold / analyze-spill                                         *)
(* ------------------------------------------------------------------ *)

let parse_list parse j = List.map parse (Option.get (Json.to_list_opt j))
let parse_string j = Option.get (Json.to_string_opt j)

let parse_ind j =
  match Option.get (Json.to_list_opt j) with
  | [ lr; la; rr; ra ] ->
      Deps.Ind.make
        (parse_string lr, parse_list parse_string la)
        (parse_string rr, parse_list parse_string ra)
  | _ -> invalid_arg "parse_ind"

let parse_fd j =
  match Option.get (Json.to_list_opt j) with
  | [ r; lhs; rhs ] ->
      Deps.Fd.make (parse_string r) (parse_list parse_string lhs)
        (parse_list parse_string rhs)
  | _ -> invalid_arg "parse_fd"

(* precision = recall = 1 against the generator's planted dependencies *)
let truth_gate problem ~(truth : G.ground_truth) ~inds ~fds =
  let module E = Workload.Evaluate in
  let exact (m : E.metrics) = m.E.precision = 1. && m.E.recall = 1. in
  let im = E.ind_metrics ~truth:truth.G.planted_inds inds in
  let fm = E.fd_metrics ~truth:truth.G.planted_fds ~found:fds in
  if not (exact im) then problem (Format.asprintf "analyze: INDs %a" E.pp_metrics im);
  if not (exact fm) then problem (Format.asprintf "analyze: FDs %a" E.pp_metrics fm)

let analyze c ~dir ~spill =
  let name = if spill then "analyze-spill" else "analyze-cold" in
  let problems, problem = gates () in
  let child ?(sample = 0) ~trace ~migrate ~spill () =
    Child.call "analyze"
      ([
         ("dir", dir); ("data", "data");
         ("migrate", Child.bit migrate); ("trace", Child.bit trace);
       ]
      @
      if spill then
        [
          ("spill", Filename.concat dir (Printf.sprintf "spill-%d" sample));
          ("budget", string_of_int (spill_budget_words c));
        ]
        @ Option.fold ~none:[] ~some:(fun n -> [ ("segment", string_of_int n) ]) (spill_segment_rows c)
      else [])
  in
  let setup () =
    timed (fun () ->
        let g = Inputs.generate ~seed:c.seed (if spill then spill_spec c else scaled c) in
        Inputs.write_synthetic ~dir ~data:"data" g;
        (* what every spilled sample must reproduce: F/H/IND/RIC of an
           unbudgeted run (EER differs, migration being off) *)
        let reference =
          if spill then Some (child ~trace:false ~migrate:false ~spill:false ()) else None
        in
        (g.G.truth, reference))
  in
  let setup_runs =
    List.init setups (fun _ ->
        let calib_ms = calibration c in
        let s, v = setup () in
        ((s, calib_ms), v))
  in
  let truth, reference = snd (last setup_runs) in
  let reference =
    Option.map
      (fun r ->
        if Json.mem_bool "ok" r <> Some true then problem "analyze: reference run failed";
        Child.artifacts_of_json (Option.value ~default:(Json.Obj []) (Json.member "artifacts" r)))
      reference
  in
  let first = ref None and failed = ref 0 and attempted = ref 0 and samples = ref 0 in
  (* one sample in a fresh process, and how long that process took *)
  let sample ~trace =
    incr attempted;
    incr samples;
    let process_s, j = timed (fun () -> child ~sample:!samples ~trace ~migrate:(not spill) ~spill ()) in
    Inputs.rm_rf (Filename.concat dir (Printf.sprintf "spill-%d" !samples));
    if Json.mem_bool "ok" j <> Some true then begin
      incr failed;
      None
    end
    else
      let arts = Child.artifacts_of_json (member "artifacts" j) in
      (match !first with
      | None ->
          first := Some arts;
          truth_gate problem ~truth
            ~inds:(parse_list parse_ind (member "inds" j))
            ~fds:(parse_list parse_fd (member "fds" j))
      | Some expected ->
          check_artifacts problem
            ~what:(Printf.sprintf "sample %d vs sample 1" !samples)
            ~expected arts);
      Option.iter
        (fun expected ->
          check_artifacts problem ~what:"spilled vs unbudgeted run"
            ~only:[ "F"; "H"; "IND"; "RIC" ] ~expected arts)
        reference;
      let spans = List.map Tracer.of_json (Option.get (Json.mem_list "spans" j)) in
      Some
        ( process_s,
          j,
          {
            latency = mem_float "wall_s" j;
            traced = trace;
            spans;
            layers =
              (if trace then
                 layers_of ~spans
                   ~stats:
                     (Child.stats_of_json (member "stats" j)
                     (* analyze never mutates, nor goes through the daemon *)
                     @ absent [ "table"; "refresh"; "serve.submit"; "serve.wait"; "serve.artifacts" ]
                     @ [ ("refresh.rows_applied", 0.); ("refresh.rebuilt", 0.) ])
               else []);
          } )
  in
  (* a block is one sample; its rate counts the whole process, start-up
     and exit included *)
  let e2e () =
    let ok =
      List.filter_map Fun.id
        (repeat c ~min:5 ~smoke:2 (fun _ ->
             Option.map (fun s -> (s, calibration c)) (sample ~trace:false)))
    in
    e2e_metrics
      ~setup:(List.map fst setup_runs)
      ~blocks:
        (List.map
           (fun ((process_s, _, o), calib_ms) ->
             { latencies_ms = [ o.latency *. 1e3 ]; ops_s = process_s; calib_ms })
           ok)
      ~heap_mb:(List.map (fun ((_, j, _), _) -> mem_float "heap_mb" j) ok)
      ~rss_mb:(List.map (fun ((_, j, _), _) -> mem_float "rss_mb" j) ok)
  in
  let trace () =
    let runs = repeat c ~min:6 ~smoke:2 (fun i -> sample ~trace:(i mod 2 = 1)) in
    let ops = List.filter_map (Option.map (fun (_, _, o) -> o)) runs in
    write_trace c name
      (List.mapi
         (fun i o -> (i + 1, 1, Printf.sprintf "%s traced sample %d" name (i + 1), [ o.spans ]))
         (List.filter (fun o -> o.traced) ops));
    trace_metrics c problem ~coverage_floor:true ops
  in
  let e2e = if c.e2e then e2e () else [] in
  let layers = if c.trace then trace () else [] in
  outcome name ~metrics:(e2e @ layers) ~attempted:!attempted ~failed:!failed !problems

(* ------------------------------------------------------------------ *)
(* refresh-mixed                                                        *)
(* ------------------------------------------------------------------ *)

(* a cycle's values plus the next cycle's, as one pair *)
let sum_rows a b =
  List.map (fun (k, v) -> (k, v +. Option.value ~default:0. (List.assoc_opt k b))) a

let refresh c ~dir =
  let name = "refresh-mixed" in
  let problems, problem = gates () in
  let reference = Filename.concat dir "reference.json" in
  let cold data =
    let j = Child.call "analyze" [ ("dir", dir); ("data", data); ("migrate", "0"); ("trace", "0") ] in
    if Json.mem_bool "ok" j <> Some true then failwith "refresh: cold reference run failed";
    member "artifacts" j
  in
  (* the worker loads, verifies and warms up, then runs append/delete
     pairs for the pass; [measure = false] stops it after the warm-up *)
  let worker ~measure ~traced =
    Child.spawn "refresh"
      [
        ("dir", dir); ("reference", reference); ("warmup", "2");
        ("seconds", string_of_int (if measure && not c.smoke then c.seconds else 0));
        ("min_pairs", string_of_int (if not measure then 0 else if c.smoke then 2 else min_refresh_pairs));
        ("trace", Child.bit traced);
        ( "calibrate",
          string_of_int (if measure && not traced then Calib.size ~smoke:c.smoke else 0) );
      ]
  in
  (* inputs and cold references in this process, then the worker's
     own set-up: a setup ends where the worker's first timed pair
     would start *)
  let setup ~measure ~traced =
    let local, () =
      timed (fun () ->
          let g = Inputs.generate ~seed:c.seed (scaled c) in
          Inputs.write_synthetic ~dir ~data:"data" g;
          Inputs.write_batch ~dir ~mutated:"mutated" g (Inputs.batch ~seed:c.seed g);
          Inputs.write_file reference
            (Json.to_string (Json.Obj [ ("base", cold "data"); ("mutated", cold "mutated") ])))
    in
    let j = Child.finish (worker ~measure ~traced) in
    (local +. mem_float "setup_s" j, j)
  in
  let setup_runs =
    List.init setups (fun i ->
        let calib_ms = calibration c in
        let s, j = setup ~measure:(i = setups - 1) ~traced:(i = setups - 1 && not c.e2e) in
        ((s, calib_ms), j))
  in
  let attempted = ref 0 and failed = ref 0 in
  (* a block's pairs as ((append_s, delete_s), op) *)
  let pairs ~setup_stats block =
    List.map
      (fun p ->
        attempted := !attempted + 2;
        let cycle k =
          let cj = member k p in
          ( mem_float "s" cj,
            Child.stats_of_json (member "stats" cj),
            List.map Tracer.of_json (Option.get (Json.mem_list "spans" cj)) )
        in
        let (a_s, a_stats, a_spans), (d_s, d_stats, d_spans) = (cycle "append", cycle "delete") in
        let traced = Json.mem_bool "traced" p = Some true in
        let covered spans = Tracer.coverage spans *. Tracer.duration (Tracer.op spans) in
        ( (a_s, d_s),
          {
            latency = a_s +. d_s;
            traced;
            spans = a_spans @ d_spans;
            layers =
              (if not traced then []
               else
                 sum_rows (Tracer.layer_ms a_spans) (Tracer.layer_ms d_spans)
                 @ [ ("trace.coverage", (covered a_spans +. covered d_spans) /. (a_s +. d_s)) ]
                 @ sum_rows a_stats d_stats @ setup_stats
                 (* the spec is read and its DDL parsed once, in set-up *)
                 @ absent [ "job_spec"; "ddl"; "serve.submit"; "serve.wait"; "serve.artifacts" ]);
          } ))
      (Option.get (Json.mem_list "pairs" block))
  in
  (* the worker's blocks, each with its pairs *)
  let blocks j =
    List.iter (fun p -> problem (parse_string p)) (Option.get (Json.mem_list "problems" j));
    failed := !failed + Option.get (Json.mem_int "failed" j);
    let setup_stats = Child.stats_of_json (member "setup_stats" j) in
    List.map (fun b -> (b, pairs ~setup_stats b)) (Option.get (Json.mem_list "blocks" j))
  in
  let e2e j =
    let blocks = blocks j in
    let ms f = List.concat_map (fun (_, ps) -> List.map (fun (ad, _) -> f ad *. 1e3) ps) blocks in
    e2e_metrics
      ~setup:(List.map fst setup_runs)
      ~blocks:
        (List.map
           (fun (b, ps) ->
             {
               latencies_ms = List.map (fun (_, o) -> o.latency *. 1e3) ps;
               ops_s = mem_float "s" b;
               calib_ms = mem_float "calib_ms" b;
             })
           blocks)
      ~heap_mb:[ mem_float "heap_mb" j ] ~rss_mb:[ mem_float "rss_mb" j ]
    @ Results.[ metric "refresh_append_ms" (ms fst); metric "refresh_delete_ms" (ms snd) ]
  in
  let trace j =
    let ops = List.concat_map (fun (_, ps) -> List.map snd ps) (blocks j) in
    write_trace c name
      [ (1, 1, name ^ " worker", List.filter_map (fun o -> if o.traced then Some o.spans else None) ops) ];
    trace_metrics c problem ~coverage_floor:true ops
  in
  let first = snd (last setup_runs) in
  let metrics =
    if not c.e2e then trace first
    else
      let e2e = e2e first in
      if c.trace then e2e @ trace (Child.finish (worker ~measure:true ~traced:true)) else e2e
  in
  outcome name ~metrics ~attempted:!attempted ~failed:!failed !problems

(* ------------------------------------------------------------------ *)
(* serve-small                                                          *)
(* ------------------------------------------------------------------ *)

module Client = Dbre_serve.Client

let wait_ready socket =
  let deadline = Probe.now () +. 30. in
  let rec go () =
    match Client.connect socket with
    | conn ->
        let up = try Client.ping conn with _ -> false in
        Client.close conn;
        if not up then retry ()
    | exception Unix.Unix_error _ -> retry ()
  and retry () =
    if Probe.now () > deadline then failwith "serve: daemon did not come up";
    Unix.sleepf 0.005;
    go ()
  in
  go ()

(* ask the daemon to stop (kill it if it does not answer) and read its
   report *)
let shutdown socket daemon =
  (try
     let conn = Client.connect socket in
     Client.shutdown conn;
     Client.close conn
   with _ -> ( try Unix.kill (Unix.process_in_pid daemon) Sys.sigkill with Unix.Unix_error _ -> ()));
  Child.finish daemon

(* One job as a client sees it: submit, follow the event stream until
   the job settles, fetch the artifacts (Client.wait's protocol). A
   traced job records the submit call, the wait for the settle event
   (the job queues and runs inside the daemon, out of sight) and the
   artifacts call. *)
let job conn ~traced spec =
  let tl = Tracer.timeline traced in
  let t0 = Probe.now () in
  Tracer.mark tl Tracer.Start;
  match Tracer.call tl "serve.submit" (fun () -> Client.submit conn spec) with
  | Error _ -> None
  | Ok (id, _) ->
      let submitted = Probe.now () in
      let rec follow since =
        match Client.watch conn ~since id with
        | Error _ -> None
        | Ok (_, next, settled) -> if settled then Some (Probe.now ()) else follow next
      in
      Option.bind (follow 0) (fun settled ->
          match Tracer.call tl "serve.artifacts" (fun () -> Client.artifacts conn id) with
          | Error _ -> None
          | Ok (arts, state) ->
              Tracer.mark tl Tracer.Stop;
              let t1 = Probe.now () in
              let spans =
                if traced then
                  Tracer.span Tracer.Wait "serve.wait" submitted settled :: Tracer.layers tl
                else []
              in
              Some (state, arts, t1 -. t0, spans))

(* [jobs] jobs in a closed loop: [conns] client threads, each with its
   own connection, each submitting its next job once the previous one's
   artifacts are back *)
let closed_loop ~socket ~conns ~jobs ~traced ~spec_of =
  let next = Atomic.make 0 in
  let results = Array.make jobs None in
  let worker tid =
    let conn = Client.connect socket in
    Fun.protect ~finally:(fun () -> Client.close conn) @@ fun () ->
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < jobs then begin
        (results.(i) <-
           (try Option.map (fun r -> (tid, r)) (job conn ~traced:(traced i) (spec_of i))
            with _ -> None));
        loop ()
      end
    in
    loop ()
  in
  List.iter Thread.join
    (List.init conns (fun tid ->
         Thread.create (fun () -> try worker tid with _ -> ()) ()));
  results

let in_process ?progress spec =
  match Dbre.Job.run ?progress spec with
  | Ok r -> r
  | Error p -> failwith (Error.to_string p.Dbre.Pipeline.p_error)

(* The daemon's stage events reach a client in batches (a job of a few
   milliseconds settles before its watcher is scheduled), too coarse to
   time stages by. The DDL, source, stage and report layers are
   therefore timed on in-process Job.run calls of the same specs — the
   call the daemon makes — averaged over the job mix; the submit call,
   the wait and the artifacts call are the client's own view. *)
let service_profile c specs =
  let reps = if c.smoke then 1 else 5 in
  let inline spec =
    List.filter_map
      (fun (_, src) -> match src with Source.Csv_inline text -> Some text | _ -> None)
      spec.Dbre.Job_spec.sources
  in
  let per_spec spec =
    let texts = inline spec in
    let bytes = List.fold_left (fun n t -> n + String.length t) 0 texts in
    let runs =
      List.init reps (fun _ ->
          let tl = Tracer.timeline true in
          Tracer.mark tl Tracer.Start;
          Tracer.mark tl (Tracer.Until_event "ddl");
          let r = in_process ~progress:(Tracer.progress tl) spec in
          ignore (Tracer.call tl "report" (fun () -> Dbre.Report.artifacts r));
          Tracer.mark tl Tracer.Stop;
          let spans = Tracer.layers tl in
          Tracer.layer_ms spans @ Child.result_counts r @ Child.source_stats ~bytes spans
          @ [ ("csv_scan.ms", Child.csv_scan_ms texts) ])
    in
    List.map (fun m -> (m.Results.name, Results.value m)) (Results.gather runs)
  in
  let profiles = List.map per_spec specs in
  List.map
    (fun (k, _) ->
      ( k,
        List.fold_left (fun s p -> s +. List.assoc k p) 0. profiles
        /. float_of_int (List.length profiles) ))
    (List.hd profiles)

let serve c ~dir =
  let name = "serve-small" in
  let socket = Filename.concat dir "daemon.sock" in
  let problems, problem = gates () in
  let conns = max 1 (min 2 nproc) in
  let spec_list = Inputs.serve_specs () in
  let specs = Array.of_list spec_list in
  let spec_index i = (c.seed + i) mod Array.length specs in
  let attempted = ref 0 and failed = ref 0 in
  (* every job must equal an in-process Job.run of the same spec;
     [count] tells timed jobs from warm-up ones *)
  let run_jobs ~count ~expected ~jobs ~traced =
    let results =
      closed_loop ~socket ~conns ~jobs ~traced ~spec_of:(fun i -> specs.(spec_index i))
    in
    List.filter_map Fun.id
      (Array.to_list
         (Array.mapi
            (fun i r ->
              if count then incr attempted;
              match r with
              | Some (tid, (state, arts, latency, spans)) when state = "done" ->
                  check_artifacts problem
                    ~what:(Printf.sprintf "serve job %d vs in-process run" i)
                    ~expected:expected.(spec_index i) arts;
                  Some (tid, { latency; traced = traced i; layers = []; spans })
              | _ ->
                  if count then incr failed
                  else problem (Printf.sprintf "serve: warm-up job %d failed" i);
                  None)
            results))
  in
  let start_daemon ~expected =
    Inputs.rm_rf dir;
    Inputs.mkdir_p dir;
    let daemon = Child.spawn "serve" [ ("socket", socket) ] in
    (try
       wait_ready socket;
       ignore (run_jobs ~count:false ~expected ~jobs:(serve_warmup c) ~traced:(fun _ -> false))
     with e ->
       ignore (shutdown socket daemon);
       raise e);
    daemon
  in
  let setup () =
    timed (fun () ->
        let expected = Array.map (fun s -> Dbre.Report.artifacts (in_process s)) specs in
        (expected, start_daemon ~expected))
  in
  let setup_runs =
    List.init setups (fun i ->
        let calib_ms = calibration c in
        let s, (expected, daemon) = setup () in
        if i < setups - 1 then ignore (shutdown socket daemon);
        ((s, calib_ms), (expected, daemon)))
  in
  let expected, first_daemon = snd (last setup_runs) in
  (* sessions of [session_jobs] timed jobs, each on a fresh daemon (the
     first on the one the set-up started), in blocks of [block_jobs];
     per session: the daemon's report and its blocks, each with its
     jobs, their window and, with [calibrate], the kernel's time after
     them (the daemon idles meanwhile) *)
  let sessions ~first ~traced ~calibrate =
    repeat c ~min:1 ~smoke:1 (fun i ->
        let daemon = if i = 0 then first else start_daemon ~expected in
        let blocks =
          try
            List.init (session_jobs c / block_jobs c) (fun _ ->
                let window, ops =
                  timed (fun () -> run_jobs ~count:true ~expected ~jobs:(block_jobs c) ~traced)
                in
                (window, ops, if calibrate then calibration c else 0.))
          with e ->
            ignore (shutdown socket daemon);
            raise e
        in
        (shutdown socket daemon, blocks))
  in
  let e2e first =
    let runs = sessions ~first ~traced:(fun _ -> false) ~calibrate:true in
    let blocks =
      List.concat_map
        (fun (_, bs) ->
          List.map
            (fun (window, ops, calib_ms) ->
              { latencies_ms = List.map (fun (_, o) -> o.latency *. 1e3) ops; ops_s = window; calib_ms })
            bs)
        runs
    in
    let daemon k = List.map (fun (report, _) -> mem_float k report) runs in
    e2e_metrics ~setup:(List.map fst setup_runs) ~blocks
      ~heap_mb:(daemon "heap_mb") ~rss_mb:(daemon "rss_mb")
    @ Results.
        [ metric "job_p99_ms" [ Stat.percentile 99. (List.concat_map (fun b -> b.latencies_ms) blocks) ] ]
  in
  let trace first =
    let runs =
      List.map
        (fun (report, bs) -> (report, List.concat_map (fun (_, ops, _) -> ops) bs))
        (sessions ~first ~traced:(fun i -> i mod 2 = 1) ~calibrate:false)
    in
    let profile = service_profile c spec_list in
    (* the daemon's own counters, per job it handled *)
    let handled = float_of_int (session_jobs c + serve_warmup c) in
    let per_job (k, v) = (k, if k = "ooc.zone_skip_ratio" then v else v /. handled) in
    let per_job =
      Results.gather
        (List.map
           (fun (report, _) -> List.map per_job (Child.stats_of_json (member "stats" report)))
           runs)
      |> List.map (fun m -> (m.Results.name, Results.value m))
    in
    let ops =
      List.concat_map
        (fun (_, ops) ->
          List.map
            (fun (tid, o) ->
              ( tid,
                if not o.traced then o
                else
                  {
                    o with
                    layers =
                      layers_of ~spans:o.spans ~stats:[]
                      @ profile @ per_job
                      (* a serve job is sent as a spec and never mutated here *)
                      @ absent [ "job_spec"; "table"; "refresh" ]
                      @ [ ("refresh.rows_applied", 0.); ("refresh.rebuilt", 0.) ];
                  } ))
            ops)
        runs
    in
    write_trace c name
      (List.init conns (fun tid ->
           ( 1, tid + 1, Printf.sprintf "client connection %d" (tid + 1),
             List.filter_map (fun (t, o) -> if t = tid && o.traced then Some o.spans else None) ops )));
    trace_metrics c problem ~coverage_floor:false (List.map snd ops)
  in
  let metrics =
    if not c.e2e then trace first_daemon
    else
      let e2e = e2e first_daemon in
      if c.trace then e2e @ trace (start_daemon ~expected) else e2e
  in
  outcome name ~metrics ~attempted:!attempted ~failed:!failed !problems

let all = [ "analyze-cold"; "analyze-spill"; "refresh-mixed"; "serve-small" ]

(* a workload's scratch inputs live under [c.out] for the run only *)
let run c w =
  let dir = Filename.concat c.out (Printf.sprintf "%s-%d" w (Unix.getpid ())) in
  Fun.protect ~finally:(fun () -> Inputs.rm_rf dir) @@ fun () ->
  match w with
  | "analyze-cold" -> analyze c ~dir ~spill:false
  | "analyze-spill" -> analyze c ~dir ~spill:true
  | "refresh-mixed" -> refresh c ~dir
  | "serve-small" -> serve c ~dir
  | w -> invalid_arg ("unknown workload " ^ w)
