(* The end-to-end benchmark: four workloads through the entry points
   users hit (Job.run, Job.refresh, the serve daemon), end-to-end
   metrics with tracing off and a separate traced pass for the
   per-layer breakdown. See README.md. *)

let usage =
  "usage: perf.exe [--seed N] [--workload NAME]... [--seconds N] [--trace 0|1]\n\
  \                [--smoke] [--out DIR]\n\
  \       perf.exe --compare A.json B.json"

type opts = {
  seed : int;
  workloads : string list;
  seconds : int;
  trace : bool option;  (** [None]: both passes *)
  smoke : bool;
  out : string;
  compare : (string * string) option;
}

let die fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perf: " ^ msg);
      prerr_endline usage;
      exit 2)
    fmt

let int_flag flag v =
  match int_of_string_opt v with
  | Some n when n >= 0 -> n
  | _ -> die "%s wants a non-negative integer, got %s" flag v

let rec parse o = function
  | [] -> o
  | "--seed" :: v :: rest -> parse { o with seed = int_flag "--seed" v } rest
  | "--workload" :: w :: rest ->
      if not (List.mem w Workloads.all) then
        die "unknown workload %s (one of %s)" w (String.concat ", " Workloads.all);
      parse { o with workloads = o.workloads @ [ w ] } rest
  | "--seconds" :: v :: rest ->
      parse { o with seconds = max 1 (int_flag "--seconds" v) } rest
  | "--trace" :: v :: rest -> (
      match v with
      | "0" -> parse { o with trace = Some false } rest
      | "1" -> parse { o with trace = Some true } rest
      | _ -> die "--trace wants 0 or 1, got %s" v)
  | "--smoke" :: rest -> parse { o with smoke = true } rest
  | "--out" :: d :: rest -> parse { o with out = d } rest
  | "--compare" :: a :: b :: rest -> parse { o with compare = Some (a, b) } rest
  | arg :: _ -> die "unexpected argument %s" arg

(* The comparator on made-up results: it must pass a file against
   itself, flag a bounded metric worse than its bound, and refuse to
   compare a file with a failed workload or a missing bounded metric. *)
let compare_self_test () =
  let bounds = [ ("norm_latency_ms", (0.1, true)) ] in
  let results ?(failed = 0) ?(latency = 100.) ?(with_latency = true) () =
    Results.results_json ~seed:1 ~seconds:1 ~smoke:true
      [
        {
          Results.workload = "w";
          metrics =
            (if with_latency then [ Results.metric "norm_latency_ms" [ latency; latency ] ] else [])
            @ [ Results.metric "peak_heap_mb" [ 1. ] ];
          attempted = 2;
          failed;
          problems = [];
        };
      ]
  in
  let verdict b =
    let v = Results.compare ~bounds (results ()) b in
    (v.Results.regressions, List.length v.Results.problems)
  in
  verdict (results ()) = (0, 0)
  && verdict (results ~latency:105. ()) = (0, 0)
  && verdict (results ~latency:120. ()) = (1, 0)
  && verdict (results ~failed:1 ()) = (0, 1)
  && verdict (results ~with_latency:false ()) = (0, 1)

(* Negative self-test: the gates must reject a perturbed expectation,
   or every identity check of a run would pass vacuously. *)
let self_test () =
  let spec = List.hd (Inputs.serve_specs ()) in
  let arts =
    match Dbre.Job.run spec with
    | Ok r -> Dbre.Report.artifacts r
    | Error _ -> []
  in
  let perturbed = List.map (fun (k, v) -> if k = "F" then (k, v ^ " ") else (k, v)) arts in
  let g = Inputs.generate ~seed:1 (Inputs.scaled 0.1) in
  let truth = g.Workload.Gen_schema.truth in
  let problems, problem = Workloads.gates () in
  Workloads.truth_gate problem ~truth
    ~inds:(List.tl truth.Workload.Gen_schema.planted_inds)
    ~fds:truth.Workload.Gen_schema.planted_fds;
  arts <> []
  && Workloads.artifact_diff ~expected:arts arts = []
  && Workloads.artifact_diff ~expected:perturbed arts = [ "F" ]
  && List.length !problems = 1
  && compare_self_test ()

let run o =
  let c =
    {
      Workloads.seed = o.seed;
      seconds = o.seconds;
      smoke = o.smoke;
      out = o.out;
      e2e = o.trace <> Some true;
      trace = o.trace <> Some false;
    }
  in
  Inputs.mkdir_p o.out;
  let declared =
    (if c.Workloads.e2e then Results.end_to_end else [])
    @ if c.Workloads.trace then Results.per_layer else []
  in
  let outcomes =
    List.map
      (fun w ->
        let o =
          try Workloads.run c w
          with e ->
            {
              Results.workload = w;
              metrics = [];
              attempted = 1;
              failed = 1;
              problems = [ Printexc.to_string e ];
            }
        in
        {
          o with
          Results.problems =
            o.Results.problems
            @ List.map (fun m -> "metric not measured: " ^ m) (Results.missing declared o);
        })
      (if o.workloads = [] then Workloads.all else o.workloads)
  in
  let self_ok = (not o.smoke) || self_test () in
  Inputs.write_file
    (Filename.concat o.out "results.json")
    (Relational.Json.to_string
       (Results.results_json ~seed:o.seed ~seconds:o.seconds ~smoke:o.smoke outcomes));
  List.iter Results.print_lines outcomes;
  List.iter
    (fun r -> List.iter (fun p -> Printf.eprintf "%s: %s\n" r.Results.workload p) r.Results.problems)
    outcomes;
  if not self_ok then
    prerr_endline "self-test: a perturbed expectation or results file was not rejected";
  print_endline (Relational.Json.to_string (Results.final_line ~declared outcomes));
  exit (if self_ok && List.for_all Results.correct outcomes then 0 else 1)

let () =
  match Array.to_list Sys.argv with
  | _ :: "--child" :: rest -> Child.main rest
  | _ :: args -> (
      let o =
        parse
          {
            seed = 42;
            workloads = [];
            seconds = 20;
            trace = None;
            smoke = false;
            out = Filename.concat "bench" (Filename.concat "e2e" "out");
            compare = None;
          }
          args
      in
      match o.compare with
      | Some (a, b) ->
          let v =
            Results.compare
              ~bounds:(Results.bounds (Results.read_json "BENCHMARK.json"))
              (Results.read_json a) (Results.read_json b)
          in
          List.iter print_endline v.Results.rows;
          List.iter (fun p -> prerr_endline ("not comparable: " ^ p)) v.Results.problems;
          exit (if v.Results.regressions > 0 || v.Results.problems <> [] then 1 else 0)
      | None -> run o)
  | [] -> exit 2
