(* Metric definitions, the run report (stdout lines, results.json and
   the final JSON line) and the comparison of two results.json files. *)

open Relational

(* what a user of the system sees; every workload reports each one.
   Times and rates are normalized by the calibration kernel (Calib). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("norm_latency_ms", "ms");
    ("norm_ops_per_s", "1/s");
    ("peak_heap_mb", "MiB");
    ("peak_rss_mb", "MiB");
  ]

(* one layer at a time, timed from outside (see Tracer.layers), plus
   the work each layer did; every workload reports each one *)
let per_layer =
  [
    ("job_spec.ms", "ms");
    ("ddl.ms", "ms");
    ("source.ms", "ms");
    ("extract.ms", "ms");
    ("ind_discovery.ms", "ms");
    ("lhs_discovery.ms", "ms");
    ("rhs_discovery.ms", "ms");
    ("restruct.ms", "ms");
    ("translate.ms", "ms");
    ("report.ms", "ms");
    ("table.ms", "ms");
    ("refresh.ms", "ms");
    ("serve.submit.ms", "ms");
    ("serve.wait.ms", "ms");
    ("serve.artifacts.ms", "ms");
    ("csv_scan.ms", "ms");
    ("source.rows", "count");
    ("source.mb_per_s", "MB/s");
    ("sqlx.equijoins", "count");
    ("ind_discovery.tests", "count");
    ("rhs_discovery.fd_tests", "count");
    ("restruct.rows_out", "count");
    ("ooc.spill_writes", "count");
    ("ooc.map_loads", "count");
    ("ooc.evictions", "count");
    ("ooc.zone_skip_ratio", "fraction");
    ("ooc.ind_short_circuits", "count");
    ("refresh.rows_applied", "count");
    ("refresh.rebuilt", "count");
    ("column_store.rows_absorbed", "count");
    ("gc.alloc_mw", "Mw");
    ("gc.major_collections", "count");
    ("proc.cpu_ms", "ms");
    ("trace.coverage", "fraction");
    ("trace.overhead", "fraction");
  ]

(* printed and kept in results.json, outside BENCHMARK.json: the raw
   times and rates behind the normalized ones, the kernel's own time,
   and what only one workload measures *)
let extras =
  [
    ("setup_raw_s", "s");
    ("latency_ms", "ms");
    ("ops_per_s", "1/s");
    ("calib_ms", "ms");
    ("refresh_append_ms", "ms");
    ("refresh_delete_ms", "ms");
    ("job_p99_ms", "ms");
  ]

type metric = { name : string; unit_ : string; samples : float list }

let metric name samples =
  match List.assoc_opt name (end_to_end @ per_layer @ extras) with
  | Some unit_ -> { name; unit_; samples }
  | None -> invalid_arg ("Results.metric: undeclared metric " ^ name)

let value m = Stat.median m.samples

(* per-operation (name, value) rows into one metric per name, samples
   in operation order, names in first-seen order *)
let gather rows =
  let tbl = Hashtbl.create 64 and order = ref [] in
  List.iter
    (List.iter (fun (k, v) ->
         match Hashtbl.find_opt tbl k with
         | Some vs -> Hashtbl.replace tbl k (v :: vs)
         | None ->
             order := k :: !order;
             Hashtbl.replace tbl k [ v ]))
    rows;
  List.rev_map (fun k -> metric k (List.rev (Hashtbl.find tbl k))) !order

type outcome = {
  workload : string;
  metrics : metric list;
  attempted : int;
  failed : int;
  problems : string list;  (** correctness gates that failed *)
}

let correct o = o.problems = [] && o.failed = 0

(* the metrics of a pass must be exactly the declared set *)
let missing declared o =
  List.filter_map
    (fun (name, _) ->
      if List.exists (fun m -> m.name = name) o.metrics then None else Some name)
    declared

let print_lines o =
  List.iter
    (fun m ->
      Printf.printf "%s %s %.6g %s\n" o.workload m.name (value m) m.unit_)
    o.metrics

let metric_json m =
  let s = Stat.summary m.samples in
  Json.Obj
    [
      ("unit", Json.String m.unit_);
      ("value", Json.Float s.Stat.median);
      ("median", Json.Float s.Stat.median);
      ("q1", Json.Float s.Stat.q1);
      ("q3", Json.Float s.Stat.q3);
      ("n", Json.Int s.Stat.n);
      ("samples", Json.List (List.map (fun v -> Json.Float v) m.samples));
    ]

let results_json ~seed ~seconds ~smoke outcomes =
  Json.Obj
    [
      ("seed", Json.Int seed);
      ("seconds", Json.Int seconds);
      ("smoke", Json.Bool smoke);
      ("nproc", Json.Int (Stdlib.Domain.recommended_domain_count ()));
      ("ocaml", Json.String Sys.ocaml_version);
      ( "workloads",
        Json.Obj
          (List.map
             (fun o ->
               ( o.workload,
                 Json.Obj
                   [
                     ("correct", Json.Bool (correct o));
                     ("attempted", Json.Int o.attempted);
                     ("failed", Json.Int o.failed);
                     ("problems", Json.List (List.map (fun p -> Json.String p) o.problems));
                     ( "metrics",
                       Json.Obj (List.map (fun m -> (m.name, metric_json m)) o.metrics) );
                   ] ))
             outcomes) );
    ]

(* The last line of stdout: the declared metrics of the passes that
   ran, by name — prefixed with the workload when several ran. *)
let final_line ~declared outcomes =
  let prefix o = match outcomes with [ _ ] -> "" | _ -> o.workload ^ ":" in
  let sum f = List.fold_left (fun n o -> n + f o) 0 outcomes in
  Json.Obj
    [
      ("correct", Json.Bool (List.for_all correct outcomes));
      ("attempted", Json.Int (sum (fun o -> o.attempted)));
      ("failed", Json.Int (sum (fun o -> o.failed)));
      ( "metrics",
        Json.Obj
          (List.concat_map
             (fun o ->
               List.filter_map
                 (fun m ->
                   if List.mem_assoc m.name declared then
                     Some
                       ( prefix o ^ m.name,
                         Json.Obj
                           [ ("value", Json.Float (value m)); ("unit", Json.String m.unit_) ] )
                   else None)
                 o.metrics)
             outcomes) );
    ]

(* ------------------------------------------------------------------ *)
(* --compare A.json B.json                                              *)
(* ------------------------------------------------------------------ *)

let read_json path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

(* (name, (bound, lower_is_better)) for every end-to-end metric *)
let bounds benchmark =
  List.filter_map
    (fun m ->
      match
        (Json.mem_string "name" m, Json.mem_float "bound" m, Json.mem_string "better" m)
      with
      | Some name, Some bound, Some better -> Some (name, (bound, better = "lower"))
      | _ -> None)
    (Option.value ~default:[] (Json.mem_list "end_to_end" benchmark))

let summary_of j =
  let f k = Option.get (Json.mem_float k j) in
  (f "median", f "q1", f "q3")

let workloads results =
  Option.value ~default:[] (Option.bind (Json.member "workloads" results) Json.to_obj_opt)

let metrics_of body =
  Option.value ~default:[] (Option.bind (Json.member "metrics" body) Json.to_obj_opt)

type comparison = {
  rows : string list;  (** one per (workload, metric) in both files *)
  regressions : int;  (** rows where B is worse than A by more than the bound *)
  problems : string list;  (** why the two files cannot be compared *)
}

(* A results.json file is only comparable when every workload in it
   was correct, and B has every bounded metric A has. *)
let comparable ~bounds a b =
  let incorrect side results =
    List.filter_map
      (fun (w, body) ->
        let failed = Option.value ~default:0 (Json.mem_int "failed" body) in
        if Json.mem_bool "correct" body = Some true && failed = 0 then None
        else Some (Printf.sprintf "%s: %s is not correct (%d failed)" side w failed))
      (workloads results)
  in
  let missing =
    List.concat_map
      (fun (w, body) ->
        let bm =
          Option.fold ~none:[] ~some:metrics_of (List.assoc_opt w (workloads b))
        in
        List.filter_map
          (fun (name, _) ->
            if List.mem_assoc name bounds && not (List.mem_assoc name bm) then
              Some (Printf.sprintf "B: %s has no %s" w name)
            else None)
          (metrics_of body))
      (workloads a)
  in
  incorrect "A" a @ incorrect "B" b @ missing

(* One row per (workload, metric) present in both files, with both
   sides' median and quartiles, the relative difference, the metric's
   bound and a verdict: "regressed" when B is worse than A by more than
   the bound, "improved" when better by more, "within", or "info" for
   metrics without a bound. *)
let compare ~bounds a b =
  let header =
    Printf.sprintf "%-14s %-26s %28s %28s %8s %6s  %s" "workload" "metric"
      "A median [q1, q3]" "B median [q1, q3]" "diff" "bound" "verdict"
  in
  let rows, regressions =
    List.fold_left
      (fun acc (w, body) ->
        let bm = Option.fold ~none:[] ~some:metrics_of (List.assoc_opt w (workloads b)) in
        List.fold_left
          (fun (rows, regressions) (name, am) ->
            match List.assoc_opt name bm with
            | None -> (rows, regressions)
            | Some bm ->
                let am, aq1, aq3 = summary_of am and bm, bq1, bq3 = summary_of bm in
                let diff = if am = 0. then 0. else (bm -. am) /. Float.abs am in
                let bound, verdict, regressed =
                  match List.assoc_opt name bounds with
                  | None -> ("-", "info", false)
                  | Some (bound, lower) ->
                      let worse = if lower then diff else -.diff in
                      ( Printf.sprintf "%.0f%%" (bound *. 100.),
                        (if worse > bound then "regressed"
                         else if worse < -.bound then "improved"
                         else "within"),
                        worse > bound )
                in
                ( Printf.sprintf "%-14s %-26s %28s %28s %+7.1f%% %6s  %s" w name
                    (Printf.sprintf "%.4g [%.4g, %.4g]" am aq1 aq3)
                    (Printf.sprintf "%.4g [%.4g, %.4g]" bm bq1 bq3)
                    (diff *. 100.) bound verdict
                  :: rows,
                  if regressed then regressions + 1 else regressions ))
          acc (metrics_of body))
      ([], 0) (workloads a)
  in
  { rows = header :: List.rev rows; regressions; problems = comparable ~bounds a b }
