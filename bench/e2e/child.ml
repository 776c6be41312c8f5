(* Child processes. Every analyze sample, the refresh worker and the
   serve daemon run in a fresh re-exec of this executable: the GC's
   top-heap mark, VmHWM and the out-of-core policy are process-global,
   and a fresh process carries no memo over from an earlier sample. A
   child is started as [perf.exe --child MODE key=value ...] and
   reports one JSON object on the last line of its standard output. *)

open Relational

let arg args k =
  match List.assoc_opt k args with
  | Some v -> v
  | None -> failwith ("child: missing argument " ^ k)

let int_arg args k = int_of_string (arg args k)
let flag args k = arg args k = "1"
let bit b = if b then "1" else "0"

let spawn mode args =
  let exe = Sys.executable_name in
  Unix.open_process_args_in exe
    (Array.of_list
       (exe :: "--child" :: mode :: List.map (fun (k, v) -> k ^ "=" ^ v) args))

let finish ic =
  let out = In_channel.input_all ic in
  let status = Unix.close_process_in ic in
  let last =
    List.fold_left
      (fun acc l -> if String.trim l = "" then acc else Some l)
      None (String.split_on_char '\n' out)
  in
  match (status, Option.bind last Json.of_string_opt) with
  | Unix.WEXITED 0, Some report -> report
  | _ -> failwith "child process failed without a report"

let call mode args = finish (spawn mode args)

(* the kernel's milliseconds in a fresh process of its own; every run
   must do the same work as the first *)
let calibration =
  let first = ref None in
  fun n ->
    let j = call "calibrate" [ ("n", string_of_int n) ] in
    let check = Json.mem_int "check" j in
    if !first = None then first := Some check
    else if !first <> Some check then failwith "calibration kernel returned another checksum";
    Option.get (Json.mem_float "ms" j)

let report fields = print_endline (Json.to_string (Json.Obj fields))

(* ------------------------------------------------------------------ *)
(* Shared encodings                                                     *)
(* ------------------------------------------------------------------ *)

let strings l = Json.List (List.map (fun s -> Json.String s) l)

let artifacts_json arts =
  Json.Obj (List.map (fun (name, text) -> (name, Json.String text)) arts)

let artifacts_of_json j =
  List.map
    (fun (name, v) -> (name, Option.get (Json.to_string_opt v)))
    (Option.get (Json.to_obj_opt j))

let stats_json stats = Json.Obj (List.map (fun (k, v) -> (k, Json.Float v)) stats)

let stats_of_json j =
  List.map
    (fun (k, v) -> (k, Option.get (Json.to_float_opt v)))
    (Option.value ~default:[] (Json.to_obj_opt j))

let spans_json spans = Json.List (List.map Tracer.to_json spans)

(* the paper's work counts, read off a pipeline result *)
let result_counts (r : Dbre.Pipeline.result) =
  let n l = float_of_int (List.length l) in
  [
    ("sqlx.equijoins", n r.Dbre.Pipeline.equijoins);
    ("ind_discovery.tests", n r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.steps);
    ("rhs_discovery.fd_tests", n r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.steps);
    ( "restruct.rows_out",
      match r.Dbre.Pipeline.restruct_result.Dbre.Restruct.database with
      | Some db -> float_of_int (Database.total_tuples db)
      | None -> 0. );
  ]

let csv_files dir =
  List.filter_map
    (fun f -> if Filename.check_suffix f ".csv" then Some (Filename.concat dir f) else None)
    (List.sort compare (Array.to_list (Sys.readdir dir)))

let file_bytes files =
  List.fold_left (fun n f -> n + (Unix.stat f).Unix.st_size) 0 files

(* the bare CSV scanner over the same bytes, apart from typing and
   encoding: a separate pass, outside any measured operation *)
let csv_scan_ms texts =
  let t0 = Probe.now () in
  List.iter
    (fun text -> ignore (Csv.fold ~f:(fun n _ -> n + 1) ~init:0 text))
    texts;
  (Probe.now () -. t0) *. 1e3

(* rows and throughput of the source layer, from its span *)
let source_stats ~bytes spans =
  match List.find_opt (fun s -> s.Tracer.name = "source") spans with
  | None -> []
  | Some s ->
      [
        ( "source.rows",
          float_of_int (Option.get (Json.to_int_opt (List.assoc "rows" s.Tracer.args))) );
        ("source.mb_per_s", float_of_int bytes /. 1e6 /. Tracer.duration s);
      ]

let spec_of_dir ~dir ~data ~migrate =
  match
    Dbre.Job_spec.of_args ~ddl:(Inputs.ddl_path dir)
      ~data_dir:(Filename.concat dir data) ~programs_dir:(Inputs.programs_dir dir)
      ~migrate_data:migrate ()
  with
  | Ok spec -> spec
  | Error msg -> failwith msg

let progress tl = if tl.Tracer.on then Some (Tracer.progress tl) else None

(* ------------------------------------------------------------------ *)
(* analyze: one Job.run from source files to the five artifacts         *)
(* ------------------------------------------------------------------ *)

let analyze args =
  (match List.assoc_opt "spill" args with
  | Some spill_dir ->
      ignore
        (Engine.make ~spill_dir
           ~resident_budget_words:(int_arg args "budget")
           ?segment_rows:(Option.map int_of_string (List.assoc_opt "segment" args))
           ())
  | None -> ());
  let dir = arg args "dir" and data = arg args "data" in
  let tl = Tracer.timeline (flag args "trace") in
  let before = Probe.snapshot () in
  let t0 = Probe.now () in
  Tracer.mark tl Tracer.Start;
  (* the user path of `dbre analyze`: the spec is read from the files *)
  let spec =
    Tracer.call tl "job_spec" (fun () -> spec_of_dir ~dir ~data ~migrate:(flag args "migrate"))
  in
  Tracer.mark tl (Tracer.Until_event "ddl");
  let result = Dbre.Job.run ?progress:(progress tl) spec in
  let artifacts = Tracer.call tl "report" (fun () -> Result.map Dbre.Report.artifacts result) in
  Tracer.mark tl Tracer.Stop;
  let wall = Probe.now () -. t0 in
  let usage = Probe.usage before (Probe.snapshot ()) in
  let spans = if tl.Tracer.on then Tracer.layers tl else [] in
  let traced_stats =
    if not tl.Tracer.on then []
    else
      let files = csv_files (Filename.concat dir data) in
      source_stats ~bytes:(file_bytes files) spans
      @ [ ("csv_scan.ms", csv_scan_ms (List.map Inputs.read_file files)) ]
  in
  match (result, artifacts) with
  | Error p, _ | _, Error p ->
      report
        [
          ("ok", Json.Bool false);
          ("error", Json.String (Error.to_string p.Dbre.Pipeline.p_error));
        ]
  | Ok r, Ok arts ->
      report
        [
          ("ok", Json.Bool true);
          ("wall_s", Json.Float wall);
          ("artifacts", artifacts_json arts);
          ( "inds",
            Json.List
              (List.map
                 (fun (i : Deps.Ind.t) ->
                   Json.List
                     [
                       Json.String i.Deps.Ind.lhs_rel; strings i.Deps.Ind.lhs_attrs;
                       Json.String i.Deps.Ind.rhs_rel; strings i.Deps.Ind.rhs_attrs;
                     ])
                 r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds) );
          ( "fds",
            Json.List
              (List.map
                 (fun (f : Deps.Fd.t) ->
                   Json.List
                     [ Json.String f.Deps.Fd.rel; strings f.Deps.Fd.lhs; strings f.Deps.Fd.rhs ])
                 r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds) );
          ("heap_mb", Json.Float (Probe.peak_heap_mb ()));
          ("rss_mb", Json.Float (Probe.peak_rss_mb ()));
          ("stats", stats_json (usage @ result_counts r @ traced_stats));
          ("spans", spans_json spans);
        ]

(* ------------------------------------------------------------------ *)
(* refresh: load and verify once, then append/delete cycle pairs        *)
(* ------------------------------------------------------------------ *)

(* pairs per block of the end-to-end pass: about as long as one run of
   the calibration kernel *)
let block_pairs = 2

let refresh args =
  let dir = arg args "dir" in
  let reference = Json.of_string (Inputs.read_file (arg args "reference")) in
  let expected key = artifacts_of_json (Option.get (Json.member key reference)) in
  let base = expected "base" and mutated = expected "mutated" in
  let trace = flag args "trace" in
  let problems = ref [] and failed = ref 0 in
  let problem msg = problems := msg :: !problems in
  let t0 = Probe.now () in
  let spec = spec_of_dir ~dir ~data:"data" ~migrate:false in
  let load_tl = Tracer.timeline trace in
  Tracer.mark load_tl Tracer.Start;
  Tracer.mark load_tl (Tracer.Until_event "ddl");
  let db, quarantine =
    match Dbre.Job.database ?progress:(progress load_tl) spec with
    | Ok loaded -> loaded
    | Error e -> failwith (Error.to_string e)
  in
  Tracer.mark load_tl Tracer.Stop;
  (match Dbre.Job.verify ~db ~quarantine spec with
  | Ok r when Dbre.Report.artifacts r = base -> ()
  | Ok _ -> problem "refresh: first verification differs from the cold base run"
  | Error p -> failwith (Error.to_string p.Dbre.Pipeline.p_error));
  let batch = Inputs.read_batch ~dir db in
  let sizes =
    List.map
      (fun (name, rows) -> (name, Database.cardinality db name, List.length rows))
      batch
  in
  let cycle ~append ~traced =
    let tl = Tracer.timeline traced in
    let before = Probe.snapshot () in
    let c0 = Probe.now () in
    Tracer.mark tl Tracer.Start;
    Tracer.call tl "table" (fun () ->
        if append then
          List.iter (fun (name, rows) -> Table.insert_many (Database.table db name) rows) batch
        else
          List.iter
            (fun (name, n, k) ->
              Table.delete_rows (Database.table db name) (List.init k (fun i -> n + i)))
            sizes);
    (* Pipeline.refresh_checked runs the delta pass (Refresh.database)
       before its first stage *)
    Tracer.mark tl (Tracer.Until_event "refresh");
    let delta, result = Dbre.Job.refresh ?progress:(progress tl) ~db ~quarantine spec in
    let artifacts = Tracer.call tl "report" (fun () -> Result.map Dbre.Report.artifacts result) in
    Tracer.mark tl Tracer.Stop;
    let dt = Probe.now () -. c0 in
    (match artifacts with
    | Ok arts when arts = (if append then mutated else base) -> ()
    | Ok _ ->
        problem
          (Printf.sprintf "refresh: %s cycle differs from its cold reference"
             (if append then "append" else "delete"))
    | Error _ -> incr failed);
    let stats =
      Probe.usage before (Probe.snapshot ())
      @ (match result with Ok r -> result_counts r | Error _ -> [])
      @ [
          ("refresh.rows_applied", float_of_int delta.Dbre.Refresh.rows_applied);
          ("refresh.rebuilt", float_of_int delta.Dbre.Refresh.rebuilt);
        ]
    in
    (dt, stats, if traced then Tracer.layers tl else [])
  in
  let pair ~traced =
    let a = cycle ~append:true ~traced in
    let d = cycle ~append:false ~traced in
    (traced, a, d)
  in
  for _ = 1 to int_arg args "warmup" do
    ignore (pair ~traced:false)
  done;
  let setup_s = Probe.now () -. t0 in
  (* blocks of [block_pairs] pairs until [seconds] have passed and at
     least [min_pairs] ran; a traced run traces every other pair. With
     [calibrate] > 0 a kernel process of that size runs after every
     block. *)
  let seconds = float_of_int (int_arg args "seconds") and min_pairs = int_arg args "min_pairs" in
  let calibrate = int_arg args "calibrate" in
  let rec go i acc =
    if i >= min_pairs && Probe.now () -. (t0 +. setup_s) >= seconds then List.rev acc
    else
      let b0 = Probe.now () in
      let pairs = List.init block_pairs (fun k -> pair ~traced:(trace && (i + k) mod 2 = 1)) in
      let block_s = Probe.now () -. b0 in
      let calib = if calibrate > 0 then [ ("calib_ms", Json.Float (calibration calibrate)) ] else [] in
      go (i + block_pairs) ((block_s, calib, pairs) :: acc)
  in
  let blocks = go 0 [] in
  let setup_stats =
    if not trace then []
    else
      let files = csv_files (Filename.concat dir "data") in
      let spans = Tracer.layers load_tl in
      List.filter_map
        (fun s -> if s.Tracer.name = "source" then Some ("source.ms", Tracer.duration s *. 1e3) else None)
        spans
      @ source_stats ~bytes:(file_bytes files) spans
      @ [ ("csv_scan.ms", csv_scan_ms (List.map Inputs.read_file files)) ]
  in
  let cycle_json (dt, stats, spans) =
    Json.Obj [ ("s", Json.Float dt); ("stats", stats_json stats); ("spans", spans_json spans) ]
  in
  report
    [
      ("setup_s", Json.Float setup_s);
      ("failed", Json.Int !failed);
      ("problems", strings (List.rev !problems));
      ("heap_mb", Json.Float (Probe.peak_heap_mb ()));
      ("rss_mb", Json.Float (Probe.peak_rss_mb ()));
      ("setup_stats", stats_json setup_stats);
      ( "blocks",
        Json.List
          (List.map
             (fun (block_s, calib, pairs) ->
               Json.Obj
                 ([
                    ("s", Json.Float block_s);
                    ( "pairs",
                      Json.List
                        (List.map
                           (fun (traced, a, d) ->
                             Json.Obj
                               [
                                 ("traced", Json.Bool traced);
                                 ("append", cycle_json a);
                                 ("delete", cycle_json d);
                               ])
                           pairs) );
                  ]
                 @ calib))
             blocks) );
    ]

(* ------------------------------------------------------------------ *)
(* calibrate: one run of the calibration kernel in a fresh process      *)
(* ------------------------------------------------------------------ *)

let calibrate args =
  let ms, check = Calib.run (int_arg args "n") in
  report [ ("ms", Json.Float ms); ("check", Json.Int check) ]

(* ------------------------------------------------------------------ *)
(* serve: the daemon, until a client asks it to shut down               *)
(* ------------------------------------------------------------------ *)

let serve args =
  let before = Probe.snapshot () in
  let server = Dbre_serve.Server.create ~max_jobs:2 ~socket:(arg args "socket") () in
  Dbre_serve.Server.run server;
  report
    [
      ("heap_mb", Json.Float (Probe.peak_heap_mb ()));
      ("rss_mb", Json.Float (Probe.peak_rss_mb ()));
      ("stats", stats_json (Probe.usage before (Probe.snapshot ())));
    ]

let main = function
  | mode :: kvs ->
      let args =
        List.map
          (fun kv ->
            match String.index_opt kv '=' with
            | Some i -> (String.sub kv 0 i, String.sub kv (i + 1) (String.length kv - i - 1))
            | None -> failwith ("child: bad argument " ^ kv))
          kvs
      in
      (match mode with
      | "analyze" -> analyze args
      | "refresh" -> refresh args
      | "serve" -> serve args
      | "calibrate" -> calibrate args
      | m -> failwith ("child: unknown mode " ^ m));
      exit 0
  | [] -> failwith "child: no mode"
