(* Benchmark & experiment harness.

   The paper (ICDE'96) evaluates its method on one worked example and one
   figure; it reports no timing tables. Accordingly this harness has two
   parts:

   - the E-sections (E1..E5, F1) re-generate every §5-§7 artifact and the
     Figure 1 EER schema, printing them in the paper's notation;
   - the B-groups guard the live design choices: B3 (FD checks on the
     column store vs the reference engines), B13 (batched verification),
     B14 (the CSV loader), B15 (supervision), B16 (serve), B17 (dataflow
     evidence), B18 (delta refresh) and B19 (the out-of-core store).
     Those with a stated target gate it under --check.

   Run `main.exe` for everything, `main.exe --experiments` for the paper
   artifacts only, `main.exe --bench` for the timings only. *)

open Bechamel
open Relational

(* ------------------------------------------------------------------ *)
(* Bechamel plumbing                                                    *)
(* ------------------------------------------------------------------ *)

let instance = Toolkit.Instance.monotonic_clock

(* --smoke: every B-group at a few iterations over tiny workloads, as a
   crash-and-shape check cheap enough for `dune runtest` (@bench-smoke).
   Estimates are meaningless in this mode; only the plumbing is
   exercised. *)
let smoke = ref false

(* --json: mirror every measurement into machine-readable
   BENCH_<section>.json files (one per B-group), each record a
   {section, metric, value, unit} object (plus "target" when the metric
   has a floor), so EXPERIMENTS.md tables can be regenerated without
   scraping the human-readable log. *)
let json_out = ref false

(* --check: after the run, fail (exit 1) if any recorded metric fell
   below its stated target. Speedup-style floors are only attached
   outside --smoke (tiny smoke workloads make timing ratios noise);
   correctness booleans (byte-identity) carry their 1.0 floor in every
   mode, so @bench-smoke gates them on each `dune runtest`. *)
let check_out = ref false
let current_section = ref "misc"

let json_records : (string * string * float * string * float option) list ref =
  ref []

let record ?section ?target metric value unit_ =
  let section = match section with Some s -> s | None -> !current_section in
  json_records := (section, metric, value, unit_, target) :: !json_records

(* a floor that only applies to full-size runs *)
let full_target t = if !smoke then None else Some t

let check_targets () =
  let failures =
    List.filter
      (fun (_, _, value, _, target) ->
        match target with
        | Some t -> Float.is_nan value || value < t
        | None -> false)
      (List.rev !json_records)
  in
  List.iter
    (fun (s, m, v, u, t) ->
      Printf.printf "CHECK FAILED: %s/%s = %.3g %s (target: >= %.3g)\n" s m v u
        (Option.value ~default:nan t))
    failures;
  let total =
    List.length
      (List.filter (fun (_, _, _, _, t) -> t <> None) !json_records)
  in
  if failures = [] then begin
    Printf.printf "check: %d targeted metrics within target\n%!" total;
    true
  end
  else false

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 32 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let write_json_files () =
  let sections =
    List.sort_uniq String.compare
      (List.map (fun (s, _, _, _, _) -> s) !json_records)
  in
  List.iter
    (fun s ->
      let rows =
        List.filter (fun (s', _, _, _, _) -> s' = s) (List.rev !json_records)
      in
      let buf = Buffer.create 1024 in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i (_, metric, value, unit_, target) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf
            (Printf.sprintf
               "  {\"section\": \"%s\", \"metric\": \"%s\", \"value\": %s, \
                \"unit\": \"%s\"%s}"
               (json_escape s) (json_escape metric)
               (if Float.is_nan value then "null"
                else Printf.sprintf "%.6g" value)
               (json_escape unit_)
               (match target with
               | Some t -> Printf.sprintf ", \"target\": %.6g" t
               | None -> "")))
        rows;
      Buffer.add_string buf "\n]\n";
      let file = Printf.sprintf "BENCH_%s.json" s in
      let oc = open_out file in
      output_string oc (Buffer.contents buf);
      close_out oc;
      Printf.printf "wrote %s (%d records)\n%!" file (List.length rows))
    sections

let cfg =
  Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) ~kde:None
    ~stabilize:false ()

let cfg_smoke =
  Benchmark.cfg ~limit:3 ~quota:(Time.second 0.005) ~kde:None
    ~stabilize:false ()

let ols =
  Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]

let pretty_time ns =
  if ns >= 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
  else if ns >= 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
  else if ns >= 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
  else Printf.sprintf "%.0f ns" ns

(* run a test group and print (and record) one line per element *)
let run_group (test : Test.t) =
  let cfg = if !smoke then cfg_smoke else cfg in
  let raw = Benchmark.all cfg [ instance ] test in
  let analyzed = Analyze.all ols instance raw in
  let rows =
    Hashtbl.fold
      (fun name ols_result acc ->
        match Analyze.OLS.estimates ols_result with
        | Some (est :: _) -> (name, est) :: acc
        | _ -> (name, nan) :: acc)
      analyzed []
  in
  let rows = List.sort (fun (a, _) (b, _) -> String.compare a b) rows in
  List.iter
    (fun (name, est) ->
      Printf.printf "  %-58s %12s/run\n%!" name (pretty_time est);
      record name est "ns/run")
    rows

let section title =
  (match String.index_opt title ':' with
  | Some i -> current_section := String.lowercase_ascii (String.sub title 0 i)
  | None -> current_section := String.lowercase_ascii title);
  Printf.printf "\n=== %s ===\n%!" title

(* ------------------------------------------------------------------ *)
(* E-sections: the paper's artifacts                                    *)
(* ------------------------------------------------------------------ *)

(* a pipeline run the bench needs whole: a stage failure aborts it *)
let run_ok = function
  | Ok r -> r
  | Error p -> raise (Error.Error p.Dbre.Pipeline.p_error)

let run_pipeline ?config ?checkpoint_dir ?resume_from db input =
  run_ok
    (Dbre.Pipeline.run_checked ?config ?checkpoint_dir ?resume_from db input)

let run_experiments () =
  section "E1: the paper's input (schema, K, N, Q) [section 5]";
  let schema = Workload.Paper_example.schema () in
  Format.printf "%a@." Schema.pp schema;
  Format.printf "K = %a@." Dbre.Report.pp_k_set schema;
  Format.printf "N = %a@." Dbre.Report.pp_n_set schema;
  Format.printf "Q =@.%a@." Dbre.Report.pp_equijoins
    (Workload.Paper_example.equijoins ());

  let result = run_ok (Dbre.Job.run (Workload.Paper_example.spec ())) in

  section "E2: IND-Discovery [section 6.1] - trace and elicited IND";
  Format.printf "%a@." Dbre.Report.pp_ind_steps
    result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.steps;
  Format.printf "IND =@.%a@." Dbre.Report.pp_inds
    result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds;
  Printf.printf
    "paper check: ||Person[id]||=2200 ||HEmployee[no]||=1550 join=1550 -> %s\n"
    (match result.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.steps with
    | {
        Dbre.Ind_discovery.counts =
          { Deps.Ind.n_left = 1550; n_right = 2200; n_join = 1550 };
        _;
      }
      :: _ ->
        "MATCH"
    | _ -> "MISMATCH");

  section "E3: LHS-Discovery [section 6.2.1] - LHS and H";
  Format.printf "LHS = %a@." Dbre.Report.pp_qattrs
    result.Dbre.Pipeline.lhs_result.Dbre.Lhs_discovery.lhs;
  Format.printf "H   = %a@." Dbre.Report.pp_qattrs
    result.Dbre.Pipeline.lhs_result.Dbre.Lhs_discovery.hidden;

  section "E4: RHS-Discovery [section 6.2.2] - F and final H";
  Format.printf "%a@." Dbre.Report.pp_rhs_steps
    result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.steps;
  Format.printf "F =@.%a@." Dbre.Report.pp_fds
    result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds;
  Format.printf "H = %a@." Dbre.Report.pp_qattrs
    result.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.hidden;

  section "E5: Restruct [section 7] - 3NF schema and RIC";
  Format.printf "%a@." Schema.pp
    result.Dbre.Pipeline.restruct_result.Dbre.Restruct.schema;
  Format.printf "RIC =@.%a@." Dbre.Report.pp_inds
    result.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric;
  Printf.printf "normal forms after restructuring:\n";
  List.iter
    (fun (name, nf) ->
      Printf.printf "  %-24s %s\n" name (Deps.Normal_forms.nf_to_string nf))
    (Dbre.Pipeline.nf_report result);

  section "F1: Translate [section 7] - the Figure 1 EER schema";
  Format.printf "%a@." Er.Text_render.pp
    result.Dbre.Pipeline.translate_result.Dbre.Translate.eer;
  match
    Er.Validate.check result.Dbre.Pipeline.translate_result.Dbre.Translate.eer
  with
  | Ok () -> Printf.printf "EER well-formedness: OK\n"
  | Error msgs ->
      Printf.printf "EER well-formedness: FAILED\n";
      List.iter print_endline msgs

(* ------------------------------------------------------------------ *)
(* Workload builders shared by the B-groups                             *)
(* ------------------------------------------------------------------ *)

let spec_with_rows rows =
  {
    Workload.Gen_schema.default_spec with
    Workload.Gen_schema.rows_per_entity = rows;
    rows_per_denorm = rows * 2;
  }

let sizes () =
  if !smoke then [ 20; 40; 60; 80 ] else [ 1_000; 5_000; 10_000; 50_000 ]

(* prebuilt workloads: construction excluded from the measured region *)
let workloads =
  lazy
    (List.map
       (fun n -> (n, Workload.Gen_schema.generate (spec_with_rows n)))
       (sizes ()))

let paper_db = lazy (Workload.Paper_example.database ())

(* ------------------------------------------------------------------ *)
(* B3: FD check engines vs extension size                               *)
(* ------------------------------------------------------------------ *)

let b3 () =
  section
    "B3: single-FD validation - naive hashing vs stripped partitions vs the \
     column store";
  let tests =
    List.concat_map
      (fun (n, g) ->
        let db = g.Workload.Gen_schema.db in
        let f =
          List.hd g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds
        in
        let table = Database.table db f.Deps.Fd.rel in
        [
          Test.make
            ~name:(Printf.sprintf "naive/rows=%d" n)
            (Staged.stage (fun () ->
                 ignore (Reference.Fd_infer.holds_naive table f)));
          Test.make
            ~name:(Printf.sprintf "partition/rows=%d" n)
            (Staged.stage (fun () ->
                 ignore (Reference.Fd_infer.holds_partition table f)));
          (* cold store each run: encode the touched columns, then sweep *)
          Test.make
            ~name:(Printf.sprintf "column-store/rows=%d" n)
            (Staged.stage (fun () ->
                 Column_store.drop_memos (Table.store table);
                 ignore (Deps.Fd_infer.holds table f)));
        ])
      (Lazy.force workloads)
  in
  run_group (Test.make_grouped ~name:"b3" tests);
  (* the amortized regime: a full levelwise discovery re-checks many
     FDs over shared LHS prefixes — where memoized partitions pay off *)
  Printf.printf "  amortized (full discovery over a 7-attribute relation):\n";
  let dept = Database.table (Lazy.force paper_db) "Person" in
  let tests =
    [
      Test.make ~name:"amortized/column store per candidate"
        (Staged.stage (fun () ->
             Column_store.drop_memos (Table.store dept);
             ignore (Deps.Fd_infer.discover ~max_lhs:2 ~rel:"Person" dept)));
      Test.make ~name:"amortized/memoized partitions (TANE)"
        (Staged.stage (fun () ->
             ignore
               (Reference.Fd_infer.discover_tane ~max_lhs:2 ~rel:"Person" dept)));
    ]
  in
  run_group (Test.make_grouped ~name:"b3x" tests)

(* ------------------------------------------------------------------ *)
(* B13: Verify_plan batching                                            *)
(* ------------------------------------------------------------------ *)

(* the --scale path: the default workload blown up to 50k-row entities
   and 100k-row denormalized relations (smoke: 50/100) *)
let b13_spec () =
  Workload.Gen_schema.scale
    (if !smoke then 0.05 else 50.0)
    Workload.Gen_schema.default_spec

(* smaller workload for B15's byte-identical resume check: the full
   pipeline runs once per configuration *)
let b13_artifact_spec () =
  Workload.Gen_schema.scale
    (if !smoke then 0.05 else 5.0)
    Workload.Gen_schema.default_spec

(* drop every memoized store, so the next check starts cold *)
let cold_db db =
  List.iter
    (fun rel -> Column_store.drop_memos (Table.store (Database.table db rel.Relation.name)))
    (Schema.relations (Database.schema db))

(* best-of-[reps]: the minimum is the run least disturbed by the
   scheduler and the GC, which is what a deterministic computation's
   cost actually is. [setup] runs untimed before each rep. *)
let b13_time ?(setup = ignore) reps f =
  let best = ref infinity in
  for _ = 1 to reps do
    setup ();
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (f ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best *. 1e9

let b13 () =
  section "B13: batched verification planner";
  let g = Workload.Gen_schema.generate (b13_spec ()) in
  let db = g.Workload.Gen_schema.db in
  let reps = if !smoke then 2 else 5 in

  (* FD batching: the RHS-Discovery shape — one candidate LHS (a planted
     reference attribute), every non-key non-LHS attribute of the
     relation as RHS. Unbatched is the reference per-candidate loop
     (one full row scan per RHS); batched is one fused sweep over the
     table's store with no memoized verdict. *)
  let f =
    List.hd g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds
  in
  let table = Database.table db f.Deps.Fd.rel in
  let rel = Table.schema table in
  let lhs = f.Deps.Fd.lhs in
  let key = Relation.key_attrs rel in
  let rhs =
    List.filter
      (fun b -> (not (List.mem b lhs)) && not (List.mem b key))
      rel.Relation.attrs
  in
  let per_candidate () =
    List.map
      (fun b ->
        ( b,
          Reference.Fd_infer.holds_naive table
            (Deps.Fd.make rel.Relation.name lhs [ b ]) ))
      rhs
  in
  let cold () = Column_store.drop_memos (Table.store table) in
  let batched () = Deps.Fd_infer.holds_all table ~lhs ~rhs in
  cold ();
  let verdicts_agree = per_candidate () = batched () in
  Printf.printf "  fd batch: %d rows, 1 LHS x %d RHS; verdicts agree: %b\n"
    (Table.cardinality table) (List.length rhs) verdicts_agree;
  record ~target:1.0 "fd-batch/verdicts-agree"
    (if verdicts_agree then 1.0 else 0.0)
    "bool";
  let unbatched_ns = b13_time reps per_candidate in
  let batched_ns = b13_time ~setup:cold reps batched in
  Printf.printf
    "  fd batch: per-candidate %s, batched %s -> %.1fx (target: >= 3x)\n"
    (pretty_time unbatched_ns) (pretty_time batched_ns)
    (unbatched_ns /. batched_ns);
  record "fd-batch/per-candidate" unbatched_ns "ns";
  record "fd-batch/batched" batched_ns "ns";
  record ?target:(full_target 3.0) "fd-batch/speedup-encoded-store"
    (unbatched_ns /. batched_ns) "x";

  (* IND batching: every probe of the workload's Q in one planner call —
     distinct sets built once per shared side instead of once per probe *)
  let probes =
    List.map
      (fun (j : Sqlx.Equijoin.t) ->
        ( (j.Sqlx.Equijoin.rel1, j.Sqlx.Equijoin.attrs1),
          (j.Sqlx.Equijoin.rel2, j.Sqlx.Equijoin.attrs2) ))
      g.Workload.Gen_schema.equijoins
  in
  let per_probe () =
    List.map (fun (l, r) -> Reference.Counts.ind_counts db l r) probes
  in
  let batched_probes () =
    cold_db db;
    Verify_plan.ind_batch db probes
  in
  let agree = per_probe () = batched_probes () in
  Printf.printf "  ind batch: %d probes; counts agree: %b\n"
    (List.length probes) agree;
  record ~target:1.0 "ind-batch/counts-agree" (if agree then 1.0 else 0.0) "bool";
  let per_probe_ns = b13_time reps per_probe in
  let ind_batch_ns = b13_time reps batched_probes in
  Printf.printf "  ind batch: per-probe %s, batched %s -> %.1fx\n"
    (pretty_time per_probe_ns) (pretty_time ind_batch_ns)
    (per_probe_ns /. ind_batch_ns);
  record "ind-batch/per-probe" per_probe_ns "ns";
  record "ind-batch/batched" ind_batch_ns "ns";
  record "ind-batch/speedup" (per_probe_ns /. ind_batch_ns) "x"

(* B14 workload: a denormalized order extension with every shape the
   scanner has to handle — quoted fields with embedded commas, quoted
   newlines, NULLs, CRLF terminators — generated by a fixed LCG so every
   run (and both loaders) sees byte-identical input. *)
let b14_rel =
  Relation.make "orders"
    ~domains:
      [
        ("id", Domain.Int); ("customer", Domain.Int);
        ("customer_name", Domain.String); ("product", Domain.Int);
        ("product_name", Domain.String); ("price", Domain.Float);
        ("note", Domain.String);
      ]
    ~uniques:[ [ "id" ] ]
    [
      "id"; "customer"; "customer_name"; "product"; "product_name"; "price";
      "note";
    ]

let b14_csv ?(dirty = false) rows =
  let buf = Buffer.create ((rows * 56) + 64) in
  Buffer.add_string buf
    "id,customer,customer_name,product,product_name,price,note\r\n";
  let state = ref 123456789 in
  let rand m =
    state := ((!state * 1103515245) + 12345) land 0x3FFFFFFF;
    !state mod m
  in
  for i = 0 to rows - 1 do
    let customer = rand 5000 and product = rand 300 in
    Buffer.add_string buf (string_of_int i);
    Buffer.add_char buf ',';
    Buffer.add_string buf (string_of_int customer);
    Buffer.add_string buf ",customer-";
    Buffer.add_string buf (string_of_int customer);
    Buffer.add_char buf ',';
    Buffer.add_string buf (string_of_int product);
    Buffer.add_string buf ",\"widget ";
    Buffer.add_string buf (string_of_int product);
    Buffer.add_string buf ", deluxe\",";
    if dirty && rand 97 = 0 then Buffer.add_string buf "not-a-price"
    else begin
      Buffer.add_string buf (string_of_int (rand 500));
      Buffer.add_char buf '.';
      Buffer.add_string buf (Printf.sprintf "%02d" (rand 100))
    end;
    Buffer.add_char buf ',';
    (match rand 16 with
    | 0 -> () (* empty field: loads as NULL *)
    | 1 -> Buffer.add_string buf "\"gift wrap\nfragile\""
    | _ -> Buffer.add_string buf "expedite");
    if dirty && rand 89 = 0 then Buffer.add_string buf ",extra";
    Buffer.add_string buf "\r\n"
  done;
  Buffer.contents buf

(* best-of-[reps] of [f] and of [g], timed in alternating reps *)
let b14_time_alternating reps f g =
  let best_f = ref infinity and best_g = ref infinity in
  let once best h =
    let t0 = Unix.gettimeofday () in
    ignore (Sys.opaque_identity (h ()));
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  in
  for _ = 1 to reps do
    once best_f f;
    once best_g g
  done;
  (!best_f *. 1e9, !best_g *. 1e9)

let b14 () =
  section "B14: streaming columnar ingest vs the seed loader";
  let rows = if !smoke then 2_000 else 1_000_000 in
  let reps = if !smoke then 2 else 5 in
  let csv = b14_csv rows in
  Printf.printf "  workload: %d rows, %.1f MB CSV\n%!" rows
    (float_of_int (String.length csv) /. 1e6);
  let streaming () =
    match Csv.load b14_rel csv with
    | Ok (t, _) -> t
    | Stdlib.Error e -> failwith (Error.to_string e)
  in
  (* the seed path to the same ready state: row-at-a-time parse into an
     eager tuple list, then one insert that encodes every column *)
  let legacy () =
    match Reference.Csv.load b14_rel csv with
    | Ok (t, _) -> t
    | Stdlib.Error e -> failwith (Error.to_string e)
  in
  (* [top_heap_words] is a process-monotone high-water mark, so the
     lean loader must run (and be read) before the eager one; for heap
     numbers untainted by earlier groups, run this group standalone
     (`main.exe --json --check b14`). *)
  ignore (Sys.opaque_identity (streaming ()));
  let s_top = (Gc.quick_stat ()).Gc.top_heap_words in
  ignore (Sys.opaque_identity (legacy ()));
  let l_top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* the two loaders alternate rep by rep, so host drift during the
     group moves both timings alike and cancels out of the ratio *)
  let s_ns, l_ns = b14_time_alternating reps streaming legacy in
  Printf.printf "  streaming load-to-ready-store: %s\n%!" (pretty_time s_ns);
  Printf.printf "  seed load-to-ready-store:      %s\n%!" (pretty_time l_ns);
  Printf.printf "  speedup: %.1fx (target: >= 3x)\n" (l_ns /. s_ns);
  Printf.printf
    "  peak heap: streaming %d words, seed %d words -> %.1fx (target: >= 2x)\n%!"
    s_top l_top
    (float_of_int l_top /. float_of_int s_top);
  record "load/streaming" s_ns "ns";
  record "load/legacy" l_ns "ns";
  record ?target:(full_target 3.0) "load/speedup" (l_ns /. s_ns) "x";
  record "heap/streaming" (float_of_int s_top) "words";
  record "heap/legacy" (float_of_int l_top) "words";
  record ?target:(full_target 2.0) "heap/reduction"
    (float_of_int l_top /. float_of_int s_top)
    "x";

  (* identity: on a dirty document (ill-typed cells, wrong-width rows),
     the strict error and the quarantine outcome (surviving extension +
     report) must match the seed loader byte for byte. The load has no
     parallel path, so one domain is the only count. *)
  let dirty = b14_csv ~dirty:true (if !smoke then 300 else 5_000) in
  let show = function
    | Ok (t, rep) ->
        "OK\n" ^ Csv.dump_table t ^ "\n"
        ^ (match rep with None -> "-" | Some r -> Quarantine.to_string r)
    | Stdlib.Error e -> "ERR " ^ Error.to_string e
  in
  let reference mode = show (Reference.Csv.load ~mode b14_rel dirty) in
  let ref_strict = reference `Strict and ref_q = reference `Quarantine in
  let got mode = show (Csv.load ~mode b14_rel dirty) in
  let ok = got `Strict = ref_strict && got `Quarantine = ref_q in
  Printf.printf
    "  strict + quarantine outputs identical to seed (domains=1): %s\n%!"
    (if ok then "OK" else "FAILED");
  record ~target:1.0 "identity/domains=1" (if ok then 1.0 else 0.0) "bool";

  (* pipeline artifacts: dump a generated database to CSV, reload it
     through each loader, run the full pipeline on both copies — F, H,
     IND and RIC must render identically. *)
  let g =
    Workload.Gen_schema.generate
      (Workload.Gen_schema.scale
         (if !smoke then 0.05 else 0.5)
         Workload.Gen_schema.default_spec)
  in
  let src = g.Workload.Gen_schema.db in
  let reload load_fn =
    let db = Database.create (Database.schema src) in
    List.iter
      (fun rel ->
        let text = Csv.dump_table (Database.table src rel.Relation.name) in
        match load_fn rel text with
        | Ok (t, _) -> Database.replace_table db t
        | Stdlib.Error e -> failwith (Error.to_string e))
      (Schema.relations (Database.schema src));
    db
  in
  let render db =
    let config =
      { Dbre.Pipeline.default_config with Dbre.Pipeline.migrate_data = false }
    in
    let r =
      run_pipeline ~config db
        (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
    in
    Format.asprintf "F=%a@.H=%a@.IND=%a@.RIC=%a@." Dbre.Report.pp_fds
      r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds Dbre.Report.pp_qattrs
      r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.hidden Dbre.Report.pp_inds
      r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds Dbre.Report.pp_inds
      r.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric
  in
  let via_streaming = render (reload (fun rel text -> Csv.load rel text)) in
  let via_reference = render (reload (fun rel text -> Reference.Csv.load rel text)) in
  let identical = via_streaming = via_reference in
  Printf.printf
    "  pipeline artifacts (F, H, IND, RIC) byte-identical across loaders: %s\n"
    (if identical then "OK" else "FAILED");
  record ~target:1.0 "artifacts/byte-identical"
    (if identical then 1.0 else 0.0)
    "bool"

(* ------------------------------------------------------------------ *)
(* B15: supervised execution runtime                                    *)
(* ------------------------------------------------------------------ *)

let b15_rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir
  end

let b15 () =
  section "B15: supervision overhead + deadline degradation and resume";
  let g = Workload.Gen_schema.generate (b13_spec ()) in
  let db = g.Workload.Gen_schema.db in
  let reps = if !smoke then 2 else 7 in

  (* overhead: the exact B13 FD-batch shape, bare vs threaded with an
     armed (never-tripping) deadline+heap token — the full cost of the
     sweep-granularity polls, including their Gc.quick_stat reads *)
  let f =
    List.hd g.Workload.Gen_schema.truth.Workload.Gen_schema.planted_fds
  in
  let table = Database.table db f.Deps.Fd.rel in
  let rel = Table.schema table in
  let lhs = f.Deps.Fd.lhs in
  let key = Relation.key_attrs rel in
  let rhs =
    List.filter
      (fun b -> (not (List.mem b lhs)) && not (List.mem b key))
      rel.Relation.attrs
  in
  (* encoded store, no memoized verdict: the B13 batched shape *)
  let encoded () = Column_store.drop_memos (Table.store table) in
  let bare () = Deps.Fd_infer.holds_all table ~lhs ~rhs in
  let supervised () =
    let supervise =
      Supervise.create ~deadline_s:3600.0 ~max_heap_words:(1 lsl 50) ()
    in
    Deps.Fd_infer.holds_all ~supervise table ~lhs ~rhs
  in
  encoded ();
  let v_bare = bare () in
  encoded ();
  Printf.printf "  verdicts agree bare vs supervised: %b\n"
    (v_bare = supervised ());
  let bare_ns = b13_time ~setup:encoded reps bare in
  let supervised_ns = b13_time ~setup:encoded reps supervised in
  let overhead_pct = ((supervised_ns /. bare_ns) -. 1.0) *. 100.0 in
  Printf.printf
    "  fd batch: bare %s, supervised %s -> %.2f%% overhead (target: < 3%%)\n"
    (pretty_time bare_ns) (pretty_time supervised_ns) overhead_pct;
  record "supervise/bare" bare_ns "ns";
  record "supervise/supervised" supervised_ns "ns";
  (* the --check gate: bare/supervised >= 0.97 <=> overhead <= ~3.1%;
     like the other timing floors it is enforced outside --smoke only
     (smoke timings are noise) *)
  record ?target:(full_target 0.97) "supervise/overhead-margin"
    (bare_ns /. supervised_ns) "x";

  (* graceful degradation + resume: trip a deterministic fuel budget
     mid-IND-discovery with checkpointing on, then resume unbudgeted
     from the partial artifacts on a fresh copy of the database — the
     finished F, H, IND and RIC must be byte-identical to a run that
     never carried a budget *)
  let spec = b13_artifact_spec () in
  let config =
    {
      Dbre.Pipeline.default_config with
      Dbre.Pipeline.migrate_data = false;
    }
  in
  let render (r : Dbre.Pipeline.result) =
    Format.asprintf "F=%a@.H=%a@.IND=%a@.RIC=%a@." Dbre.Report.pp_fds
      r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.fds Dbre.Report.pp_qattrs
      r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.hidden Dbre.Report.pp_inds
      r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.inds Dbre.Report.pp_inds
      r.Dbre.Pipeline.restruct_result.Dbre.Restruct.ric
  in
  let full =
    let g = Workload.Gen_schema.generate spec in
    render
      (run_pipeline ~config g.Workload.Gen_schema.db
         (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins))
  in
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbre-b15-%d" (Unix.getpid ()))
  in
  b15_rm_rf dir;
  let budgeted =
    let g = Workload.Gen_schema.generate spec in
    Dbre.Pipeline.run_checked ~config
      ~supervise:(Supervise.create ~fuel:10 ())
      ~checkpoint_dir:dir g.Workload.Gen_schema.db
      (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  let degraded =
    match budgeted with
    | Ok r ->
        r.Dbre.Pipeline.ind_result.Dbre.Ind_discovery.unverified <> []
        || r.Dbre.Pipeline.rhs_result.Dbre.Rhs_discovery.unverified <> []
    | Error _ -> false
  in
  Printf.printf "  fuel-tripped run degraded to a typed partial: %b\n"
    degraded;
  let resumed =
    let g = Workload.Gen_schema.generate spec in
    render
      (run_pipeline ~config ~checkpoint_dir:dir ~resume_from:dir
         g.Workload.Gen_schema.db
         (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins))
  in
  b15_rm_rf dir;
  let identical = resumed = full in
  Printf.printf
    "  artifacts (F, H, IND, RIC) byte-identical resumed vs unbudgeted: %s\n"
    (if identical then "OK" else "FAILED");
  record ~target:1.0 "resume/byte-identical" (if identical then 1.0 else 0.0)
    "bool";
  record ~target:1.0 "degrade/typed-partial" (if degraded then 1.0 else 0.0)
    "bool";

  (* informational: a short wall-clock deadline over the scaled workload
     exits cleanly (no exception) with whatever prefix fit the budget *)
  let t0 = Unix.gettimeofday () in
  let clean =
    match
      Dbre.Pipeline.run_checked ~config
        ~supervise:(Supervise.create ~deadline_s:0.05 ())
        db
        (Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
    with
    | Ok _ -> true
    | Error _ -> false
    | exception _ -> false
  in
  Printf.printf "  50ms-deadline run on the scaled DB: clean exit %b in %s\n"
    clean
    (pretty_time ((Unix.gettimeofday () -. t0) *. 1e9));
  record ~target:1.0 "deadline/clean-exit" (if clean then 1.0 else 0.0) "bool"

(* ------------------------------------------------------------------ *)
(* B16: serve mode - submit latency and concurrent throughput          *)
(* ------------------------------------------------------------------ *)

let b16_spec ~rows ~deps ~label =
  let emp = Buffer.create (rows * 16) in
  Buffer.add_string emp "eid,dep,dname\n";
  for i = 1 to rows do
    let d = i mod deps in
    Buffer.add_string emp (Printf.sprintf "%d,d%d,dept-%d\n" i d d)
  done;
  let dept = Buffer.create 256 in
  Buffer.add_string dept "dep,dname,loc\n";
  for d = 0 to deps - 1 do
    Buffer.add_string dept (Printf.sprintf "d%d,dept-%d,loc-%d\n" d d d)
  done;
  Dbre.Job_spec.make ~label
    ~sources:
      [
        ("Emp", Source.csv_inline (Buffer.contents emp));
        ("Dept", Source.csv_inline (Buffer.contents dept));
      ]
    ~ddl:
      "CREATE TABLE Emp (eid INT, dep VARCHAR(8), dname VARCHAR(16), PRIMARY \
       KEY (eid));\n\
       CREATE TABLE Dept (dep VARCHAR(8), dname VARCHAR(16), loc VARCHAR(8), \
       PRIMARY KEY (dep));"
    (Dbre.Job_spec.Sql_scripts
       [ "SELECT eid FROM Emp, Dept WHERE Emp.dep = Dept.dep" ])

let b16 () =
  section "B16: serve mode - submit latency and concurrent throughput";
  let rows = if !smoke then 80 else 20_000 in
  let socket =
    Printf.sprintf "/tmp/dbre-b16-%d.sock" (Unix.getpid ())
  in
  let server = Dbre_serve.Server.create ~max_jobs:2 ~socket () in
  Dbre_serve.Server.start server;
  Fun.protect ~finally:(fun () -> Dbre_serve.Server.stop server)
  @@ fun () ->
  (* submit -> first progress event: the wire + scheduling latency a
     client observes before the daemon demonstrably started its job *)
  let reps = if !smoke then 3 else 10 in
  let latencies =
    List.init reps (fun i ->
        let c = Dbre_serve.Client.connect socket in
        Fun.protect ~finally:(fun () -> Dbre_serve.Client.close c)
        @@ fun () ->
        let spec = b16_spec ~rows ~deps:8 ~label:(Printf.sprintf "lat%d" i) in
        let t0 = Unix.gettimeofday () in
        match Dbre_serve.Client.submit c spec with
        | Error (code, msg) -> failwith (code ^ ": " ^ msg)
        | Ok (id, _) -> (
            match Dbre_serve.Client.watch c id with
            | Error (code, msg) -> failwith (code ^ ": " ^ msg)
            | Ok _ ->
                let dt = (Unix.gettimeofday () -. t0) *. 1e9 in
                (* let the job finish so it does not overlap the next rep *)
                ignore (Dbre_serve.Client.wait c id);
                dt))
  in
  let mean = List.fold_left ( +. ) 0.0 latencies /. float_of_int reps in
  Printf.printf "  submit -> first progress event: mean %s over %d reps\n"
    (pretty_time mean) reps;
  record "latency/submit-to-first-event" mean "ns";

  (* K-concurrent throughput over 2 worker domains vs the same K jobs
     submitted one at a time, plus the byte-identity gate: every
     daemon-run job must match its local Job.run artifacts exactly. The
     two modes alternate for [mode_reps] rounds and the gate reads their
     medians: one shot of each swung the ratio by +-20% run to run *)
  let k = 4 in
  let specs =
    List.init k (fun i ->
        b16_spec ~rows ~deps:(6 + i) ~label:(Printf.sprintf "k%d" i))
  in
  let expected =
    List.map
      (fun s ->
        match Dbre.Job.run s with
        | Ok r -> Dbre.Report.artifacts r
        | Error _ -> [])
      specs
  in
  let submit_and_wait c s =
    match Dbre_serve.Client.submit c s with
    | Error (code, msg) -> failwith (code ^ ": " ^ msg)
    | Ok (id, _) -> (
        match Dbre_serve.Client.wait c id with
        | Ok (_, artifacts) -> artifacts
        | Error (code, msg) -> failwith (code ^ ": " ^ msg))
  in
  let on_connection s =
    let c = Dbre_serve.Client.connect socket in
    Fun.protect ~finally:(fun () -> Dbre_serve.Client.close c) @@ fun () ->
    submit_and_wait c s
  in
  let sequential () = List.map on_connection specs in
  let concurrent () =
    let results = Array.make k [] in
    let threads =
      List.mapi
        (fun i s -> Thread.create (fun () -> results.(i) <- on_connection s) ())
        specs
    in
    List.iter Thread.join threads;
    Array.to_list results
  in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (Unix.gettimeofday () -. t0, r)
  in
  let mode_reps = if !smoke then 2 else 5 in
  let rounds =
    List.init mode_reps (fun _ ->
        let seq_s, seq = timed sequential in
        let conc_s, conc = timed concurrent in
        (seq_s, conc_s, seq = expected && conc = expected))
  in
  let median xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0
  in
  let seq_s = median (List.map (fun (s, _, _) -> s) rounds) in
  let conc_s = median (List.map (fun (_, c, _) -> c) rounds) in
  let identical = List.for_all (fun (_, _, ok) -> ok) rounds in
  Printf.printf
    "  %d jobs, median of %d alternating rounds: sequential %s, concurrent \
     (2 workers) %s -> %.2fx on %d cores\n"
    k mode_reps
    (pretty_time (seq_s *. 1e9))
    (pretty_time (conc_s *. 1e9))
    (seq_s /. conc_s)
    (Stdlib.Domain.recommended_domain_count ());
  Printf.printf "  artifacts byte-identical (local = seq = concurrent): %s\n"
    (if identical then "OK" else "FAILED");
  record "throughput/sequential" (seq_s *. 1e9) "ns";
  record "throughput/concurrent" (conc_s *. 1e9) "ns";
  (* the daemon runs each of its 2 workers on its own domain, so on a
     multi-core host the K interleaved jobs overlap; on one core the
     workers only multiplex. The gate is therefore an overhead bound
     that holds on any core count, not a speedup floor: interleaving K
     jobs must not cost more than ~25% over running them back to back
     (enforced outside --smoke; tiny smoke jobs are all fixed cost) *)
  record ?target:(full_target 0.8) "throughput/multiplex-margin"
    (seq_s /. conc_s) "x";
  record ~target:1.0 "serve/byte-identical" (if identical then 1.0 else 0.0)
    "bool"

(* ------------------------------------------------------------------ *)
(* B17: dataflow evidence recovery - flow analysis vs per-statement     *)
(* ------------------------------------------------------------------ *)

let b17 () =
  section "B17: dataflow evidence recovery - flow analysis vs per-statement";
  let rows = if !smoke then 40 else 2_000 in
  let spec =
    {
      Workload.Gen_schema.default_spec with
      refs_per_denorm = 4;
      rows_per_entity = rows;
      rows_per_denorm = rows * 2;
      flow_navigation = true;
    }
  in
  let g = Workload.Gen_schema.generate spec in
  let programs = g.Workload.Gen_schema.programs in
  let input = Dbre.Job_spec.Programs programs in
  let run ~flow =
    let g = Workload.Gen_schema.generate spec in
    let t0 = Unix.gettimeofday () in
    let r =
      run_pipeline
        ~config:{ Dbre.Pipeline.default_config with workload_flow = flow }
        g.Workload.Gen_schema.db input
    in
    (r, Unix.gettimeofday () -. t0)
  in
  let off, _ = run ~flow:false in
  let on_, on_s = run ~flow:true in
  let n_off = List.length off.Dbre.Pipeline.equijoins in
  let n_on = List.length on_.Dbre.Pipeline.equijoins in
  let ratio = float_of_int n_on /. float_of_int (max 1 n_off) in
  Printf.printf
    "  equi-join evidence: per-statement %d, with dataflow %d -> %.2fx\n"
    n_off n_on ratio;
  record "evidence/per-statement" (float_of_int n_off) "joins";
  record "evidence/with-flow" (float_of_int n_on) "joins";
  (* count-based, so the floor holds in smoke mode too: the flow corpus
     plants half its navigation as host-variable chains *)
  record ~target:1.5 "evidence/recovery-ratio" ratio "x";
  let only_recovered =
    List.for_all
      (fun j ->
        (not (List.exists (Sqlx.Equijoin.equal j) off.Dbre.Pipeline.equijoins))
        && List.exists (Sqlx.Equijoin.equal j) on_.Dbre.Pipeline.equijoins)
      g.Workload.Gen_schema.dataflow_only_joins
  in
  Printf.printf
    "  %d zero-witness joins invisible per-statement, recovered by flow: %s\n"
    (List.length g.Workload.Gen_schema.dataflow_only_joins)
    (if only_recovered then "OK" else "FAILED");
  record ~target:1.0 "evidence/zero-witness-recovered"
    (if only_recovered then 1.0 else 0.0)
    "bool";
  (* the off switch is inert: a flow-off run must be byte-identical to a
     default-config run, artifact for artifact *)
  let default_run, _ =
    let g = Workload.Gen_schema.generate spec in
    let t0 = Unix.gettimeofday () in
    let r = run_pipeline g.Workload.Gen_schema.db input in
    (r, Unix.gettimeofday () -. t0)
  in
  let identical =
    Dbre.Report.artifacts default_run = Dbre.Report.artifacts off
  in
  Printf.printf "  artifacts byte-identical with flow disabled: %s\n"
    (if identical then "OK" else "FAILED");
  record ~target:1.0 "artifacts/flow-off-identical"
    (if identical then 1.0 else 0.0)
    "bool";
  (* what the analysis itself costs, as a share of the full pipeline *)
  let schema = Database.schema g.Workload.Gen_schema.db in
  let t0 = Unix.gettimeofday () in
  let flow_joins =
    List.concat_map (Sqlx.Dataflow.joins_of_program schema) programs
  in
  let df_s = Unix.gettimeofday () -. t0 in
  ignore flow_joins;
  Printf.printf "  dataflow pass %s = %.2f%% of the %s flow-on pipeline\n"
    (pretty_time (df_s *. 1e9))
    (100.0 *. df_s /. on_s)
    (pretty_time (on_s *. 1e9));
  record "time/dataflow-pass" (df_s *. 1e9) "ns";
  record "time/pipeline-share" (100.0 *. df_s /. on_s) "%"

(* ------------------------------------------------------------------ *)
(* B18: incremental re-verification - delta refresh vs full recompute   *)
(* ------------------------------------------------------------------ *)

let b18 () =
  section "B18: incremental re-verification - delta refresh vs full recompute";
  let spec =
    if !smoke then
      {
        Workload.Gen_schema.default_spec with
        rows_per_entity = 60;
        rows_per_denorm = 120;
      }
    else Workload.Gen_schema.scale 500. Workload.Gen_schema.default_spec
  in
  (* append 1% of each relation's extension (sampled existing rows, so
     planted dependencies keep holding and the short-circuit paths are
     the ones measured), as one transactional batch per relation *)
  let mutate db =
    List.iter
      (fun rel ->
        let t = Database.table db rel.Relation.name in
        let n = Table.cardinality t in
        let rows = Table.rows t in
        let k = max 1 (n / 100) in
        let batch = List.init k (fun i -> Tuple.to_list rows.(i * 97 mod n)) in
        Table.insert_many t batch)
      (Schema.relations (Database.schema db))
  in
  (* schema-only restructuring: data migration re-projects every
     restructured extension from the stores on every run (B6's number)
     and is not delta-maintained — with it on it would add a cost this
     group does not isolate *)
  let config = { Dbre.Pipeline.default_config with migrate_data = false } in
  let g = Workload.Gen_schema.generate spec in
  let input = Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins in
  let db = g.Workload.Gen_schema.db in
  let t0 = Unix.gettimeofday () in
  ignore (run_pipeline ~config db input);
  let warm_s = Unix.gettimeofday () -. t0 in
  mutate db;
  let t0 = Unix.gettimeofday () in
  let report, result = Dbre.Pipeline.refresh_checked ~config db input in
  let refresh_s = Unix.gettimeofday () -. t0 in
  let refreshed =
    match result with
    | Ok r -> Dbre.Report.artifacts r
    | Error p ->
        failwith (Error.to_string p.Dbre.Pipeline.p_error)
  in
  (* baseline: an identical database mutated the same way, every memo
     dropped, verified from scratch *)
  let h = Workload.Gen_schema.generate spec in
  let hdb = h.Workload.Gen_schema.db in
  mutate hdb;
  List.iter
    (fun rel -> Column_store.drop_memos (Table.store (Database.table hdb rel.Relation.name)))
    (Schema.relations (Database.schema hdb));
  let t0 = Unix.gettimeofday () in
  let full = run_pipeline ~config hdb input in
  let full_s = Unix.gettimeofday () -. t0 in
  let identical = Dbre.Report.artifacts full = refreshed in
  Printf.printf
    "  first run %s; after a 1%% append: refresh %s vs full recompute %s -> \
     %.1fx\n"
    (pretty_time (warm_s *. 1e9))
    (pretty_time (refresh_s *. 1e9))
    (pretty_time (full_s *. 1e9))
    (full_s /. refresh_s);
  Printf.printf "  delta pass: %s\n" (Dbre.Refresh.to_string report);
  Printf.printf "  artifacts byte-identical to the full recompute: %s\n"
    (if identical then "OK" else "FAILED");
  record "refresh/first-run" (warm_s *. 1e9) "ns";
  record "refresh/incremental" (refresh_s *. 1e9) "ns";
  record "refresh/full-recompute" (full_s *. 1e9) "ns";
  record "refresh/rows-absorbed"
    (float_of_int report.Dbre.Refresh.rows_applied)
    "rows";
  (* timing floor only outside --smoke: tiny smoke workloads are all
     fixed cost, the million-tuple run is where the delta pass pays *)
  record ?target:(full_target 10.0) "refresh/speedup" (full_s /. refresh_s)
    "x";
  record ~target:1.0 "artifacts/refresh-identical"
    (if identical then 1.0 else 0.0)
    "bool"

(* B19: the out-of-core column store. The full pipeline completes
   under a resident budget at least 10x smaller than the packed
   extension, producing artifacts byte-identical to the unconstrained
   run (both floors apply in --smoke, so @bench-smoke gates them on
   every `dune runtest`).

   Heap accounting: [Gc.top_heap_words] is process-monotone, so the
   budgeted (lean) run must execute first — the unconstrained run read
   afterwards then upper-bounds both. *)
let b19 () =
  section "B19: out-of-core column store - spill, mmap";
  let spec =
    if !smoke then
      {
        Workload.Gen_schema.default_spec with
        rows_per_entity = 60;
        rows_per_denorm = 120;
      }
    else Workload.Gen_schema.scale 200. Workload.Gen_schema.default_spec
  in
  let seg_rows = if !smoke then 16 else Ooc.default_segment_rows in
  let budget_words = if !smoke then 16 else 100_000 in
  let spill_dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "dbre-b19-%d" (Unix.getpid ()))
  in
  (* schema-only restructuring, as in B18: data migration would add
     the restructured relations' own stores to the residency numbers
     this group isolates *)
  let config = { Dbre.Pipeline.default_config with migrate_data = false } in
  let artifacts () =
    let g = Workload.Gen_schema.generate spec in
    let input = Dbre.Job_spec.Equijoins g.Workload.Gen_schema.equijoins in
    Dbre.Report.artifacts
      (run_pipeline ~config g.Workload.Gen_schema.db input)
  in
  (* budgeted run first (see heap note above) *)
  Ooc.reset_stats ();
  let t0 = Unix.gettimeofday () in
  let spilled_arts =
    Ooc.with_config ~spill_dir ~resident_budget_words:budget_words
      ~segment_rows:seg_rows artifacts
  in
  let spilled_s = Unix.gettimeofday () -. t0 in
  let spilled_top = (Gc.quick_stat ()).Gc.top_heap_words in
  let st = Ooc.stats () in
  (* let the budgeted run's stores die so their residency entries drain
     before the unconstrained run is measured *)
  Gc.full_major ();
  Gc.full_major ();
  Ooc.reset_stats ();
  let t0 = Unix.gettimeofday () in
  let ram_arts = Ooc.with_config ~segment_rows:seg_rows artifacts in
  let ram_s = Unix.gettimeofday () -. t0 in
  let ram_top = (Gc.quick_stat ()).Gc.top_heap_words in
  (* with no budget nothing evicts: resident words = the packed extension *)
  let ram_words = (Ooc.stats ()).Ooc.resident_words in
  let ratio = float_of_int ram_words /. float_of_int budget_words in
  let identical = spilled_arts = ram_arts in
  Printf.printf
    "  packed extension %d words, resident budget %d words -> %.1fx \
     (target: >= 10x)\n"
    ram_words budget_words ratio;
  Printf.printf
    "  budgeted run %s (%d spills, %d maps, %d evictions), unconstrained \
     %s\n"
    (pretty_time (spilled_s *. 1e9))
    st.Ooc.spill_writes st.Ooc.map_loads st.Ooc.evictions
    (pretty_time (ram_s *. 1e9));
  Printf.printf
    "  peak heap: budgeted %d words, after unconstrained %d words\n"
    spilled_top ram_top;
  Printf.printf "  artifacts byte-identical across the budget: %s\n"
    (if identical then "OK" else "FAILED");
  record ~target:10.0 "ooc/extension-budget-ratio" ratio "x";
  record ~target:1.0 "ooc/spill-engaged"
    (if st.Ooc.spill_writes > 0 then 1.0 else 0.0)
    "bool";
  record ~target:1.0 "artifacts/ooc-identical"
    (if identical then 1.0 else 0.0)
    "bool";
  record "ooc/spill-writes" (float_of_int st.Ooc.spill_writes) "segments";
  record "ooc/map-loads" (float_of_int st.Ooc.map_loads) "segments";
  record "ooc/evictions" (float_of_int st.Ooc.evictions) "segments";
  record "ooc/peak-heap-budgeted" (float_of_int spilled_top) "words";
  record "ooc/peak-heap-unconstrained" (float_of_int ram_top) "words";
  record "ooc/pipeline-budgeted" (spilled_s *. 1e9) "ns";
  record "ooc/pipeline-unconstrained" (ram_s *. 1e9) "ns";
  (* best-effort spill-dir cleanup *)
  (try
     Array.iter
       (fun f -> try Sys.remove (Filename.concat spill_dir f) with _ -> ())
       (Sys.readdir spill_dir);
     Unix.rmdir spill_dir
   with _ -> ())

let all_benches =
  [
    ("b3", b3); ("b13", b13); ("b14", b14); ("b15", b15); ("b16", b16);
    ("b17", b17); ("b18", b18); ("b19", b19);
  ]

let () =
  let args = Array.to_list Sys.argv in
  if List.mem "--smoke" args then smoke := true;
  if List.mem "--json" args then json_out := true;
  if List.mem "--check" args then check_out := true;
  let experiments_only = List.mem "--experiments" args in
  let bench_only = List.mem "--bench" args in
  (* bare group names (e.g. `main.exe b13`) select specific B-groups *)
  let selected =
    List.filter (fun (name, _) -> List.mem name args) all_benches
  in
  (match selected with
  | _ :: _ -> List.iter (fun (_, f) -> f ()) selected
  | [] ->
      if not bench_only then run_experiments ();
      if not experiments_only then
        List.iter (fun (_, f) -> f ()) all_benches);
  if !json_out then write_json_files ();
  if !check_out && not (check_targets ()) then exit 1
