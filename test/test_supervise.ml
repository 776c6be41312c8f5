(* The supervised execution runtime: token semantics and budget-tripped
   pipeline runs that degrade to typed partial results, checkpoint, and
   resume to artifacts identical to an unbudgeted run. The fuel trip is
   deterministic and — by the Supervise contract — lands on a group
   boundary, which the randomized prefix suite asserts. *)

open Dbre
module Engine = Relational.Engine
module Error = Relational.Error
module Supervise = Relational.Supervise
module Json = Relational.Json

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  rm_rf name;
  name

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let is_prefix short long =
  let rec go = function
    | [], _ -> true
    | _, [] -> false
    | x :: xs, y :: ys -> x = y && go (xs, ys)
  in
  go (short, long)

let generate () = Workload.Gen_schema.generate Workload.Gen_schema.default_spec

(* --- token semantics --- *)

let test_token_fuel () =
  let t = Supervise.create ~fuel:2 () in
  Alcotest.(check bool) "first poll passes" true (Supervise.poll t = None);
  Alcotest.(check bool) "second poll trips" true
    (Supervise.poll t = Some Supervise.Cancelled);
  Alcotest.(check bool) "latched for pool readers" true
    (Supervise.tripped t = Some Supervise.Cancelled);
  Alcotest.(check bool) "latched on later polls" true
    (Supervise.poll t = Some Supervise.Cancelled);
  let t0 = Supervise.create ~fuel:0 () in
  Alcotest.(check bool) "fuel 0 trips the first poll" true
    (Supervise.poll t0 = Some Supervise.Cancelled)

let test_token_limits () =
  let d = Supervise.create ~deadline_s:0.0 () in
  Unix.sleepf 0.002;
  (match Supervise.poll d with
  | Some (Supervise.Deadline { limit_s; elapsed_s }) ->
      Alcotest.(check bool) "deadline fields" true
        (limit_s = 0.0 && elapsed_s > 0.0)
  | _ -> Alcotest.fail "expected a deadline trip");
  let h = Supervise.create ~max_heap_words:1 () in
  (match Supervise.poll h with
  | Some (Supervise.Heap { limit_words; live_words }) ->
      Alcotest.(check bool) "heap fields" true
        (limit_words = 1 && live_words > 1)
  | _ -> Alcotest.fail "expected a heap trip");
  (match Supervise.check h with
  | () -> Alcotest.fail "check must raise on a tripped token"
  | exception Supervise.Interrupt (Supervise.Heap _) -> ());
  let e = Supervise.error_of ~stage:Error.Ind_discovery Supervise.Cancelled in
  Alcotest.(check bool) "error_of code" true
    (e.Error.code = Error.Resource_exhausted
    && e.Error.stage = Some Error.Ind_discovery)

let test_token_unlimited () =
  Alcotest.(check bool) "unlimited is inactive" false
    (Supervise.active Supervise.unlimited);
  Supervise.cancel Supervise.unlimited;
  Alcotest.(check bool) "unlimited cannot trip" true
    (Supervise.poll Supervise.unlimited = None);
  (* a fresh token with no limits is still cancellable *)
  let t = Supervise.create () in
  Alcotest.(check bool) "limitless token is active" true (Supervise.active t);
  Supervise.cancel t;
  Alcotest.(check bool) "cancel latches" true
    (Supervise.tripped t = Some Supervise.Cancelled)

(* --- ingest budget --- *)

let test_csv_budget () =
  let rel =
    Relational.Relation.make "t" [ "a"; "b" ]
      ~domains:[ ("a", Relational.Domain.Int); ("b", Relational.Domain.Int) ]
  in
  let s = Supervise.create ~fuel:0 () in
  match Relational.Csv.load ~supervise:s rel "a,b\n1,2\n" with
  | Ok _ -> Alcotest.fail "expected a budget error"
  | Error e ->
      Alcotest.(check bool) "typed Resource_exhausted, no exception" true
        (e.Error.code = Error.Resource_exhausted)

(* --- randomized cancellation: deterministic prefix --- *)

let run_with_fuel ~fuel =
  let g = generate () in
  match
    Pipeline.run_checked
      ~supervise:(Supervise.create ~fuel ())
      g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  with
  | Ok r -> r
  | Error p ->
      Alcotest.failf "budgeted run failed: %s"
        (Error.to_string p.Pipeline.p_error)

let test_cancellation_prefix () =
  let full =
    let g = generate () in
    Pipeline.run g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  let rng = Workload.Rng.create 0x5eedL in
  let fuels = List.init 3 (fun _ -> 1 + Workload.Rng.int rng 30) in
  List.iter
    (fun fuel ->
      let base = run_with_fuel ~fuel in
      let bi = base.Pipeline.ind_result in
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d: IND steps are a prefix of the full run" fuel)
        true
        (is_prefix bi.Ind_discovery.steps
           full.Pipeline.ind_result.Ind_discovery.steps);
      Alcotest.(check bool)
        (Printf.sprintf "fuel %d: elicited INDs are a prefix" fuel)
        true
        (is_prefix bi.Ind_discovery.inds
           full.Pipeline.ind_result.Ind_discovery.inds);
      (* partial + unverified tail = exactly the input [Q] *)
      (match bi.Ind_discovery.exhausted with
      | Some _ ->
          Alcotest.(check int)
            (Printf.sprintf "fuel %d: no equi-join lost" fuel)
            (List.length full.Pipeline.equijoins)
            (List.length bi.Ind_discovery.steps
            + List.length bi.Ind_discovery.unverified)
      | None ->
          Alcotest.(check bool)
            (Printf.sprintf "fuel %d: complete IND has no unverified" fuel)
            true
            (bi.Ind_discovery.unverified = [])))
    fuels

(* --- graceful degradation end to end --- *)

let test_partial_annotated () =
  (* cancel mid-elicitation: the run must still complete, with the
     partial stages annotated in the report and flagged by lint L206 *)
  let s = Workload.Scenarios.hospital in
  let supervise = Supervise.create () in
  let oracle =
    Workload.Faults.cancelling_oracle ~after:2 supervise
      (s.Workload.Scenarios.oracle ())
  in
  let config = { Pipeline.default_config with Pipeline.oracle = oracle } in
  match
    Pipeline.run_checked ~config ~supervise
      (s.Workload.Scenarios.database ())
      (Job_spec.Programs s.Workload.Scenarios.programs)
  with
  | Error p ->
      Alcotest.failf "partial-policy run failed: %s"
        (Error.to_string p.Pipeline.p_error)
  | Ok r ->
      let degraded =
        r.Pipeline.ind_result.Ind_discovery.unverified <> []
        || r.Pipeline.rhs_result.Rhs_discovery.unverified <> []
      in
      Alcotest.(check bool) "run degraded to a typed partial" true degraded;
      let md = Report.markdown r in
      Alcotest.(check bool) "report annotates the partial stage" true
        (contains ~sub:"Partial result" md);
      let diags = (Dbre_lint.Lint.verify r).Dbre_lint.Lint.diags in
      Alcotest.(check bool) "lint L206 names the degradation" true
        (List.exists
           (fun d -> d.Dbre_lint.Diagnostic.code = "L206")
           diags)

let test_fail_policy () =
  let g = generate () in
  let config =
    {
      Pipeline.default_config with
      Pipeline.engine = Engine.make ~on_exhausted:`Fail ();
    }
  in
  match
    Pipeline.run_checked ~config
      ~supervise:(Supervise.create ~fuel:1 ())
      g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  with
  | Ok _ -> Alcotest.fail "`Fail policy must turn a trip into a stage error"
  | Error p ->
      Alcotest.(check bool) "typed Resource_exhausted failure" true
        (p.Pipeline.p_error.Error.code = Error.Resource_exhausted)

(* --- budget-partial checkpoints resume to identical artifacts --- *)

let test_partial_resume_identity () =
  let dir = fresh_dir "_supervise_resume" in
  let full =
    let g = generate () in
    Pipeline.run g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  let partial =
    let g = generate () in
    match
      Pipeline.run_checked
        ~supervise:(Supervise.create ~fuel:12 ())
        ~checkpoint_dir:dir g.Workload.Gen_schema.db
        (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
    with
    | Ok r -> r
    | Error p ->
        Alcotest.failf "budgeted run failed: %s"
          (Error.to_string p.Pipeline.p_error)
  in
  Alcotest.(check bool) "budgeted run left unverified work" true
    (partial.Pipeline.ind_result.Ind_discovery.unverified <> []
    || partial.Pipeline.rhs_result.Rhs_discovery.unverified <> []);
  let resumed =
    let g = generate () in
    Pipeline.run ~resume_from:dir g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "resumed run is complete" true
    (resumed.Pipeline.ind_result.Ind_discovery.unverified = []
    && resumed.Pipeline.ind_result.Ind_discovery.exhausted = None
    && resumed.Pipeline.rhs_result.Rhs_discovery.unverified = []
    && resumed.Pipeline.rhs_result.Rhs_discovery.exhausted = None);
  Alcotest.(check bool) "same IND artifact as the unbudgeted run" true
    (resumed.Pipeline.ind_result.Ind_discovery.inds
     = full.Pipeline.ind_result.Ind_discovery.inds
    && resumed.Pipeline.ind_result.Ind_discovery.steps
       = full.Pipeline.ind_result.Ind_discovery.steps);
  Alcotest.(check bool) "same FD artifact as the unbudgeted run" true
    (resumed.Pipeline.rhs_result.Rhs_discovery.fds
     = full.Pipeline.rhs_result.Rhs_discovery.fds
    && resumed.Pipeline.rhs_result.Rhs_discovery.steps
       = full.Pipeline.rhs_result.Rhs_discovery.steps);
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string full.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string resumed.Pipeline.translate_result.Translate.eer);
  Alcotest.(check bool) "same normal forms" true
    (Pipeline.nf_report full = Pipeline.nf_report resumed);
  rm_rf dir

(* --- checkpoint content checksum --- *)

let test_checksum_tamper () =
  let dir = fresh_dir "_supervise_checksum" in
  let baseline =
    let g = generate () in
    Pipeline.run ~checkpoint_dir:dir g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "baseline elicited FDs" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds <> []);
  let inputs =
    let g = generate () in
    Checkpoint.inputs g.Workload.Gen_schema.db g.Workload.Gen_schema.equijoins
      ~migrate_data:true
  in
  Alcotest.(check bool) "intact artifact loads" true
    (Checkpoint.load_rhs ~dir ~inputs <> None);
  (* drop one elicited FD from the payload but keep the stored checksum:
     the file still parses, so only the content checksum can reject it *)
  let p = Checkpoint.path ~dir Checkpoint.Rhs in
  let doc = In_channel.with_open_bin p In_channel.input_all in
  let mangled =
    match Json.of_string doc with
    | Json.Obj [ ver; stage; bound; sum; ("payload", Json.Obj fields) ] ->
        let fields =
          List.map
            (function
              | "fds", Json.List (_ :: rest) -> ("fds", Json.List rest)
              | f -> f)
            fields
        in
        Json.Obj [ ver; stage; bound; sum; ("payload", Json.Obj fields) ]
    | _ -> Alcotest.fail "unexpected checkpoint layout"
  in
  Out_channel.with_open_bin p (fun oc ->
      Out_channel.output_string oc (Json.to_string mangled));
  Alcotest.(check bool) "tampered payload rejected by checksum" true
    (Checkpoint.load_rhs ~dir ~inputs = None);
  (* resume silently recomputes the stage and matches the baseline *)
  let resumed =
    let g = generate () in
    Pipeline.run ~resume_from:dir g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "recomputed FDs match" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string
       baseline.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string resumed.Pipeline.translate_result.Translate.eer);
  rm_rf dir

let suite =
  [
    Alcotest.test_case "token: fuel" `Quick test_token_fuel;
    Alcotest.test_case "token: deadline and heap" `Quick test_token_limits;
    Alcotest.test_case "token: unlimited vs cancellable" `Quick
      test_token_unlimited;
    Alcotest.test_case "ingest: tripped token is a typed error" `Quick
      test_csv_budget;
    Alcotest.test_case "cancellation prefix" `Quick
      test_cancellation_prefix;
    Alcotest.test_case "partial run annotated in report and lint" `Quick
      test_partial_annotated;
    Alcotest.test_case "`Fail policy raises Resource_exhausted" `Quick
      test_fail_policy;
    Alcotest.test_case "budget-partial resume reproduces the full run" `Quick
      test_partial_resume_identity;
    Alcotest.test_case "tampered checkpoint rejected by checksum" `Quick
      test_checksum_tamper;
  ]
