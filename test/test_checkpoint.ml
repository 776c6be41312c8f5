(* Checkpoint/resume: a run with [~checkpoint_dir] leaves one artifact
   per stage; resuming from those artifacts reproduces the
   uncheckpointed result without consulting the expert again; corrupt
   checkpoints, and those of a run over other inputs, are silently
   recomputed. Loading is total — damaged bytes give [None], never an
   exception — and values round-trip exactly. *)

open Dbre
module Json = Relational.Json
module Value = Relational.Value
module Table = Relational.Table
module Database = Relational.Database

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

let run_scenario ?checkpoint_dir ?resume_from (s : Workload.Scenarios.t) =
  let config =
    {
      Pipeline.default_config with
      Pipeline.oracle = Oracle.of_mode s.Workload.Scenarios.oracle;
    }
  in
  Helpers.run_ok ~config ?checkpoint_dir ?resume_from
    (s.Workload.Scenarios.database ())
    (Job_spec.Programs s.Workload.Scenarios.programs)

let run_hospital ?checkpoint_dir ?resume_from () =
  run_scenario ?checkpoint_dir ?resume_from Workload.Scenarios.hospital

(* the inputs digest a run of the scenario binds its checkpoints to *)
let scenario_inputs (s : Workload.Scenarios.t) =
  let db = s.Workload.Scenarios.database () in
  Checkpoint.inputs db
    (match
       Pipeline.extract_equijoins db
         (Job_spec.Programs s.Workload.Scenarios.programs)
     with
    | Ok (q, _) -> q
    | Error e -> Alcotest.fail (Relational.Error.to_string e))
    ~migrate_data:true ~oracle:s.Workload.Scenarios.oracle

let hospital_inputs = lazy (scenario_inputs Workload.Scenarios.hospital)

let all_stages =
  [
    Checkpoint.Ind; Checkpoint.Lhs; Checkpoint.Rhs; Checkpoint.Restruct;
    Checkpoint.Translate;
  ]

let test_checkpoint_files () =
  let dir = fresh_dir "_ckpt_files" in
  ignore (run_hospital ~checkpoint_dir:dir ());
  List.iter
    (fun stage ->
      let p = Checkpoint.path ~dir stage in
      Alcotest.(check bool) (p ^ " written") true (Sys.file_exists p))
    all_stages;
  Alcotest.(check bool) "translate marker valid" true
    (Checkpoint.translate_done ~dir ~inputs:(Lazy.force hospital_inputs));
  rm_rf dir

let test_resume_roundtrip () =
  let dir = fresh_dir "_ckpt_resume" in
  let baseline = run_hospital () in
  ignore (run_hospital ~checkpoint_dir:dir ());
  (* lose the last checkpoint: Translate must be recomputed from the
     restored Restruct artifact *)
  Sys.remove (Checkpoint.path ~dir Checkpoint.Translate);
  let resumed = run_hospital ~resume_from:dir () in
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string
       baseline.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string
       resumed.Pipeline.translate_result.Translate.eer);
  Alcotest.(check bool) "same normal forms" true
    (Pipeline.nf_report baseline = Pipeline.nf_report resumed);
  Alcotest.(check bool) "same elicited FDs" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  (* every stage came off disk: the expert was never consulted *)
  Alcotest.(check int) "no oracle events on resume" 0
    (List.length resumed.Pipeline.events);
  rm_rf dir

let test_corrupt_checkpoint_recomputed () =
  let dir = fresh_dir "_ckpt_corrupt" in
  let generate () =
    Workload.Gen_schema.generate Workload.Gen_schema.default_spec
  in
  let g = generate () in
  let baseline =
    Helpers.run_ok ~checkpoint_dir:dir g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  (* mangle the RHS-Discovery artifact: resume must recompute it *)
  Out_channel.with_open_bin (Checkpoint.path ~dir Checkpoint.Rhs) (fun oc ->
      Out_channel.output_string oc "((( not a checkpoint");
  let g2 = generate () in
  let resumed =
    Helpers.run_ok ~resume_from:dir g2.Workload.Gen_schema.db
      (Job_spec.Equijoins g2.Workload.Gen_schema.equijoins)
  in
  Alcotest.(check bool) "same INDs" true
    (baseline.Pipeline.ind_result.Ind_discovery.inds
    = resumed.Pipeline.ind_result.Ind_discovery.inds);
  Alcotest.(check bool) "same FDs after recompute" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  Alcotest.(check string) "same EER schema"
    (Er.Text_render.to_string
       baseline.Pipeline.translate_result.Translate.eer)
    (Er.Text_render.to_string resumed.Pipeline.translate_result.Translate.eer);
  rm_rf dir

(* checkpoints of seed 7's run restore nothing into a run over seed 8's
   extension and equi-joins, which ends as a fresh seed-8 run does *)
let test_other_inputs_recomputed () =
  let dir = fresh_dir "_ckpt_other_inputs" in
  let run ?checkpoint_dir ?resume_from ?progress seed =
    let g =
      Workload.Gen_schema.generate
        { Workload.Gen_schema.default_spec with Workload.Gen_schema.seed }
    in
    Helpers.run_ok
      ~config:{ Pipeline.default_config with Pipeline.progress }
      ?checkpoint_dir ?resume_from g.Workload.Gen_schema.db
      (Job_spec.Equijoins g.Workload.Gen_schema.equijoins)
  in
  let restored = ref 0 in
  let count = function Pipeline.Stage_restored _ -> incr restored | _ -> () in
  ignore (run ~checkpoint_dir:dir 7L);
  ignore (run ~resume_from:dir ~progress:count 7L);
  Alcotest.(check int) "the same inputs restore four stages" 4 !restored;
  restored := 0;
  let resumed = run ~resume_from:dir ~progress:count 8L in
  Alcotest.(check int) "other inputs restore no stage" 0 !restored;
  Alcotest.(check (list (pair string string)))
    "artifacts of a fresh run"
    (Report.artifacts (run 8L))
    (Report.artifacts resumed);
  rm_rf dir

(* the expert is part of a run's inputs: checkpoints written under
   [Auto] restore every stage into an [Auto] resume and none into a
   [Skeptical] one, which ends as a fresh [Skeptical] run does *)
let test_resume_binds_the_expert () =
  let dir = fresh_dir "_ckpt_expert" in
  let run ?checkpoint_dir ?(resume = false) oracle =
    let restored = ref 0 in
    let progress = function
      | Job.Stage (Pipeline.Stage_restored _) -> incr restored
      | _ -> ()
    in
    let spec = Workload.Scenarios.spec Workload.Scenarios.paper in
    let r =
      Helpers.ok
        (Job.run ~progress { spec with oracle; checkpoint_dir; resume })
    in
    (Report.artifacts r, !restored)
  in
  let auto, _ = run ~checkpoint_dir:dir Auto in
  let _, restored = run ~checkpoint_dir:dir ~resume:true Auto in
  Alcotest.(check int) "an Auto resume restores four stages" 4 restored;
  let fresh, _ = run Skeptical in
  Alcotest.(check bool) "the experts disagree" true (fresh <> auto);
  let resumed, restored = run ~checkpoint_dir:dir ~resume:true Skeptical in
  Alcotest.(check int) "a Skeptical resume restores no stage" 0 restored;
  Alcotest.(check (list (pair string string)))
    "artifacts of a fresh Skeptical run" fresh resumed;
  rm_rf dir

let test_missing_dir_is_fresh_run () =
  (* resuming from a directory that does not exist just recomputes *)
  let baseline = run_hospital () in
  let resumed = run_hospital ~resume_from:"_ckpt_never_written" () in
  Alcotest.(check bool) "same FDs" true
    (baseline.Pipeline.rhs_result.Rhs_discovery.fds
    = resumed.Pipeline.rhs_result.Rhs_discovery.fds);
  Alcotest.(check bool) "expert consulted as usual" true
    (List.length resumed.Pipeline.events > 0)

(* --- decode before apply --- *)

(* the checksum a checkpoint stores: FNV-1a 64 over the compact
   rendering of its payload *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

let read path = In_channel.with_open_bin path In_channel.input_all

let write path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let snapshot db =
  List.map
    (fun rel ->
      let name = rel.Relational.Relation.name in
      (rel, Table.to_lists (Database.table db name)))
    (Relational.Schema.relations (Database.schema db))

let test_load_ind_decodes_before_applying () =
  let dir = fresh_dir "_ckpt_ind_order" in
  (* the paper's scenario conceptualizes Ass-Dept *)
  let paper = Workload.Scenarios.paper in
  let full = run_scenario ~checkpoint_dir:dir paper in
  Alcotest.(check bool) "the IND artifact conceptualizes a relation" true
    (full.Pipeline.ind_result.Ind_discovery.new_relations <> []);
  (* a valid, checksummed document whose [unverified] entry is not an
     equi-join: the relations decode, the later field does not *)
  let p = Checkpoint.path ~dir Checkpoint.Ind in
  (match Json.of_string (read p) with
  | Json.Obj [ ver; stage; bound; _; ("payload", Json.Obj fields) ] ->
      let payload =
        Json.Obj
          (List.map
             (function
               | "unverified", _ -> ("unverified", Json.List [ Json.Int 42 ])
               | f -> f)
             fields)
      in
      write p
        (Json.to_string
           (Json.Obj
              [
                ver;
                stage;
                bound;
                ("checksum", Json.String (fnv1a64 (Json.to_string payload)));
                ("payload", payload);
              ]))
  | _ -> Alcotest.fail "unexpected checkpoint layout");
  let db = paper.Workload.Scenarios.database () in
  let before = snapshot db in
  Alcotest.(check bool) "bad unverified entry loads as None" true
    (Checkpoint.load_ind ~dir ~inputs:(scenario_inputs paper) db = None);
  Alcotest.(check bool) "schema and tables untouched" true
    (snapshot db = before);
  rm_rf dir

(* --- totality --- *)

let loads_without_raising ~dir =
  let db = Workload.Scenarios.hospital.Workload.Scenarios.database () in
  let inputs = Lazy.force hospital_inputs in
  match
    ignore (Checkpoint.load_ind ~dir ~inputs db);
    ignore (Checkpoint.load_lhs ~dir ~inputs);
    ignore (Checkpoint.load_rhs ~dir ~inputs);
    ignore (Checkpoint.load_restruct ~dir ~inputs);
    ignore (Checkpoint.translate_done ~dir ~inputs)
  with
  | () -> true
  | exception e ->
      QCheck.Test.fail_reportf "a load raised %s" (Printexc.to_string e)

(* the five real checkpoint files of the hospital run, in stage order *)
let hospital_files =
  lazy
    (let dir = fresh_dir "_ckpt_hospital_files" in
     ignore (run_hospital ~checkpoint_dir:dir ());
     let files =
       List.map (fun st -> read (Checkpoint.path ~dir st)) all_stages
     in
     rm_rf dir;
     Array.of_list files)

(* damage one real file — flip a byte, truncate, or splice two files at
   arbitrary cut points — and put it at one stage's path *)
let gen_damaged_file st =
  let files = Lazy.force hospital_files in
  QCheck.Gen.(
    let* i = int_bound 4 and* j = int_bound 4 and* target = int_bound 4 in
    let a = files.(i) and b = files.(j) in
    let* at = int_bound (String.length a)
    and* bt = int_bound (String.length b) in
    let* byte = map Char.chr (int_bound 255) in
    let* text =
      oneofl
        [
          (if at < String.length a then
             String.mapi (fun k c -> if k = at then byte else c) a
           else a);
          String.sub a 0 at;
          String.sub a 0 at ^ String.sub b bt (String.length b - bt);
        ]
    in
    return (target, text))
    st

let prop_damaged_files_load_totally =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"damaged checkpoint files load as Some or None"
       (QCheck.make
          ~print:(fun (target, text) ->
            Printf.sprintf "stage %d, %d bytes" (target + 1)
              (String.length text))
          gen_damaged_file)
       (fun (target, text) ->
         let dir = fresh_dir "_ckpt_damaged" in
         Checkpoint.ensure_dir dir;
         write (Checkpoint.path ~dir (List.nth all_stages target)) text;
         let ok = loads_without_raising ~dir in
         rm_rf dir;
         ok))

let test_deep_nesting_refused () =
  let dir = fresh_dir "_ckpt_nested" in
  Checkpoint.ensure_dir dir;
  let nest = String.make (3 * 1024 * 1024) '[' in
  List.iter (fun st -> write (Checkpoint.path ~dir st) nest) all_stages;
  let db = Workload.Scenarios.hospital.Workload.Scenarios.database () in
  let inputs = Lazy.force hospital_inputs in
  Alcotest.(check bool) "ind" true (Checkpoint.load_ind ~dir ~inputs db = None);
  Alcotest.(check bool) "lhs" true (Checkpoint.load_lhs ~dir ~inputs = None);
  Alcotest.(check bool) "rhs" true (Checkpoint.load_rhs ~dir ~inputs = None);
  Alcotest.(check bool) "restruct" true
    (Checkpoint.load_restruct ~dir ~inputs = None);
  Alcotest.(check bool) "translate" false
    (Checkpoint.translate_done ~dir ~inputs);
  rm_rf dir

(* --- exact value round-trip --- *)

(* bitwise on floats (so -0.0 <> 0.0), any NaN matching any NaN *)
let same_value a b =
  match (a, b) with
  | Value.Float x, Value.Float y ->
      Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      || (Float.is_nan x && Float.is_nan y)
  | _ -> a = b

let same_rows a b =
  List.length a = List.length b
  && List.for_all2
       (fun r s ->
         List.length r = List.length s && List.for_all2 same_value r s)
       a b

(* one table through a Restruct checkpoint and back: its rows as
   written and as loaded *)
let roundtrip rows =
  let arity = match rows with r :: _ -> List.length r | [] -> 1 in
  let rel =
    Relational.Relation.make "T" (List.init arity (Printf.sprintf "c%d"))
  in
  let t = Table.create rel in
  List.iter (Table.insert t) rows;
  let db = Database.create (Relational.Schema.of_relations [ rel ]) in
  Database.replace_table db t;
  let dir = fresh_dir "_ckpt_values" in
  Checkpoint.write_restruct ~dir ~inputs:""
    {
      Restruct.schema = Database.schema db;
      inds = [];
      ric = [];
      renamings = [];
      database = Some db;
    };
  let loaded = Checkpoint.load_restruct ~dir ~inputs:"" in
  rm_rf dir;
  match loaded with
  | Some { Restruct.database = Some db'; _ } ->
      (Table.to_lists t, Table.to_lists (Database.table db' "T"))
  | _ -> Alcotest.fail "restruct checkpoint did not load"

let tricky_strings =
  [ ""; "\""; "\\"; "a\nb"; "\r\t"; "\000"; "{\"float\":\"0x1p+0\"}";
    "caf\xc3\xa9"; "\xe2\x82\xac"; "\xff\xfe"; "null"; "1.5"; "2020-01-02" ]

let test_special_values_roundtrip () =
  (* each special value alone in its column, so the store cannot merge
     -0.0 with 0.0 or an Int with an equal Float *)
  let row =
    [ Value.Float Float.nan; Value.Float Float.infinity;
      Value.Float Float.neg_infinity; Value.Float (-0.0);
      Value.Float 0.1; Value.Float Float.max_float;
      Value.Float Float.min_float; Value.Float 4.9e-324;
      Value.date 1999 12 31; Value.Int max_int; Value.Int min_int;
      Value.Bool false; Value.Null ]
    @ List.map (fun s -> Value.String s) tricky_strings
  in
  let written, loaded = roundtrip [ row ] in
  Alcotest.(check bool) "rows as written" true (same_rows [ row ] written);
  Alcotest.(check bool) "rows as loaded" true (same_rows written loaded)

let gen_cell =
  QCheck.Gen.(
    frequency
      [
        ( 3,
          map
            (fun f -> Value.Float f)
            (oneof
               [
                 oneofl
                   [ Float.nan; Float.infinity; Float.neg_infinity; -0.0; 0.0 ];
                 float;
               ]) );
        ( 2,
          map
            (fun s -> Value.String s)
            (oneof [ oneofl tricky_strings; string ]) );
        (1, map (fun i -> Value.Int i) int);
        ( 1,
          map3
            (fun y m d -> Value.date y m d)
            (int_range 1 9999) (int_range 1 12) (int_range 1 28) );
        (1, map (fun b -> Value.Bool b) bool);
        (1, return Value.Null);
      ])

let gen_rows =
  QCheck.Gen.(
    let* arity = int_range 1 4 in
    list_size (int_range 1 8) (list_repeat arity gen_cell))

let prop_values_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200
       ~name:"values round-trip exactly through a checkpointed table"
       (QCheck.make
          ~print:(fun rows ->
            String.concat "\n"
              (List.map
                 (fun r -> String.concat " | " (List.map Value.to_string r))
                 rows))
          gen_rows)
       (fun rows ->
         let written, loaded = roundtrip rows in
         same_rows written loaded))

let suite =
  [
    Alcotest.test_case "one artifact per stage" `Quick test_checkpoint_files;
    Alcotest.test_case "resume reproduces the run" `Quick test_resume_roundtrip;
    Alcotest.test_case "corrupt checkpoint recomputed" `Quick
      test_corrupt_checkpoint_recomputed;
    Alcotest.test_case "checkpoints of other inputs recomputed" `Quick
      test_other_inputs_recomputed;
    Alcotest.test_case "resume under another expert recomputes" `Quick
      test_resume_binds_the_expert;
    Alcotest.test_case "missing dir falls back to fresh run" `Quick
      test_missing_dir_is_fresh_run;
    Alcotest.test_case "failed IND load leaves the database untouched" `Quick
      test_load_ind_decodes_before_applying;
    prop_damaged_files_load_totally;
    Alcotest.test_case "3 MB nest of [ loads as None" `Quick
      test_deep_nesting_refused;
    Alcotest.test_case "special values round-trip" `Quick
      test_special_values_roundtrip;
    prop_values_roundtrip;
  ]
