(* One serializable description of a pipeline run: what the CLI's
   per-run flags used to scatter across [Pipeline.config], loader
   arguments and checkpoint paths, folded into a single value that the
   one-shot CLI and the daemon's wire protocol share byte for byte.
   See job_spec.mli. *)

open Relational

type workload =
  | Equijoins of Sqlx.Equijoin.t list
  | Programs of string list
  | Sql_scripts of string list

type t = {
  label : string option;
  ddl : string;
  sources : (string * Source.t) list;
  workload : workload;
  flow : bool;
  engine : Engine.t;
  oracle : Oracle.mode;
  lenient : bool;
  migrate_data : bool;
  checkpoint_dir : string option;
  resume : bool;
  fuel : int option;
}

let make ?label ?(sources = []) ?(flow = false) ?(engine = Engine.default)
    ?(oracle = Oracle.Auto) ?(lenient = false) ?(migrate_data = true) ?checkpoint_dir
    ?(resume = false) ?fuel ~ddl workload =
  {
    label;
    ddl;
    sources;
    workload;
    flow;
    engine;
    oracle;
    lenient;
    migrate_data;
    checkpoint_dir;
    resume;
    fuel;
  }

let of_database ?label ?oracle db workload =
  let relations = Schema.relations (Database.schema db) in
  make ?label ?oracle
    ~sources:
      (List.map
         (fun (r : Relation.t) ->
           (r.name, Source.in_memory (Database.table db r.name)))
         relations)
    ~ddl:
      (String.concat ""
         (List.map (fun r -> Sqlx.Ddl.create_table_sql r ^ ";\n") relations))
    workload

let oracle_of_string = function
  | "auto" -> Ok Oracle.Auto
  | "skeptical" -> Ok Oracle.Skeptical
  | "interactive" -> Ok Oracle.Interactive
  | s when String.length s > 10 && String.sub s 0 10 = "threshold:" -> (
      match float_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some r -> Ok (Oracle.Threshold r)
      | None -> Error (Printf.sprintf "bad threshold in %S" s))
  | s -> Error (Printf.sprintf "unknown oracle mode %S" s)

let supervisor spec =
  let b = spec.engine.Engine.budget in
  (* always a fresh [create]d token, never [unlimited]: even a job with
     no limits must be cancellable (the daemon's [cancel] is
     [Supervise.cancel] on this token) *)
  Supervise.create ?deadline_s:b.Engine.deadline_s
    ?max_heap_words:b.Engine.max_heap_words ?fuel:spec.fuel ()

(* ------------------------------------------------------------------ *)
(* JSON encoding (version 4, pinned by a golden test)                  *)
(* ------------------------------------------------------------------ *)

(* v4 added the scripted oracle object; v3 added "flow"; v2 dropped the
   engine's "check" and "cache" fields. Older documents still decode:
   without "flow" a run is flow-off, and v1's check and cache and the
   engine's "domains" (every IND batch now runs sequentially) are
   ignored, since artifacts never depended on them *)
let version = 4

let strings_json xs = Json.List (List.map (fun x -> Json.String x) xs)

let oracle_to_json =
  let open Json in
  let pairs k v xs =
    List (List.map (fun (a, b) -> Obj [ (k, String a); (v, String b) ]) xs)
  in
  let choice (join, (d : Oracle.nei_decision)) =
    let decision, name =
      match d with
      | Conceptualize n -> ("conceptualize", [ ("name", String n) ])
      | Force_left_in_right -> ("force-left", [])
      | Force_right_in_left -> ("force-right", [])
      | Ignore_nei -> ("ignore", [])
    in
    Obj (("join", String join) :: ("decision", String decision) :: name)
  in
  function
  | Oracle.Auto -> String "auto"
  | Skeptical -> String "skeptical"
  | Interactive -> String "interactive"
  | Threshold r ->
      let g = Printf.sprintf "%g" r in
      let g = if float_of_string g = r then g else Printf.sprintf "%.17g" r in
      String ("threshold:" ^ g)
  | Scripted s ->
      Obj
        [
          ("kind", String "scripted");
          ("nei_choices", List (List.map choice s.nei_choices));
          ("fd_rejections", strings_json s.fd_rejections);
          ("fd_enforcements", pairs "relation" "attr" s.fd_enforcements);
          ("hidden_accepted", strings_json s.hidden_accepted);
          ("hidden_names", pairs "candidate" "name" s.hidden_names);
          ("fd_names", pairs "fd" "name" s.fd_names);
        ]

let script_of_json j =
  let open Json in
  let ( let* ) = Result.bind in
  let bad what = Error ("scripted oracle: " ^ what) in
  (* a missing list is empty: a script names only what it decides *)
  let field key decode =
    match member key j with
    | None -> Ok []
    | Some (List xs) -> decode_list decode xs
    | Some _ -> bad (Printf.sprintf "%S must be a list" key)
  in
  let string = function String s -> Ok s | _ -> bad "expected a string" in
  let pair k v x =
    match (mem_string k x, mem_string v x) with
    | Some a, Some b -> Ok (a, b)
    | _ -> bad (Printf.sprintf "an entry needs %S and %S" k v)
  in
  let choice x =
    match (mem_string "join" x, mem_string "decision" x, mem_string "name" x) with
    | Some j, Some "conceptualize", Some n -> Ok (j, Oracle.Conceptualize n)
    | Some j, Some "force-left", _ -> Ok (j, Oracle.Force_left_in_right)
    | Some j, Some "force-right", _ -> Ok (j, Oracle.Force_right_in_left)
    | Some j, Some "ignore", _ -> Ok (j, Oracle.Ignore_nei)
    | _ -> bad "an NEI choice needs \"join\" and a known \"decision\""
  in
  let* nei_choices = field "nei_choices" choice in
  let* fd_rejections = field "fd_rejections" string in
  let* fd_enforcements = field "fd_enforcements" (pair "relation" "attr") in
  let* hidden_accepted = field "hidden_accepted" string in
  let* hidden_names = field "hidden_names" (pair "candidate" "name") in
  let* fd_names = field "fd_names" (pair "fd" "name") in
  Ok
    (Oracle.Scripted
       { nei_choices; fd_rejections; fd_enforcements; hidden_accepted;
         hidden_names; fd_names })

let oracle_of_json = function
  | Json.String s -> oracle_of_string s
  | j when Json.mem_string "kind" j = Some "scripted" -> script_of_json j
  | _ -> Error "\"oracle\" must be a mode string or a scripted object"

let source_to_json (relation, source) =
  let open Json in
  let kind, key, text =
    match (source : Source.t) with
    | Source.Csv_file path -> ("csv-file", "path", path)
    | Source.Csv_inline text -> ("csv-inline", "text", text)
    | Source.In_memory table ->
        (* an in-memory extension travels as its CSV rendering: the
           receiving side re-encodes into an identical column store
           (first-occurrence interning is deterministic) *)
        ("csv-inline", "text", Csv.dump_table table)
  in
  Obj [ ("relation", String relation); ("kind", String kind); (key, String text) ]

let source_of_json j =
  let open Json in
  match (mem_string "relation" j, mem_string "kind" j) with
  | Some relation, Some "csv-file" -> (
      match mem_string "path" j with
      | Some path -> Ok (relation, Source.Csv_file path)
      | None -> Error "csv-file source is missing \"path\"")
  | Some relation, Some "csv-inline" -> (
      match mem_string "text" j with
      | Some text -> Ok (relation, Source.Csv_inline text)
      | None -> Error "csv-inline source is missing \"text\"")
  | Some _, Some kind -> Error (Printf.sprintf "unknown source kind %S" kind)
  | _ -> Error "source is missing \"relation\" or \"kind\""

let equijoin_to_json (q : Sqlx.Equijoin.t) =
  let open Json in
  Obj
    [
      ("rel1", String q.Sqlx.Equijoin.rel1);
      ("attrs1", strings_json q.Sqlx.Equijoin.attrs1);
      ("rel2", String q.Sqlx.Equijoin.rel2);
      ("attrs2", strings_json q.Sqlx.Equijoin.attrs2);
    ]

let equijoin_of_json j =
  let open Json in
  let strings key =
    Option.bind (mem_list key j) (fun xs ->
        Result.to_option
          (decode_list (function String s -> Ok s | _ -> Error ()) xs))
  in
  match
    (mem_string "rel1" j, strings "attrs1", mem_string "rel2" j,
     strings "attrs2")
  with
  | Some r1, Some a1, Some r2, Some a2 -> (
      match Sqlx.Equijoin.make (r1, a1) (r2, a2) with
      | q -> Ok q
      | exception Invalid_argument msg ->
          Error (Printf.sprintf "bad equi-join: %s" msg))
  | _ -> Error "equi-join is missing rel1/attrs1/rel2/attrs2"

let workload_to_json =
  let open Json in
  let texts kind ts =
    Obj [ ("kind", String kind); ("texts", strings_json ts) ]
  in
  function
  | Programs ts -> texts "programs" ts
  | Sql_scripts ts -> texts "sql-scripts" ts
  | Equijoins qs ->
      Obj
        [
          ("kind", String "equijoins");
          ("joins", List (List.map equijoin_to_json qs));
        ]

let workload_of_json j =
  let open Json in
  let texts () =
    match mem_list "texts" j with
    | None -> Error "workload is missing \"texts\""
    | Some xs ->
        decode_list
          (function
            | String s -> Ok s
            | _ -> Error "workload \"texts\" must be strings")
          xs
  in
  match mem_string "kind" j with
  | Some "programs" -> Result.map (fun ts -> Programs ts) (texts ())
  | Some "sql-scripts" -> Result.map (fun ts -> Sql_scripts ts) (texts ())
  | Some "equijoins" -> (
      match mem_list "joins" j with
      | None -> Error "equijoins workload is missing \"joins\""
      | Some js ->
          Result.map (fun qs -> Equijoins qs) (decode_list equijoin_of_json js))
  | Some kind -> Error (Printf.sprintf "unknown workload kind %S" kind)
  | None -> Error "workload is missing \"kind\""

let engine_to_json (e : Engine.t) =
  let open Json in
  Obj
    [
      ("deadline_s", opt_float e.Engine.budget.Engine.deadline_s);
      ("max_heap_words", opt_int e.Engine.budget.Engine.max_heap_words);
      ( "on_exhausted",
        String
          (match e.Engine.budget.Engine.on_exhausted with
          | `Partial -> "partial"
          | `Fail -> "fail") );
    ]

let engine_of_json j =
  let open Json in
  match mem_string "on_exhausted" j with
  | Some s when s <> "fail" && s <> "partial" ->
      Error (Printf.sprintf "unknown on_exhausted policy %S" s)
  | on_exhausted ->
      Ok
        (Engine.make ?deadline_s:(mem_float "deadline_s" j)
           ?max_heap_words:(mem_int "max_heap_words" j)
           ~on_exhausted:
             (if on_exhausted = Some "fail" then `Fail else `Partial)
           ())

let to_json spec =
  let open Json in
  Obj
    [
      ("version", Int version);
      ("label", opt_string spec.label);
      ("ddl", String spec.ddl);
      ("sources", List (List.map source_to_json spec.sources));
      ("workload", workload_to_json spec.workload);
      ("flow", Bool spec.flow);
      ("engine", engine_to_json spec.engine);
      ("oracle", oracle_to_json spec.oracle);
      ("lenient", Bool spec.lenient);
      ("migrate_data", Bool spec.migrate_data);
      ("checkpoint_dir", opt_string spec.checkpoint_dir);
      ("resume", Bool spec.resume);
      ("fuel", opt_int spec.fuel);
    ]

let of_json j =
  let open Json in
  match mem_int "version" j with
  | Some v when v < 1 || v > version ->
      Error (Printf.sprintf "unsupported job-spec version %d" v)
  | None -> Error "job spec is missing \"version\""
  | Some _ -> (
      match mem_string "ddl" j with
      | None -> Error "job spec is missing \"ddl\""
      | Some ddl -> (
          let sources =
            match mem_list "sources" j with
            | None -> Ok []
            | Some xs -> decode_list source_of_json xs
          in
          let workload =
            match member "workload" j with
            | None -> Error "job spec is missing \"workload\""
            | Some w -> workload_of_json w
          in
          let engine =
            match member "engine" j with
            | None -> Ok Engine.default
            | Some e -> engine_of_json e
          in
          let oracle =
            match member "oracle" j with
            | None -> Ok Oracle.Auto
            | Some o -> oracle_of_json o
          in
          match (sources, workload, engine, oracle) with
          | Error e, _, _, _
          | _, Error e, _, _
          | _, _, Error e, _
          | _, _, _, Error e ->
              Error e
          | Ok sources, Ok workload, Ok engine, Ok oracle ->
              let checkpoint_dir = mem_string "checkpoint_dir" j in
              let resume = Option.value ~default:false (mem_bool "resume" j) in
              if resume && checkpoint_dir = None then
                Error "\"resume\" requires \"checkpoint_dir\""
              else
                Ok
                  {
                    label = mem_string "label" j;
                    ddl;
                    sources;
                    workload;
                    flow = Option.value ~default:false (mem_bool "flow" j);
                    engine;
                    oracle;
                    lenient =
                      Option.value ~default:false (mem_bool "lenient" j);
                    migrate_data =
                      Option.value ~default:true (mem_bool "migrate_data" j);
                    checkpoint_dir;
                    resume;
                    fuel = mem_int "fuel" j;
                  }))

let to_string spec = Json.to_string (to_json spec)

let of_string text =
  match Json.of_string text with
  | j -> of_json j
  | exception Json.Parse_error msg -> Error ("bad job-spec JSON: " ^ msg)

(* ------------------------------------------------------------------ *)
(* CLI flag folding                                                    *)
(* ------------------------------------------------------------------ *)

let of_args ?label ~ddl ?data_dir ?programs_dir ?flow ?(oracle = "auto")
    ?deadline ?max_heap_mb ?(on_exhausted = "partial") ?(lenient = false) ?checkpoint_dir ?(resume = false)
    ?(migrate_data = true) ?fuel () =
  let ( let* ) = Result.bind in
  let* on_exhausted =
    match on_exhausted with
    | "partial" -> Ok `Partial
    | "fail" -> Ok `Fail
    | s ->
        Error
          (Printf.sprintf "unknown --on-budget-exhausted %S (use partial|fail)"
             s)
  in
  let engine =
    let max_heap_words =
      Option.map
        (fun mb -> mb * 1024 * 1024 / (Sys.word_size / 8))
        max_heap_mb
    in
    Engine.make ?deadline_s:deadline ?max_heap_words ~on_exhausted ()
  in
  let* oracle = oracle_of_string oracle in
  let* () =
    if resume && checkpoint_dir = None then
      Error "--resume requires --checkpoint-dir"
    else Ok ()
  in
  let* ddl_text =
    match In_channel.with_open_bin ddl In_channel.input_all with
    | text -> Ok text
    | exception Sys_error msg -> Error msg
  in
  let* sources =
    match data_dir with
    | None -> Ok []
    | Some dir -> (
        (* one CSV per declared relation, in schema declaration order;
           relations without a file simply have an empty extension *)
        match Sqlx.Ddl.schema_of_script ddl_text with
        | Error msg -> Error (Printf.sprintf "cannot parse DDL %s: %s" ddl msg)
        | Ok (schema, _) ->
            Ok
              (List.filter_map
                 (fun rel ->
                   let name = rel.Relation.name in
                   let path = Filename.concat dir (name ^ ".csv") in
                   if Sys.file_exists path then
                     Some (name, Source.Csv_file path)
                   else None)
                 (Schema.relations schema)))
  in
  let* workload =
    match programs_dir with
    | None -> Ok (Programs [])
    | Some dir -> (
        match
          Sys.readdir dir |> Array.to_list |> List.sort String.compare
          |> List.map (fun f ->
                 In_channel.with_open_bin (Filename.concat dir f)
                   In_channel.input_all)
        with
        | texts -> Ok (Programs texts)
        | exception Sys_error msg -> Error msg)
  in
  Ok
    (make ?label ~sources ?flow ~engine ~oracle ~lenient ~migrate_data
       ?checkpoint_dir ~resume ?fuel ~ddl:ddl_text workload)

let describe spec =
  Printf.sprintf "%s: %d source(s), %s, engine %s%s"
    (Option.value ~default:"job" spec.label)
    (List.length spec.sources)
    (match spec.workload with
    | Equijoins qs -> Printf.sprintf "%d equi-join(s)" (List.length qs)
    | Programs ps -> Printf.sprintf "%d program(s)" (List.length ps)
    | Sql_scripts ss -> Printf.sprintf "%d script(s)" (List.length ss))
    (Engine.to_string spec.engine)
    (if spec.lenient then ", lenient" else "")
