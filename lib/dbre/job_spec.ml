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

type oracle_spec = Auto | Skeptical | Threshold of float

type t = {
  label : string option;
  ddl : string;
  sources : (string * Source.t) list;
  workload : workload;
  engine : Engine.t;
  oracle : oracle_spec;
  lenient : bool;
  migrate_data : bool;
  checkpoint_dir : string option;
  resume : bool;
  fuel : int option;
}

let make ?label ?(sources = []) ?(engine = Engine.default) ?(oracle = Auto)
    ?(lenient = false) ?(migrate_data = true) ?checkpoint_dir
    ?(resume = false) ?fuel ~ddl workload =
  {
    label;
    ddl;
    sources;
    workload;
    engine;
    oracle;
    lenient;
    migrate_data;
    checkpoint_dir;
    resume;
    fuel;
  }

let oracle spec =
  match spec.oracle with
  | Auto -> Oracle.automatic
  | Skeptical -> Oracle.skeptical
  | Threshold r -> Oracle.threshold ~nei_ratio:r

let oracle_spec_of_string = function
  | "auto" -> Ok Auto
  | "skeptical" -> Ok Skeptical
  | s when String.length s > 10 && String.sub s 0 10 = "threshold:" -> (
      match float_of_string_opt (String.sub s 10 (String.length s - 10)) with
      | Some r -> Ok (Threshold r)
      | None -> Error (Printf.sprintf "bad threshold in %S" s))
  | s -> Error (Printf.sprintf "unknown oracle mode %S" s)

let oracle_spec_to_string = function
  | Auto -> "auto"
  | Skeptical -> "skeptical"
  | Threshold r -> Printf.sprintf "threshold:%g" r

let supervisor spec =
  let b = spec.engine.Engine.budget in
  (* always a fresh [create]d token, never [unlimited]: even a job with
     no limits must be cancellable (the daemon's [cancel] is
     [Supervise.cancel] on this token) *)
  Supervise.create ?deadline_s:b.Engine.deadline_s
    ?max_heap_words:b.Engine.max_heap_words ?fuel:spec.fuel ()

(* ------------------------------------------------------------------ *)
(* JSON encoding (version 2, pinned by a golden test)                  *)
(* ------------------------------------------------------------------ *)

(* v2 dropped the engine's "check" and "cache" fields; v1 documents
   still decode with those two fields ignored, since artifacts never
   depended on them *)
let version = 2

let source_to_json (relation, source) =
  let open Json in
  match (source : Source.t) with
  | Source.Csv_file path ->
      Ok
        (Obj
           [
             ("relation", String relation);
             ("kind", String "csv-file");
             ("path", String path);
           ])
  | Source.Csv_inline text ->
      Ok
        (Obj
           [
             ("relation", String relation);
             ("kind", String "csv-inline");
             ("text", String text);
           ])
  | Source.In_memory table ->
      (* an in-memory extension travels as its CSV rendering: the
         receiving side re-encodes into an identical column store
         (first-occurrence interning is deterministic) *)
      Ok
        (Obj
           [
             ("relation", String relation);
             ("kind", String "csv-inline");
             ("text", String (Csv.dump_table table));
           ])
  | Source.Reader { name; _ } ->
      Error
        (Printf.sprintf
           "source %s for %s is a live reader and cannot be serialized"
           name relation)

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
      ("attrs1", List (List.map (fun a -> String a) q.Sqlx.Equijoin.attrs1));
      ("rel2", String q.Sqlx.Equijoin.rel2);
      ("attrs2", List (List.map (fun a -> String a) q.Sqlx.Equijoin.attrs2));
    ]

let equijoin_of_json j =
  let open Json in
  let strings key =
    match mem_list key j with
    | None -> None
    | Some xs ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | String s :: tl -> go (s :: acc) tl
          | _ -> None
        in
        go [] xs
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
    Obj
      [
        ("kind", String kind); ("texts", List (List.map (fun t -> String t) ts));
      ]
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
        let rec go acc = function
          | [] -> Ok (List.rev acc)
          | String s :: tl -> go (s :: acc) tl
          | _ -> Error "workload \"texts\" must be strings"
        in
        go [] xs
  in
  match mem_string "kind" j with
  | Some "programs" -> Result.map (fun ts -> Programs ts) (texts ())
  | Some "sql-scripts" -> Result.map (fun ts -> Sql_scripts ts) (texts ())
  | Some "equijoins" -> (
      match mem_list "joins" j with
      | None -> Error "equijoins workload is missing \"joins\""
      | Some js ->
          let rec go acc = function
            | [] -> Ok (Equijoins (List.rev acc))
            | x :: tl -> (
                match equijoin_of_json x with
                | Ok q -> go (q :: acc) tl
                | Error _ as e -> e |> Result.map (fun _ -> Equijoins []))
          in
          go [] js)
  | Some kind -> Error (Printf.sprintf "unknown workload kind %S" kind)
  | None -> Error "workload is missing \"kind\""

let engine_to_json (e : Engine.t) =
  let open Json in
  Obj
    [
      ( "domains",
        Int
          (match e.Engine.parallelism with
          | Engine.Sequential -> 1
          | Engine.Domains n -> n) );
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
      let parallelism =
        match mem_int "domains" j with
        | Some n when n > 1 -> Engine.Domains n
        | _ -> Engine.Sequential
      in
      Ok
        (Engine.make ~parallelism ?deadline_s:(mem_float "deadline_s" j)
           ?max_heap_words:(mem_int "max_heap_words" j)
           ~on_exhausted:
             (if on_exhausted = Some "fail" then `Fail else `Partial)
           ())

let to_json spec =
  let open Json in
  let rec sources acc = function
    | [] -> Ok (List.rev acc)
    | s :: tl -> (
        match source_to_json s with
        | Ok j -> sources (j :: acc) tl
        | Error _ as e -> e |> Result.map (fun _ -> []))
  in
  match sources [] spec.sources with
  | Error e -> Error e
  | Ok srcs ->
      Ok
        (Obj
           [
             ("version", Int version);
             ("label", opt_string spec.label);
             ("ddl", String spec.ddl);
             ("sources", List srcs);
             ("workload", workload_to_json spec.workload);
             ("engine", engine_to_json spec.engine);
             ("oracle", String (oracle_spec_to_string spec.oracle));
             ("lenient", Bool spec.lenient);
             ("migrate_data", Bool spec.migrate_data);
             ("checkpoint_dir", opt_string spec.checkpoint_dir);
             ("resume", Bool spec.resume);
             ("fuel", opt_int spec.fuel);
           ])

let of_json j =
  let open Json in
  match mem_int "version" j with
  | Some v when v <> 1 && v <> version ->
      Error (Printf.sprintf "unsupported job-spec version %d" v)
  | None -> Error "job spec is missing \"version\""
  | Some _ -> (
      match mem_string "ddl" j with
      | None -> Error "job spec is missing \"ddl\""
      | Some ddl -> (
          let sources =
            match mem_list "sources" j with
            | None -> Ok []
            | Some xs ->
                let rec go acc = function
                  | [] -> Ok (List.rev acc)
                  | x :: tl -> (
                      match source_of_json x with
                      | Ok s -> go (s :: acc) tl
                      | Error _ as e -> e |> Result.map (fun _ -> []))
                in
                go [] xs
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
            match mem_string "oracle" j with
            | None -> Ok Auto
            | Some s -> oracle_spec_of_string s
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

let to_string spec = Result.map Json.to_string (to_json spec)

let of_string text =
  match Json.of_string text with
  | j -> of_json j
  | exception Json.Parse_error msg -> Error ("bad job-spec JSON: " ^ msg)

(* ------------------------------------------------------------------ *)
(* CLI flag folding                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let of_args ?label ~ddl ?data_dir ?programs_dir ?(engine = "default")
    ?(oracle = "auto") ?deadline ?max_heap_mb ?(on_exhausted = "partial")
    ?(lenient = false) ?checkpoint_dir ?(resume = false)
    ?(migrate_data = true) ?fuel () =
  let ( let* ) = Result.bind in
  let* engine =
    match Engine.of_string engine with
    | Some e -> Ok e
    | None ->
        Error
          (Printf.sprintf
             "unknown engine %S (use default|parallel|parallel:<n>)"
             engine)
  in
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
    if deadline = None && max_heap_words = None && on_exhausted = `Partial
    then engine
    else
      Engine.with_budget ?deadline_s:deadline ?max_heap_words ~on_exhausted
        engine
  in
  let* oracle = oracle_spec_of_string oracle in
  let* () =
    if resume && checkpoint_dir = None then
      Error "--resume requires --checkpoint-dir"
    else Ok ()
  in
  let* ddl_text =
    match read_file ddl with
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
        | schema, _ ->
            Ok
              (List.filter_map
                 (fun rel ->
                   let name = rel.Relation.name in
                   let path = Filename.concat dir (name ^ ".csv") in
                   if Sys.file_exists path then
                     Some (name, Source.Csv_file path)
                   else None)
                 (Schema.relations schema))
        | exception Sqlx.Parser.Error msg ->
            Error (Printf.sprintf "cannot parse DDL %s: %s" ddl msg))
  in
  let* workload =
    match programs_dir with
    | None -> Ok (Programs [])
    | Some dir -> (
        match
          Sys.readdir dir |> Array.to_list |> List.sort String.compare
          |> List.map (fun f -> read_file (Filename.concat dir f))
        with
        | texts -> Ok (Programs texts)
        | exception Sys_error msg -> Error msg)
  in
  Ok
    (make ?label ~sources ~engine ~oracle ~lenient ~migrate_data
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
