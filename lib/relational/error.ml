type stage =
  | Load
  | Extract
  | Ind_discovery
  | Lhs_discovery
  | Rhs_discovery
  | Restruct
  | Translate

type code =
  | Csv_syntax
  | Csv_arity
  | Unknown_column
  | Missing_column
  | Type_mismatch
  | Sql_parse
  | Unknown_relation
  | Oracle_failure
  | Io_error
  | Checkpoint_corrupt
  | Resource_exhausted
  | Invariant
  | Unclassified

type severity = Fatal | Recoverable

type t = {
  code : code;
  severity : severity;
  stage : stage option;
  relation : string option;
  attribute : string option;
  message : string;
}

exception Error of t

let stage_to_string = function
  | Load -> "load"
  | Extract -> "extract"
  | Ind_discovery -> "ind-discovery"
  | Lhs_discovery -> "lhs-discovery"
  | Rhs_discovery -> "rhs-discovery"
  | Restruct -> "restruct"
  | Translate -> "translate"

let code_to_string = function
  | Csv_syntax -> "csv-syntax"
  | Csv_arity -> "csv-arity"
  | Unknown_column -> "unknown-column"
  | Missing_column -> "missing-column"
  | Type_mismatch -> "type-mismatch"
  | Sql_parse -> "sql-parse"
  | Unknown_relation -> "unknown-relation"
  | Oracle_failure -> "oracle-failure"
  | Io_error -> "io-error"
  | Checkpoint_corrupt -> "checkpoint-corrupt"
  | Resource_exhausted -> "resource-exhausted"
  | Invariant -> "invariant"
  | Unclassified -> "unclassified"

let severity_to_string = function
  | Fatal -> "fatal"
  | Recoverable -> "recoverable"

let make ?stage ?relation ?attribute ?(severity = Fatal) code message =
  { code; severity; stage; relation; attribute; message }

let raise_ ?stage ?relation ?attribute ?severity code message =
  raise (Error (make ?stage ?relation ?attribute ?severity code message))

let raisef ?stage ?relation ?attribute ?severity code fmt =
  Printf.ksprintf (raise_ ?stage ?relation ?attribute ?severity code) fmt

let invariant message = raise_ Invariant ("invariant violated: " ^ message)

let at_stage stage e =
  match e.stage with Some _ -> e | None -> { e with stage = Some stage }

let of_exn stage = function
  | Error e -> at_stage stage e
  | Failure msg -> make ~stage Unclassified msg
  | Invalid_argument msg -> make ~stage Invariant msg
  | Not_found -> make ~stage Unknown_relation "lookup failed (Not_found)"
  | Sys_error msg -> make ~stage Io_error msg
  | exn -> make ~stage Unclassified (Printexc.to_string exn)

let to_string e =
  let opt tag = function
    | None -> ""
    | Some s -> Printf.sprintf " %s=%s" tag s
  in
  Printf.sprintf "[%s/%s]%s%s%s %s" (code_to_string e.code)
    (severity_to_string e.severity)
    (opt "stage" (Option.map stage_to_string e.stage))
    (opt "relation" e.relation)
    (opt "attribute" e.attribute)
    e.message

let pp ppf e = Format.pp_print_string ppf (to_string e)

let () =
  Printexc.register_printer (function
    | Error e -> Some ("Relational.Error.Error " ^ to_string e)
    | _ -> None)
