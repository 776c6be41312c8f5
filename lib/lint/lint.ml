open Relational
open Sqlx

type kind = Schema_script | Program | Sql_script
type source = { src_name : string; src_kind : kind; src_text : string }

let source ~name kind text =
  { src_name = name; src_kind = kind; src_text = text }

type report = {
  diags : Diagnostic.t list;
  sources : (string * string) list;
}

let empty = { diags = []; sources = [] }

(* build the dictionary from the DDL sources, skipping relations whose
   own DDL is broken — the schema rules report those defects *)
let schema_of_sources sources =
  List.fold_left
    (fun schema src ->
      if src.src_kind <> Schema_script then schema
      else
        match Parser.parse_script src.src_text with
        | exception Parser.Error _ -> schema
        | stmts ->
            List.fold_left
              (fun schema stmt ->
                match stmt with
                | Ast.Create ct -> (
                    match Ddl.relation_of_create ct with
                    | rel when not (Schema.mem schema rel.Relation.name) ->
                        Schema.add schema rel
                    | _ -> schema
                    | exception Invalid_argument _ -> schema)
                | _ -> schema)
              schema stmts)
    Schema.empty sources

let run ?schema sources =
  let schema =
    match schema with Some s -> s | None -> schema_of_sources sources
  in
  let diags =
    List.concat_map
      (fun src ->
        match src.src_kind with
        | Schema_script ->
            Rules_schema.check_script ~source_name:src.src_name src.src_text
        | Program ->
            Rules_workload.check_program ~source_name:src.src_name schema
              src.src_text
        | Sql_script ->
            Rules_workload.check_script ~source_name:src.src_name schema
              src.src_text)
      sources
  in
  {
    diags = List.stable_sort Diagnostic.compare diags;
    sources = List.map (fun s -> (s.src_name, s.src_text)) sources;
  }

let verify result =
  { diags = Rules_verify.check_result result; sources = [] }

let merge a b =
  {
    diags = List.stable_sort Diagnostic.compare (a.diags @ b.diags);
    sources = a.sources @ b.sources;
  }

let max_severity r = Diagnostic.max_severity r.diags

let should_fail ~fail_on r =
  List.exists
    (fun (d : Diagnostic.t) ->
      Diagnostic.severity_rank d.Diagnostic.severity
      >= Diagnostic.severity_rank fail_on)
    r.diags

let summary_line r =
  Printf.sprintf "%d error(s), %d warning(s), %d info(s)"
    (Diagnostic.count Diagnostic.Error r.diags)
    (Diagnostic.count Diagnostic.Warning r.diags)
    (Diagnostic.count Diagnostic.Info r.diags)

let render_text r =
  match r.diags with
  | [] -> "no diagnostics\n"
  | diags ->
      let b = Buffer.create 1024 in
      List.iter
        (fun (d : Diagnostic.t) ->
          let source =
            Option.bind d.Diagnostic.source_name (fun n ->
                List.assoc_opt n r.sources)
          in
          List.iter
            (fun line ->
              Buffer.add_string b line;
              Buffer.add_char b '\n')
            (Diagnostic.render ?source d))
        diags;
      Buffer.add_string b (summary_line r);
      Buffer.add_char b '\n';
      Buffer.contents b

let render_json r =
  Printf.sprintf
    "{\"diagnostics\":%s,\"summary\":{\"error\":%d,\"warning\":%d,\"info\":%d}}"
    (Diagnostic.list_to_json r.diags)
    (Diagnostic.count Diagnostic.Error r.diags)
    (Diagnostic.count Diagnostic.Warning r.diags)
    (Diagnostic.count Diagnostic.Info r.diags)
