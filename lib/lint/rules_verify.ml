open Relational
open Deps

let diag = Diagnostic.make

let l201 (r : Dbre.Pipeline.result) =
  List.filter_map
    (fun (rel, nf) ->
      match nf with
      | Normal_forms.Nf3 | Normal_forms.Bcnf -> None
      | (Normal_forms.Nf1 | Normal_forms.Nf2) as nf ->
          Some
            (diag ~code:"L201" Diagnostic.Error
               (Printf.sprintf
                  "post-Restruct relation %s is only in %s: the elicited \
                   FDs still violate 3NF"
                  rel
                  (Normal_forms.nf_to_string nf))))
    (Dbre.Pipeline.nf_report r)

let l202 (r : Dbre.Pipeline.result) =
  let schema = r.restruct_result.Dbre.Restruct.schema in
  List.filter_map
    (fun ind ->
      if Ind.key_based schema ind then None
      else
        Some
          (diag ~code:"L202" Diagnostic.Error
             (Printf.sprintf
                "RIC %s: the right-hand side is not a declared key of %s"
                (Ind.to_string ind) ind.Ind.rhs_rel)))
    r.restruct_result.Dbre.Restruct.ric

let l203 (r : Dbre.Pipeline.result) =
  let schema = r.restruct_result.Dbre.Restruct.schema in
  let side_problem rel attrs =
    match Schema.find schema rel with
    | None -> Some (Printf.sprintf "relation %s is not in the schema" rel)
    | Some rl -> (
        match
          List.filter (fun a -> not (Relation.has_attr rl a)) attrs
        with
        | [] -> None
        | missing ->
            Some
              (Printf.sprintf "%s has no attribute %s" rel
                 (String.concat ", " missing)))
  in
  List.filter_map
    (fun (ind : Ind.t) ->
      let problem =
        match side_problem ind.Ind.lhs_rel ind.Ind.lhs_attrs with
        | Some p -> Some p
        | None -> side_problem ind.Ind.rhs_rel ind.Ind.rhs_attrs
      in
      Option.map
        (fun p ->
          diag ~code:"L203" Diagnostic.Error
            (Printf.sprintf "dangling IND after Rewrite: %s (%s)"
               (Ind.to_string ind) p))
        problem)
    r.restruct_result.Dbre.Restruct.inds

let l204 (r : Dbre.Pipeline.result) =
  match Er.Validate.check r.translate_result.Dbre.Translate.eer with
  | Ok () -> []
  | Error msgs ->
      List.map
        (fun m ->
          diag ~code:"L204" Diagnostic.Error
            (Printf.sprintf "EER schema ill-formed: %s" m))
        msgs

let l205 (r : Dbre.Pipeline.result) =
  let eer = r.translate_result.Dbre.Translate.eer in
  List.concat_map
    (fun (rel : Er.Eer.relationship) ->
      let empty_roles =
        List.filter_map
          (fun (role : Er.Eer.role) ->
            if role.Er.Eer.role_attrs = [] then
              Some
                (diag ~code:"L205" Diagnostic.Error
                   (Printf.sprintf
                      "relationship %s: role of %s is realized by no \
                       attributes"
                      rel.Er.Eer.r_name role.Er.Eer.role_entity))
            else None)
          rel.Er.Eer.r_roles
      in
      let cards =
        List.map (fun (role : Er.Eer.role) -> role.Er.Eer.role_card)
          rel.Er.Eer.r_roles
      in
      let partial =
        if
          List.exists Option.is_some cards && List.exists Option.is_none cards
        then
          [
            diag ~code:"L205" Diagnostic.Warning
              (Printf.sprintf
                 "relationship %s: cardinalities inferred for only some \
                  legs"
                 rel.Er.Eer.r_name);
          ]
        else []
      in
      empty_roles @ partial)
    eer.Er.Eer.relationships

let l206 (r : Dbre.Pipeline.result) =
  let budget = function
    | Some reason -> Supervise.reason_message reason
    | None -> "a supervision budget"
  in
  let ind =
    match r.ind_result.Dbre.Ind_discovery.unverified with
    | [] -> []
    | unverified ->
        [
          diag ~code:"L206" Diagnostic.Warning
            (Printf.sprintf
               "IND-Discovery is partial: %s tripped and %d equi-join(s) \
                were never verified — the elicited INDs (and everything \
                derived from them) may be incomplete; resume from the \
                stage checkpoint to finish"
               (budget r.ind_result.Dbre.Ind_discovery.exhausted)
               (List.length unverified));
        ]
  in
  let rhs =
    match r.rhs_result.Dbre.Rhs_discovery.unverified with
    | [] -> []
    | unverified ->
        [
          diag ~code:"L206" Diagnostic.Warning
            (Printf.sprintf
               "RHS-Discovery is partial: %s tripped and %d candidate(s) \
                were never tested — the elicited FDs (and the 3NF \
                restructuring) may be incomplete; resume from the stage \
                checkpoint to finish"
               (budget r.rhs_result.Dbre.Rhs_discovery.exhausted)
               (List.length unverified));
        ]
  in
  ind @ rhs

let check_result r = l201 r @ l202 r @ l203 r @ l204 r @ l205 r @ l206 r

(* L207 — pre-run check of a job's sources against its DDL: every
   source must target a declared relation, and where a source's shape
   is observable without loading it (an in-memory table's relation, a
   CSV document's first record when unquoted) it must agree with the
   declared arity. Warnings, not errors: the daemon surfaces them over
   the protocol before the run, and the run itself still fails with a
   precise typed error if the disagreement is real. *)

(* width of the first CSV record, when it can be read cheaply and
   unambiguously: None for readers and non-regular files such as named
   pipes (probing would consume them, or block the daemon until a
   writer shows up), missing files, empty documents, or records using
   quotes (a quoted comma would make the naive count wrong) *)
let first_record_width (source : Source.t) =
  let width_of_text text =
    let line =
      match String.index_opt text '\n' with
      | Some i -> String.sub text 0 i
      | None -> text
    in
    let line =
      if String.length line > 0 && line.[String.length line - 1] = '\r' then
        String.sub line 0 (String.length line - 1)
      else line
    in
    if line = "" || String.contains line '"' then None
    else
      Some
        (1
        + String.fold_left
            (fun n c -> if c = ',' then n + 1 else n)
            0 line)
  in
  match source with
  | Source.Csv_inline text -> width_of_text text
  | Source.Csv_file path
    when not (try Sys.is_regular_file path with Sys_error _ -> false) ->
      None
  | Source.Csv_file path -> (
      match open_in_bin path with
      | exception Sys_error _ -> None
      | ic ->
          Fun.protect
            ~finally:(fun () -> close_in_noerr ic)
            (fun () ->
              match input_line ic with
              | line -> width_of_text line
              | exception End_of_file -> None))
  | Source.In_memory _ | Source.Reader _ -> None

let check_job (spec : Dbre.Job_spec.t) =
  match Sqlx.Ddl.schema_of_script spec.Dbre.Job_spec.ddl with
  | exception Sqlx.Parser.Error _ -> []
  | schema, _fks ->
      List.filter_map
        (fun (name, source) ->
          match Schema.find schema name with
          | None ->
              Some
                (diag ~code:"L207" Diagnostic.Warning
                   (Printf.sprintf
                      "job source %s targets relation %s, which the DDL does \
                       not declare"
                      (Source.describe source) name))
          | Some rel -> (
              let arity = List.length rel.Relation.attrs in
              match source with
              | Source.In_memory table ->
                  let have = Table.schema table in
                  if
                    String.equal have.Relation.name rel.Relation.name
                    && have.Relation.attrs = rel.Relation.attrs
                  then None
                  else
                    Some
                      (diag ~code:"L207" Diagnostic.Warning
                         (Printf.sprintf
                            "job source for %s is an in-memory table \
                             declaring %s(%s), but the DDL declares %s(%s)"
                            name have.Relation.name
                            (String.concat ", " have.Relation.attrs)
                            rel.Relation.name
                            (String.concat ", " rel.Relation.attrs)))
              | Source.Csv_file path when not (Sys.file_exists path) ->
                  Some
                    (diag ~code:"L207" Diagnostic.Warning
                       (Printf.sprintf
                          "job source for %s names a missing file %s" name
                          path))
              | _ -> (
                  match first_record_width source with
                  | Some w when w <> arity ->
                      Some
                        (diag ~code:"L207" Diagnostic.Warning
                           (Printf.sprintf
                              "job source for %s has %d-field records, but \
                               the DDL declares %d attributes"
                              name w arity))
                  | _ -> None)))
        spec.Dbre.Job_spec.sources
