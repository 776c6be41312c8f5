open Relational
open Deps

let pp_set pp_item ppf items =
  Format.fprintf ppf "{@[<hv>%a@]}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ",@ ")
       pp_item)
    items

let pp_k_set ppf schema = pp_set Attribute.pp ppf (Schema.k_set schema)
let pp_n_set ppf schema = pp_set Attribute.pp ppf (Schema.n_set schema)

let pp_lines pp_item ppf items =
  Format.fprintf ppf "@[<v>%a@]"
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut pp_item)
    items

let pp_equijoins ppf joins = pp_lines Sqlx.Equijoin.pp ppf joins

(* [program <index> <span>: <first line>], indices 0-based in the
   workload's program order *)
let pp_skipped ppf skipped =
  pp_lines
    (fun ppf (s : Pipeline.skipped) ->
      Format.fprintf ppf "program %d %s: %s" s.Pipeline.sk_program
        (Sqlx.Span.to_string s.Pipeline.sk_span)
        s.Pipeline.sk_line)
    ppf skipped

let pp_inds ppf inds = pp_lines Ind.pp ppf inds

let pp_inds_annotated schema ppf inds =
  let pp_one ppf (ind : Ind.t) =
    let star =
      if Ind.key_based schema ind then "*" else ""
    in
    Format.fprintf ppf "%s[%s] << %s[%s]%s" ind.Ind.lhs_rel
      (String.concat "," ind.Ind.lhs_attrs)
      ind.Ind.rhs_rel
      (String.concat "," ind.Ind.rhs_attrs)
      star
  in
  pp_lines pp_one ppf inds

let pp_fds ppf fds = pp_lines Fd.pp ppf fds
let pp_qattrs ppf attrs = pp_set Attribute.pp ppf attrs

let pp_ind_steps ppf steps =
  let pp_step ppf (s : Ind_discovery.step) =
    let case =
      match s.Ind_discovery.case with
      | Ind_discovery.Empty_intersection -> "(i) empty intersection"
      | Ind_discovery.Included inds ->
          Printf.sprintf "included: %s"
            (String.concat " ; " (List.map Ind.to_string inds))
      | Ind_discovery.Nei d -> (
          match d with
          | Oracle.Conceptualize n -> Printf.sprintf "NEI -> conceptualized %s" n
          | Oracle.Force_left_in_right -> "NEI -> forced left << right"
          | Oracle.Force_right_in_left -> "NEI -> forced right << left"
          | Oracle.Ignore_nei -> "NEI -> ignored")
    in
    Format.fprintf ppf "%s  [N_k=%d N_l=%d N_kl=%d]  %s"
      (Sqlx.Equijoin.to_string s.Ind_discovery.join)
      s.Ind_discovery.counts.Ind.n_left s.Ind_discovery.counts.Ind.n_right
      s.Ind_discovery.counts.Ind.n_join case
  in
  pp_lines pp_step ppf steps

let pp_rhs_steps ppf steps =
  let pp_step ppf (s : Rhs_discovery.step) =
    let outcome =
      match s.Rhs_discovery.outcome with
      | Rhs_discovery.Fd_elicited fd -> "FD: " ^ Fd.to_string fd
      | Rhs_discovery.Became_hidden -> "hidden object"
      | Rhs_discovery.Dropped -> "dropped"
      | Rhs_discovery.Already_hidden -> "stays hidden"
    in
    Format.fprintf ppf "%s  (tested: %s)  -> %s"
      (Attribute.to_string s.Rhs_discovery.candidate)
      (String.concat "," s.Rhs_discovery.pruned_rhs)
      outcome
  in
  pp_lines pp_step ppf steps

let pp_events ppf events = pp_lines Oracle.pp_event ppf events
let pp_schema = Schema.pp

(* budget-exhaustion annotations: rendered only when a stage actually
   degraded, so complete runs produce byte-identical reports to runs
   that never carried a token *)
let exhausted_note = function
  | None -> "a supervision budget"
  | Some r -> Supervise.reason_message r

(* pipe characters break Markdown table cells *)
let md_escape s =
  String.concat "\\|" (String.split_on_char '|' s)

let markdown ?(title = "Database reverse-engineering report") (r : Pipeline.result) =
  let buf = Buffer.create 8192 in
  let out fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let ind_r = r.Pipeline.ind_result and rhs_r = r.Pipeline.rhs_result in
  let restr = r.Pipeline.restruct_result in
  let eer = r.Pipeline.translate_result.Translate.eer in
  out "# %s" title;
  out "";
  out "Method: Petit, Toumani, Boulicaut, Kouloumdjian — *Towards the \
       Reverse Engineering of Denormalized Relational Databases* (ICDE 1996).";
  out "";
  (* summary *)
  let entities, relationships, isas = Er.Eer.stats eer in
  out "| metric | value |";
  out "|---|---|";
  out "| equi-joins analyzed | %d |" (List.length r.Pipeline.equijoins);
  out "| inclusion dependencies elicited | %d |"
    (List.length ind_r.Ind_discovery.inds);
  out "| relations conceptualized from NEIs | %d |"
    (List.length ind_r.Ind_discovery.new_relations);
  out "| functional dependencies elicited | %d |"
    (List.length rhs_r.Rhs_discovery.fds);
  out "| hidden objects | %d |" (List.length rhs_r.Rhs_discovery.hidden);
  out "| relations after restructuring | %d |"
    (Relational.Schema.size restr.Restruct.schema);
  out "| referential integrity constraints | %d |"
    (List.length restr.Restruct.ric);
  out "| EER entity / relationship / is-a | %d / %d / %d |" entities
    relationships isas;
  out "";
  if r.Pipeline.skipped <> [] then begin
    out "## Skipped SQL fragments (do not parse)";
    out "";
    List.iter
      (fun (s : Pipeline.skipped) ->
        out "- program %d %s: `%s`" s.Pipeline.sk_program
          (Sqlx.Span.to_string s.Pipeline.sk_span)
          s.Pipeline.sk_line)
      r.Pipeline.skipped;
    out ""
  end;
  (* IND discovery *)
  out "## Inclusion-dependency discovery (section 6.1)";
  out "";
  out "| equi-join | N_k | N_l | N_kl | outcome |";
  out "|---|---|---|---|---|";
  List.iter
    (fun (s : Ind_discovery.step) ->
      let outcome =
        match s.Ind_discovery.case with
        | Ind_discovery.Empty_intersection -> "empty intersection"
        | Ind_discovery.Included inds ->
            String.concat "; " (List.map (fun i -> "`" ^ Ind.to_string i ^ "`") inds)
        | Ind_discovery.Nei d -> (
            match d with
            | Oracle.Conceptualize n -> Printf.sprintf "NEI → conceptualized `%s`" n
            | Oracle.Force_left_in_right -> "NEI → forced left ≪ right"
            | Oracle.Force_right_in_left -> "NEI → forced right ≪ left"
            | Oracle.Ignore_nei -> "NEI → ignored")
      in
      out "| `%s` | %d | %d | %d | %s |"
        (md_escape (Sqlx.Equijoin.to_string s.Ind_discovery.join))
        s.Ind_discovery.counts.Ind.n_left s.Ind_discovery.counts.Ind.n_right
        s.Ind_discovery.counts.Ind.n_join outcome)
    ind_r.Ind_discovery.steps;
  out "";
  if ind_r.Ind_discovery.unverified <> [] then begin
    out "> **Partial result** — %s tripped; %d equi-join(s) were not \
         verified and elicited nothing. Resume with the stage checkpoint \
         to complete them."
      (exhausted_note ind_r.Ind_discovery.exhausted)
      (List.length ind_r.Ind_discovery.unverified);
    out "";
    List.iter
      (fun j -> out "- unverified: `%s`" (md_escape (Sqlx.Equijoin.to_string j)))
      ind_r.Ind_discovery.unverified;
    out ""
  end;
  (* FD discovery *)
  out "## Functional-dependency discovery (section 6.2)";
  out "";
  out "| candidate | tested RHS | outcome |";
  out "|---|---|---|";
  List.iter
    (fun (s : Rhs_discovery.step) ->
      let outcome =
        match s.Rhs_discovery.outcome with
        | Rhs_discovery.Fd_elicited fd -> "`" ^ Fd.to_string fd ^ "`"
        | Rhs_discovery.Became_hidden -> "hidden object"
        | Rhs_discovery.Dropped -> "dropped"
        | Rhs_discovery.Already_hidden -> "stays hidden"
      in
      out "| `%s` | %s | %s |"
        (Attribute.to_string s.Rhs_discovery.candidate)
        (String.concat ", " s.Rhs_discovery.pruned_rhs)
        outcome)
    rhs_r.Rhs_discovery.steps;
  out "";
  if rhs_r.Rhs_discovery.unverified <> [] then begin
    out "> **Partial result** — %s tripped; %d candidate(s) were not \
         tested for functional dependencies."
      (exhausted_note rhs_r.Rhs_discovery.exhausted)
      (List.length rhs_r.Rhs_discovery.unverified);
    out "";
    List.iter
      (fun a -> out "- unverified: `%s`" (Attribute.to_string a))
      rhs_r.Rhs_discovery.unverified;
    out ""
  end;
  (* restructured schema *)
  out "## Restructured schema (section 7)";
  out "";
  out "| relation | structure | provenance |";
  out "|---|---|---|";
  let provenance name =
    match
      List.find_opt (fun (_, n) -> String.equal n name) restr.Restruct.renamings
    with
    | Some (a, _) -> Printf.sprintf "from `%s`" (Attribute.to_string a)
    | None ->
        if
          List.exists
            (fun rel -> String.equal rel.Relational.Relation.name name)
            ind_r.Ind_discovery.new_relations
        then "conceptualized NEI"
        else "original"
  in
  List.iter
    (fun rel ->
      out "| %s | `%s` | %s |" rel.Relational.Relation.name
        (md_escape (Relational.Relation.to_string rel))
        (provenance rel.Relational.Relation.name))
    (Relational.Schema.relations restr.Restruct.schema);
  out "";
  (* RIC *)
  out "## Referential integrity constraints";
  out "";
  let redundant = Ind_closure.redundant restr.Restruct.ric in
  out "| constraint | note |";
  out "|---|---|";
  List.iter
    (fun (i : Ind.t) ->
      out "| `%s` | %s |" (Ind.to_string i)
        (if List.exists (Ind.equal i) redundant then
           "implied by the others"
         else ""))
    restr.Restruct.ric;
  out "";
  (* EER *)
  out "## Conceptual (EER) schema";
  out "";
  out "```";
  out "%s" (String.trim (Er.Text_render.to_string eer));
  out "```";
  out "";
  out "<details><summary>Graphviz source</summary>";
  out "";
  out "```dot";
  out "%s" (String.trim (Er.Dot_render.render eer));
  out "```";
  out "";
  out "</details>";
  out "";
  (* quarantine / degradation *)
  if r.Pipeline.quarantine <> [] then begin
    out "## Quarantined tuples";
    out "";
    out "| relation | rows in input | kept | quarantined |";
    out "|---|---|---|---|";
    List.iter
      (fun (q : Relational.Quarantine.report) ->
        out "| %s | %d | %d | %d |" q.Relational.Quarantine.relation
          q.Relational.Quarantine.total_rows q.Relational.Quarantine.kept
          (Relational.Quarantine.count q))
      r.Pipeline.quarantine;
    out "";
    (match Pipeline.degradations r with
    | [] -> ()
    | degs ->
        out "Dependencies below were tested against a **reduced extension** \
             (quarantined tuples excluded); their evidence is weaker than on \
             a clean load.";
        out "";
        List.iter
          (fun (d : Pipeline.degradation) ->
            out "- `%s` (%d tuples quarantined):" d.Pipeline.deg_relation
              d.Pipeline.deg_quarantined;
            List.iter
              (fun i -> out "  - IND `%s`" (Ind.to_string i))
              d.Pipeline.deg_inds;
            List.iter
              (fun f -> out "  - FD `%s`" (Fd.to_string f))
              d.Pipeline.deg_fds)
          degs;
        out "")
  end;
  (* expert log *)
  out "## Expert decisions";
  out "";
  List.iter
    (fun e -> out "- %s" (Format.asprintf "%a" Oracle.pp_event e))
    r.Pipeline.events;
  Buffer.contents buf

let pp_result ppf (r : Pipeline.result) =
  let section name = Format.fprintf ppf "@,=== %s ===@," name in
  Format.fprintf ppf "@[<v>";
  section "Q (equi-joins analyzed)";
  pp_equijoins ppf r.Pipeline.equijoins;
  if r.Pipeline.skipped <> [] then begin
    section "Skipped SQL fragments (do not parse)";
    pp_skipped ppf r.Pipeline.skipped
  end;
  section "IND-Discovery trace";
  pp_ind_steps ppf r.Pipeline.ind_result.Ind_discovery.steps;
  if r.Pipeline.ind_result.Ind_discovery.unverified <> [] then begin
    section "Unverified equi-joins (budget exhausted)";
    Format.fprintf ppf "%s tripped@,"
      (exhausted_note r.Pipeline.ind_result.Ind_discovery.exhausted);
    pp_equijoins ppf r.Pipeline.ind_result.Ind_discovery.unverified
  end;
  section "Elicited IND";
  pp_inds ppf r.Pipeline.ind_result.Ind_discovery.inds;
  section "LHS (candidate identifiers)";
  pp_qattrs ppf r.Pipeline.lhs_result.Lhs_discovery.lhs;
  section "H after LHS-Discovery";
  pp_qattrs ppf r.Pipeline.lhs_result.Lhs_discovery.hidden;
  section "RHS-Discovery trace";
  pp_rhs_steps ppf r.Pipeline.rhs_result.Rhs_discovery.steps;
  if r.Pipeline.rhs_result.Rhs_discovery.unverified <> [] then begin
    section "Unverified candidates (budget exhausted)";
    Format.fprintf ppf "%s tripped@,"
      (exhausted_note r.Pipeline.rhs_result.Rhs_discovery.exhausted);
    pp_qattrs ppf r.Pipeline.rhs_result.Rhs_discovery.unverified
  end;
  section "F (elicited functional dependencies)";
  pp_fds ppf r.Pipeline.rhs_result.Rhs_discovery.fds;
  section "H (final hidden objects)";
  pp_qattrs ppf r.Pipeline.rhs_result.Rhs_discovery.hidden;
  section "Restructured schema";
  pp_schema ppf r.Pipeline.restruct_result.Restruct.schema;
  section "RIC (referential integrity constraints)";
  pp_inds ppf r.Pipeline.restruct_result.Restruct.ric;
  section "EER schema";
  Er.Text_render.pp ppf r.Pipeline.translate_result.Translate.eer;
  if r.Pipeline.quarantine <> [] then begin
    section "Quarantined tuples";
    pp_lines Relational.Quarantine.pp ppf r.Pipeline.quarantine;
    match Pipeline.degradations r with
    | [] -> ()
    | degs ->
        section "Dependencies tested on a reduced extension";
        pp_lines
          (fun ppf (d : Pipeline.degradation) ->
            Format.fprintf ppf "@[<v 2>%s (%d quarantined):" d.Pipeline.deg_relation
              d.Pipeline.deg_quarantined;
            List.iter
              (fun i -> Format.fprintf ppf "@,IND %s" (Ind.to_string i))
              d.Pipeline.deg_inds;
            List.iter
              (fun f -> Format.fprintf ppf "@,FD %s" (Fd.to_string f))
              d.Pipeline.deg_fds;
            Format.fprintf ppf "@]")
          ppf degs
  end;
  section "Expert decisions";
  pp_events ppf r.Pipeline.events;
  Format.fprintf ppf "@]"

(* The canonical artifact set: one deterministic rendering per named
   artifact, used verbatim by the CLI, the analysis daemon and the
   byte-identity tests/benches — equality of these strings is the
   definition of "same result". *)
let artifacts (r : Pipeline.result) =
  [
    ("F", Format.asprintf "%a" pp_fds r.Pipeline.rhs_result.Rhs_discovery.fds);
    ( "H",
      Format.asprintf "%a" pp_qattrs
        r.Pipeline.rhs_result.Rhs_discovery.hidden );
    ( "IND",
      Format.asprintf "%a" pp_inds r.Pipeline.ind_result.Ind_discovery.inds );
    ( "RIC",
      Format.asprintf "%a" pp_inds r.Pipeline.restruct_result.Restruct.ric );
    ( "EER",
      Er.Text_render.to_string r.Pipeline.translate_result.Translate.eer );
  ]
  @
  if r.Pipeline.skipped = [] then []
  else [ ("skipped", Format.asprintf "%a" pp_skipped r.Pipeline.skipped) ]
