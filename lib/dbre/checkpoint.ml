open Relational
open Deps

type stage = Ind | Lhs | Rhs | Restruct | Translate

let stage_name = function
  | Ind -> "ind-discovery"
  | Lhs -> "lhs-discovery"
  | Rhs -> "rhs-discovery"
  | Restruct -> "restruct"
  | Translate -> "translate"

let stage_index = function
  | Ind -> 1
  | Lhs -> 2
  | Rhs -> 3
  | Restruct -> 4
  | Translate -> 5

let path ~dir stage =
  Filename.concat dir
    (Printf.sprintf "%d-%s.ckpt" (stage_index stage) (stage_name stage))

(* v4: the header binds the run's inputs; v3 files lack that binding
   and v2 files were s-expressions, so both read as stale *)
let version = 4

exception Corrupt of string

let corrupt msg = raise (Corrupt msg)

(* Content checksum: FNV-1a 64 over the canonical (compact) rendering of
   the payload. Verified on read against a re-rendering of the parsed
   payload, so a file that was truncated or hand-edited into something
   still parseable is detected as corrupt (and recomputed) rather than
   resumed from. *)
let fnv1a64 s =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun c ->
      h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c))) 0x100000001b3L)
    s;
  Printf.sprintf "%016Lx" !h

(* --- generic JSON helpers: decoders raise [Corrupt], caught by [load] --- *)

let field key j =
  match Json.member key j with
  | Some v -> v
  | None -> corrupt ("missing field " ^ key)

let str = function Json.String s -> s | _ -> corrupt "expected string"
let int = function Json.Int i -> i | _ -> corrupt "expected integer"

let list f = function
  | Json.List xs -> List.map f xs
  | _ -> corrupt "expected array"

let strings l = Json.List (List.map (fun s -> Json.String s) l)

(* floats travel as their exact "%h" rendering: Json.Float would print
   NaN and infinities as null and decimal forms need not round-trip *)
let float_str f = Json.String (Printf.sprintf "%h" f)

let float_of_str j =
  match float_of_string_opt (str j) with
  | Some f -> f
  | None -> corrupt "bad float"

(* --- leaf codecs --- *)

(* strings, ints, bools and null map to their JSON kinds; floats and
   dates are one-field objects, so no string is ever re-typed *)
let json_of_value = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.Float f -> Json.Obj [ ("float", float_str f) ]
  | Value.String s -> Json.String s
  | Value.Date { Value.year; month; day } ->
      Json.Obj
        [ ("date", Json.List [ Json.Int year; Json.Int month; Json.Int day ]) ]

let value_of_json = function
  | Json.Null -> Value.Null
  | Json.Bool b -> Value.Bool b
  | Json.Int i -> Value.Int i
  | Json.String s -> Value.String s
  | Json.Obj [ ("float", f) ] -> Value.Float (float_of_str f)
  | Json.Obj [ ("date", Json.List [ y; m; d ]) ] ->
      Value.date (int y) (int m) (int d)
  | _ -> corrupt "bad value"

let domain_of_string = function
  | "bool" -> Domain.Bool
  | "int" -> Domain.Int
  | "float" -> Domain.Float
  | "string" -> Domain.String
  | "date" -> Domain.Date
  | "unknown" -> Domain.Unknown
  | s -> corrupt ("bad domain " ^ s)

let json_of_relation (r : Relation.t) =
  Json.Obj
    [
      ("name", Json.String r.Relation.name);
      ("attrs", strings r.Relation.attrs);
      ( "domains",
        strings
          (List.map
             (fun a -> Domain.to_string (Relation.domain_of r a))
             r.Relation.attrs) );
      ("uniques", Json.List (List.map strings r.Relation.uniques));
      ("not_nulls", strings r.Relation.not_nulls);
    ]

let relation_of_json j =
  let attrs = list str (field "attrs" j) in
  let domains =
    List.map2
      (fun a d -> (a, domain_of_string d))
      attrs
      (list str (field "domains" j))
  in
  Relation.make ~domains
    ~uniques:(list (list str) (field "uniques" j))
    ~not_nulls:(list str (field "not_nulls" j))
    (str (field "name" j)) attrs

let json_of_table t =
  Json.Obj
    [
      ("relation", json_of_relation (Table.schema t));
      ( "rows",
        Json.List
          (List.map
             (fun row -> Json.List (List.map json_of_value row))
             (Table.to_lists t)) );
    ]

let table_of_json j =
  let t = Table.create (relation_of_json (field "relation" j)) in
  List.iter
    (fun row -> Table.insert t (list value_of_json row))
    (list Fun.id (field "rows" j));
  t

let json_of_attr (a : Attribute.t) =
  Json.Obj
    [
      ("rel", Json.String a.Attribute.rel); ("attrs", strings a.Attribute.attrs);
    ]

let attr_of_json j =
  Attribute.make (str (field "rel" j)) (list str (field "attrs" j))

let join_of_json j =
  match Job_spec.equijoin_of_json j with Ok q -> q | Error m -> corrupt m

let json_of_ind i = Json.String (Ind.to_string i)
let ind_of_json j = Ind.parse (str j)
let json_of_fd f = Json.String (Fd.to_string f)
let fd_of_json j = Fd.parse (str j)

let json_of_reason = function
  | Supervise.Cancelled -> Json.String "cancelled"
  | Supervise.Deadline { limit_s; elapsed_s } ->
      Json.Obj
        [ ("deadline", Json.List [ float_str limit_s; float_str elapsed_s ]) ]
  | Supervise.Heap { limit_words; live_words } ->
      Json.Obj
        [ ("heap", Json.List [ Json.Int limit_words; Json.Int live_words ]) ]

let reason_of_json = function
  | Json.String "cancelled" -> Supervise.Cancelled
  | Json.Obj [ ("deadline", Json.List [ l; e ]) ] ->
      Supervise.Deadline
        { limit_s = float_of_str l; elapsed_s = float_of_str e }
  | Json.Obj [ ("heap", Json.List [ l; w ]) ] ->
      Supervise.Heap { limit_words = int l; live_words = int w }
  | _ -> corrupt "bad reason"

(* [None] (a complete stage) is an explicit null, so every checkpoint
   carries the completeness verdict *)
let json_of_exhausted = function
  | None -> Json.Null
  | Some r -> json_of_reason r

let exhausted_of_json = function
  | Json.Null -> None
  | r -> Some (reason_of_json r)

(* --- ind-discovery --- *)

let json_of_counts (c : Ind.counts) =
  Json.List
    [ Json.Int c.Ind.n_left; Json.Int c.Ind.n_right; Json.Int c.Ind.n_join ]

let counts_of_json = function
  | Json.List [ l; r; j ] ->
      { Ind.n_left = int l; n_right = int r; n_join = int j }
  | _ -> corrupt "bad counts"

let json_of_decision = function
  | Oracle.Conceptualize name ->
      Json.Obj [ ("conceptualize", Json.String name) ]
  | Oracle.Force_left_in_right -> Json.String "force-left-in-right"
  | Oracle.Force_right_in_left -> Json.String "force-right-in-left"
  | Oracle.Ignore_nei -> Json.String "ignore"

let decision_of_json = function
  | Json.Obj [ ("conceptualize", n) ] -> Oracle.Conceptualize (str n)
  | Json.String "force-left-in-right" -> Oracle.Force_left_in_right
  | Json.String "force-right-in-left" -> Oracle.Force_right_in_left
  | Json.String "ignore" -> Oracle.Ignore_nei
  | _ -> corrupt "bad nei decision"

let json_of_case = function
  | Ind_discovery.Empty_intersection -> Json.String "empty"
  | Ind_discovery.Included inds ->
      Json.Obj [ ("included", Json.List (List.map json_of_ind inds)) ]
  | Ind_discovery.Nei d -> Json.Obj [ ("nei", json_of_decision d) ]

let case_of_json = function
  | Json.String "empty" -> Ind_discovery.Empty_intersection
  | Json.Obj [ ("included", inds) ] ->
      Ind_discovery.Included (list ind_of_json inds)
  | Json.Obj [ ("nei", d) ] -> Ind_discovery.Nei (decision_of_json d)
  | _ -> corrupt "bad case"

let json_of_ind_step (s : Ind_discovery.step) =
  Json.Obj
    [
      ("join", Job_spec.equijoin_to_json s.Ind_discovery.join);
      ("counts", json_of_counts s.Ind_discovery.counts);
      ("case", json_of_case s.Ind_discovery.case);
    ]

let ind_step_of_json j =
  {
    Ind_discovery.join = join_of_json (field "join" j);
    counts = counts_of_json (field "counts" j);
    case = case_of_json (field "case" j);
  }

(* --- rhs-discovery --- *)

let json_of_outcome = function
  | Rhs_discovery.Fd_elicited fd -> Json.Obj [ ("fd-elicited", json_of_fd fd) ]
  | Rhs_discovery.Became_hidden -> Json.String "became-hidden"
  | Rhs_discovery.Dropped -> Json.String "dropped"
  | Rhs_discovery.Already_hidden -> Json.String "already-hidden"

let outcome_of_json = function
  | Json.Obj [ ("fd-elicited", fd) ] ->
      Rhs_discovery.Fd_elicited (fd_of_json fd)
  | Json.String "became-hidden" -> Rhs_discovery.Became_hidden
  | Json.String "dropped" -> Rhs_discovery.Dropped
  | Json.String "already-hidden" -> Rhs_discovery.Already_hidden
  | _ -> corrupt "bad outcome"

let json_of_rhs_step (s : Rhs_discovery.step) =
  Json.Obj
    [
      ("candidate", json_of_attr s.Rhs_discovery.candidate);
      ("pruned_rhs", strings s.Rhs_discovery.pruned_rhs);
      ("outcome", json_of_outcome s.Rhs_discovery.outcome);
    ]

let rhs_step_of_json j =
  {
    Rhs_discovery.candidate = attr_of_json (field "candidate" j);
    pruned_rhs = list str (field "pruned_rhs" j);
    outcome = outcome_of_json (field "outcome" j);
  }

(* --- the inputs a checkpoint is bound to --- *)

let inputs db equijoins ~migrate_data =
  let relations = Schema.relations (Database.schema db) in
  Json.Obj
    [
      ("schema", Json.List (List.map json_of_relation relations));
      ( "extension",
        strings
          (List.map
             (fun (r : Relation.t) ->
               Digest.to_hex
                 (Column_store.digest
                    (Table.store (Database.table db r.Relation.name))))
             relations) );
      ("equijoins", Json.List (List.map Job_spec.equijoin_to_json equijoins));
      ("migrate_data", Json.Bool migrate_data);
    ]
  |> Json.to_string |> Digest.string |> Digest.to_hex

(* --- file IO --- *)

let rec ensure_dir dir =
  if dir = "" || dir = "." || dir = "/" || Sys.file_exists dir then ()
  else begin
    ensure_dir (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ -> ()
  end

let write_atomic path contents =
  let tmp = path ^ ".tmp" in
  Out_channel.with_open_bin tmp (fun oc ->
      Out_channel.output_string oc contents);
  Sys.rename tmp path

let write_file ~dir ~inputs stage payload =
  ensure_dir dir;
  write_atomic (path ~dir stage)
    (Json.to_string
       (Json.Obj
          [
            ("version", Json.Int version);
            ("stage", Json.String (stage_name stage));
            ("inputs", Json.String inputs);
            ("checksum", Json.String (fnv1a64 (Json.to_string payload)));
            ("payload", payload);
          ]))

let read_payload ~dir ~inputs stage =
  match In_channel.with_open_bin (path ~dir stage) In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      match Json.of_string text with
      | exception Json.Parse_error _ -> None
      | Json.Obj
          [
            ("version", Json.Int v);
            ("stage", Json.String s);
            ("inputs", Json.String bound);
            ("checksum", Json.String sum);
            ("payload", payload);
          ]
        when v = version
             && s = stage_name stage
             && String.equal bound inputs
             && String.equal sum (fnv1a64 (Json.to_string payload)) ->
          Some payload
      | _ -> None)

(* the whole payload decodes before a caller acts on any of it *)
let load ~dir ~inputs stage f =
  Option.bind (read_payload ~dir ~inputs stage) (fun payload ->
      try Some (f payload) with _ -> None)

(* --- per-stage API --- *)

(* Mutation makes every checkpointed stage stale at once (each one
   embeds verdicts over the old extension), so refresh invalidates the
   whole directory rather than cascading. *)
let invalidate ~dir =
  List.iter
    (fun stage ->
      let file = path ~dir stage in
      if Sys.file_exists file then try Sys.remove file with Sys_error _ -> ())
    [ Ind; Lhs; Rhs; Restruct; Translate ]

let write_ind ~dir ~inputs db (r : Ind_discovery.result) =
  let table_of rel =
    match Database.table_opt db rel.Relation.name with
    | Some t -> t
    | None -> Table.create rel
  in
  write_file ~dir ~inputs Ind
    (Json.Obj
       [
         ("inds", Json.List (List.map json_of_ind r.Ind_discovery.inds));
         ( "new_relations",
           Json.List
             (List.map
                (fun rel -> json_of_table (table_of rel))
                r.Ind_discovery.new_relations) );
         ("steps", Json.List (List.map json_of_ind_step r.Ind_discovery.steps));
         ( "unverified",
           Json.List
             (List.map Job_spec.equijoin_to_json r.Ind_discovery.unverified) );
         ("exhausted", json_of_exhausted r.Ind_discovery.exhausted);
       ])

let load_ind ~dir ~inputs db =
  let decoded =
    load ~dir ~inputs Ind (fun j ->
        let tables = list table_of_json (field "new_relations" j) in
        ( tables,
          {
            Ind_discovery.inds = list ind_of_json (field "inds" j);
            new_relations = List.map Table.schema tables;
            steps = list ind_step_of_json (field "steps" j);
            unverified = list join_of_json (field "unverified" j);
            exhausted = exhausted_of_json (field "exhausted" j);
          } ))
  in
  Option.map
    (fun (tables, result) ->
      (* conceptualized relations join the live database again, with
         their checkpointed intersection extension *)
      List.iter (Database.replace_table db) tables;
      result)
    decoded

let write_lhs ~dir ~inputs (r : Lhs_discovery.result) =
  write_file ~dir ~inputs Lhs
    (Json.Obj
       [
         ("lhs", Json.List (List.map json_of_attr r.Lhs_discovery.lhs));
         ("hidden", Json.List (List.map json_of_attr r.Lhs_discovery.hidden));
       ])

let load_lhs ~dir ~inputs =
  load ~dir ~inputs Lhs (fun j ->
      {
        Lhs_discovery.lhs = list attr_of_json (field "lhs" j);
        hidden = list attr_of_json (field "hidden" j);
      })

let write_rhs ~dir ~inputs (r : Rhs_discovery.result) =
  write_file ~dir ~inputs Rhs
    (Json.Obj
       [
         ("fds", Json.List (List.map json_of_fd r.Rhs_discovery.fds));
         ("hidden", Json.List (List.map json_of_attr r.Rhs_discovery.hidden));
         ("steps", Json.List (List.map json_of_rhs_step r.Rhs_discovery.steps));
         ( "unverified",
           Json.List (List.map json_of_attr r.Rhs_discovery.unverified) );
         ("exhausted", json_of_exhausted r.Rhs_discovery.exhausted);
       ])

let load_rhs ~dir ~inputs =
  load ~dir ~inputs Rhs (fun j ->
      {
        Rhs_discovery.fds = list fd_of_json (field "fds" j);
        hidden = list attr_of_json (field "hidden" j);
        steps = list rhs_step_of_json (field "steps" j);
        unverified = list attr_of_json (field "unverified" j);
        exhausted = exhausted_of_json (field "exhausted" j);
      })

let write_restruct ~dir ~inputs (r : Restruct.result) =
  write_file ~dir ~inputs Restruct
    (Json.Obj
       [
         ( "schema",
           Json.List
             (List.map json_of_relation (Schema.relations r.Restruct.schema)) );
         ("inds", Json.List (List.map json_of_ind r.Restruct.inds));
         ("ric", Json.List (List.map json_of_ind r.Restruct.ric));
         ( "renamings",
           Json.List
             (List.map
                (fun (a, name) ->
                  Json.List [ json_of_attr a; Json.String name ])
                r.Restruct.renamings) );
         ( "database",
           match r.Restruct.database with
           | None -> Json.Null
           | Some db ->
               Json.List
                 (List.map
                    (fun rel ->
                      json_of_table (Database.table db rel.Relation.name))
                    (Schema.relations (Database.schema db))) );
       ])

let load_restruct ~dir ~inputs =
  load ~dir ~inputs Restruct (fun j ->
      let renaming = function
        | Json.List [ a; n ] -> (attr_of_json a, str n)
        | _ -> corrupt "bad renaming"
      in
      let database =
        match field "database" j with
        | Json.Null -> None
        | tables ->
            let db = Database.create Schema.empty in
            List.iter (Database.replace_table db) (list table_of_json tables);
            Some db
      in
      {
        Restruct.schema =
          Schema.of_relations (list relation_of_json (field "schema" j));
        inds = list ind_of_json (field "inds" j);
        ric = list ind_of_json (field "ric" j);
        renamings = list renaming (field "renamings" j);
        database;
      })

let write_translate ~dir ~inputs (r : Translate.result) =
  (* The EER graph has no deserializer; this checkpoint is a completion
     marker carrying a human-readable rendering. Resume recomputes
     Translate from the restruct checkpoint (cheap and deterministic). *)
  write_file ~dir ~inputs Translate
    (Json.Obj
       [
         ( "entities",
           Json.List
             (List.map
                (fun (r, e) -> strings [ r; e ])
                r.Translate.entity_of_relation) );
         ("eer", Json.String (Er.Text_render.to_string r.Translate.eer));
       ])

let translate_done ~dir ~inputs = read_payload ~dir ~inputs Translate <> None
