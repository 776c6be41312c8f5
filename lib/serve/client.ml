(* Client of the daemon's wire protocol: see client.mli. *)

open Relational

type t = { fd : Unix.file_descr }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (try Unix.connect fd (Unix.ADDR_UNIX path)
   with e ->
     (try Unix.close fd with Unix.Unix_error _ -> ());
     raise e);
  { fd }

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let request t json =
  Protocol.write_frame t.fd json;
  Json.of_string (Protocol.read_frame t.fd)

let result_of response fields =
  match Protocol.error_of response with
  | Some (code, msg) -> Error (code, msg)
  | None -> Ok (fields response)

let ping t =
  match request t (Protocol.request "ping" []) with
  | response -> Json.mem_bool "pong" response = Some true
  | exception _ -> false

let submit t spec =
  let response =
    request t
      (Protocol.request "submit" [ ("spec", Dbre.Job_spec.to_json spec) ])
  in
  result_of response (fun r ->
      ( Option.value ~default:"" (Json.mem_string "id" r),
        Option.value ~default:[] (Json.mem_list "diagnostics" r) ))

let status t id =
  let response =
    request t (Protocol.request "status" [ ("id", Json.String id) ])
  in
  result_of response Fun.id

let events_shape r =
  ( Option.value ~default:[] (Json.mem_list "events" r),
    Option.value ~default:0 (Json.mem_int "next" r),
    Json.mem_bool "settled" r = Some true )

let events t ?(since = 0) id =
  let response =
    request t
      (Protocol.request "events"
         [ ("id", Json.String id); ("since", Json.Int since) ])
  in
  result_of response events_shape

let watch t ?(since = 0) id =
  let response =
    request t
      (Protocol.request "watch"
         [ ("id", Json.String id); ("since", Json.Int since) ])
  in
  result_of response events_shape

let cancel t id =
  let response =
    request t (Protocol.request "cancel" [ ("id", Json.String id) ])
  in
  result_of response (fun r ->
      Option.value ~default:"" (Json.mem_string "state" r))

let artifacts t id =
  let response =
    request t (Protocol.request "artifacts" [ ("id", Json.String id) ])
  in
  result_of response (fun r ->
      let artifacts =
        match Json.member "artifacts" r with
        | Some (Json.Obj fields) ->
            List.filter_map
              (fun (name, v) ->
                Option.map (fun text -> (name, text)) (Json.to_string_opt v))
              fields
        | _ -> []
      in
      (artifacts, Option.value ~default:"" (Json.mem_string "state" r)))

let rec wait t ?(since = 0) id =
  match watch t ~since id with
  | Error _ as e -> e
  | Ok (_, next, settled) ->
      if settled then
        match artifacts t id with
        | Error _ as e -> e
        | Ok (arts, state) -> Ok (state, arts)
      else wait t ~since:next id

let value_to_json = function
  | Value.Null -> Json.Null
  | Value.Bool b -> Json.Bool b
  | Value.Int i -> Json.Int i
  | Value.Float f -> Json.Float f
  | Value.String s -> Json.String s
  | Value.Date _ as v -> Json.String (Value.to_string v)

let mutate t ?(insert = []) ?(delete = []) id relation =
  let response =
    request t
      (Protocol.request "mutate"
         [
           ("id", Json.String id);
           ("relation", Json.String relation);
           ( "insert",
             Json.List
               (List.map
                  (fun row -> Json.List (List.map value_to_json row))
                  insert) );
           ("delete", Json.List (List.map (fun i -> Json.Int i) delete));
         ])
  in
  result_of response (fun r ->
      ( Option.value ~default:0 (Json.mem_int "cardinality" r),
        Option.value ~default:0 (Json.mem_int "version" r) ))

let refresh t id =
  let response =
    request t (Protocol.request "refresh" [ ("id", Json.String id) ])
  in
  result_of response (fun r ->
      ( Option.value ~default:Json.Null (Json.member "report" r),
        Option.value ~default:"" (Json.mem_string "state" r) ))

let jobs t =
  let response = request t (Protocol.request "jobs" []) in
  result_of response (fun r ->
      Option.value ~default:[] (Json.mem_list "jobs" r))

let shutdown t =
  try ignore (request t (Protocol.request "shutdown" []))
  with Protocol.Closed | Protocol.Frame_error _ | Unix.Unix_error _ -> ()
