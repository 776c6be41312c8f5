(* A bench-local span recorder. Spans are cut from the outside of the
   program: an operation's timeline holds its start and end, the
   caller's own calls into a layer, and every [Job.run ?progress] event
   as it was observed. Nothing inside lib/ is instrumented. *)

open Relational

type mark =
  | Start
  | Stop
  | Call of string  (** the caller enters layer [name] *)
  | Return of string  (** ... and is back from it *)
  | Until_event of string
      (** the caller enters the program, and layer [name] runs until
          the program's next progress event *)
  | Loading of string
  | Loaded of string * int
  | Stage_started of string
  | Stage_finished of string

(* newest first: time, allocated words so far, mark *)
type timeline = { on : bool; mutable marks : (float * float * mark) list }

let timeline on = { on; marks = [] }

let mark tl m =
  if tl.on then tl.marks <- (Probe.now (), Probe.alloc_words (), m) :: tl.marks

(* [f ()] as a call into layer [name] *)
let call tl name f =
  mark tl (Call name);
  let v = f () in
  mark tl (Return name);
  v

let stage_name s =
  String.map (function '-' -> '_' | c -> c) (Error.stage_to_string s)

let of_job_event = function
  | Dbre.Job.Loading rel -> Loading rel
  | Dbre.Job.Loaded (rel, rows) -> Loaded (rel, rows)
  | Dbre.Job.Stage (Dbre.Pipeline.Stage_started s) -> Stage_started (stage_name s)
  | Dbre.Job.Stage
      ( Dbre.Pipeline.Stage_finished s
      | Dbre.Pipeline.Stage_restored s
      | Dbre.Pipeline.Stage_failed (s, _) ) ->
      Stage_finished (stage_name s)

let progress tl ev = mark tl (of_job_event ev)

type kind =
  | Op  (** the whole operation *)
  | Layer  (** one layer, bounded by a call or by program events *)
  | Part  (** part of a layer: one relation's load *)
  | Wait
      (** time the caller waited on work it cannot see into (a serve
          job inside the daemon); not a layer *)

let kind_to_string = function Op -> "op" | Layer -> "layer" | Part -> "part" | Wait -> "wait"

let kind_of_string = function
  | "op" -> Op
  | "layer" -> Layer
  | "part" -> Part
  | "wait" -> Wait
  | s -> invalid_arg ("Tracer.kind_of_string: " ^ s)

type span = {
  name : string;
  kind : kind;
  start : float;
  stop : float;
  args : (string * Json.t) list;
}

let duration s = s.stop -. s.start

let span ?(args = []) kind name start stop = { name; kind; start; stop; args }

(* Cut an operation into spans. A [Call]/[Return] pair is one layer; so
   is an [Until_event] up to the next program event (the only code
   there is one layer's: the DDL parse before Job.run's first load, the
   delta pass before Job.refresh's first stage). [source] runs from the
   first relation load to the last, with one part per relation; each
   pipeline stage is a layer. What lies between layers (the pipeline's
   own glue, Job.run's return) is not covered by any. *)
let layers tl =
  let spans = ref [] and open_ = ref [] and pending = ref None in
  let source = ref None and rows = ref 0 and start = ref None and stop = ref None in
  let add ?(kind = Layer) ?(args = []) name (t0, a0) (t1, a1) =
    let args = args @ [ ("alloc_mw", Json.Float ((a1 -. a0) /. 1e6)) ] in
    spans := span ~args kind name t0 t1 :: !spans
  in
  let opened name =
    match List.assoc_opt name !open_ with
    | Some p ->
        open_ := List.remove_assoc name !open_;
        p
    | None -> invalid_arg ("Tracer.layers: unmatched end of " ^ name)
  in
  let event p =
    Option.iter (fun (name, p0) -> add name p0 p) !pending;
    pending := None
  in
  List.iter
    (fun (t, a, m) ->
      let p = (t, a) in
      match m with
      | Start -> start := Some p
      | Stop -> stop := Some p
      | Call name -> open_ := (name, p) :: !open_
      | Return name -> add name (opened name) p
      | Until_event name -> pending := Some (name, p)
      | Loading rel ->
          event p;
          if !source = None then source := Some (p, p);
          open_ := ("source:" ^ rel, p) :: !open_
      | Loaded (rel, n) ->
          event p;
          let name = "source:" ^ rel in
          add ~kind:Part ~args:[ ("rows", Json.Int n) ] name (opened name) p;
          rows := !rows + n;
          source := Option.map (fun (p0, _) -> (p0, p)) !source
      | Stage_started name ->
          event p;
          open_ := (name, p) :: !open_
      | Stage_finished name ->
          event p;
          add name (opened name) p)
    (List.rev tl.marks);
  Option.iter (fun (p0, p1) -> add ~args:[ ("rows", Json.Int !rows) ] "source" p0 p1) !source;
  match (!start, !stop) with
  | Some p0, Some p1 ->
      add ~kind:Op "op" p0 p1;
      List.sort (fun a b -> Float.compare a.start b.start) !spans
  | _ -> invalid_arg "Tracer.layers: incomplete timeline"

let op spans =
  match List.find_opt (fun s -> s.kind = Op) spans with
  | Some s -> s
  | None -> invalid_arg "Tracer.op: no op span"

(* share of the operation's wall time its layers account for *)
let coverage spans =
  let o = op spans in
  let covered =
    List.fold_left (fun acc s -> if s.kind = Layer then acc +. duration s else acc) 0. spans
  in
  if duration o > 0. then covered /. duration o else 0.

(* per-layer (and per-wait) milliseconds, by metric name *)
let layer_ms spans =
  List.filter_map
    (fun s ->
      match s.kind with
      | Layer | Wait -> Some (s.name ^ ".ms", duration s *. 1e3)
      | Op | Part -> None)
    spans

let to_json s =
  Json.Obj
    [
      ("name", Json.String s.name);
      ("kind", Json.String (kind_to_string s.kind));
      ("start", Json.Float s.start);
      ("stop", Json.Float s.stop);
      ("args", Json.Obj s.args);
    ]

let of_json j =
  let get f k = Option.get (f k j) in
  {
    name = get Json.mem_string "name";
    kind = kind_of_string (get Json.mem_string "kind");
    start = get Json.mem_float "start";
    stop = get Json.mem_float "stop";
    args = Option.value ~default:[] (Option.bind (Json.member "args" j) Json.to_obj_opt);
  }

(* Chrome trace_event JSON, which Perfetto and about:tracing open: one
   track per (process, thread) pair, each operation an "op" span over
   its layers, timestamps in microseconds from the first op *)
let chrome tracks =
  let origin =
    List.fold_left
      (fun lo (_, _, _, ops) -> List.fold_left (fun lo spans -> Float.min lo (op spans).start) lo ops)
      infinity tracks
  in
  let event ~pid ~tid s args =
    Json.Obj
      [
        ("name", Json.String s.name);
        ("cat", Json.String (kind_to_string s.kind));
        ("ph", Json.String "X");
        ("ts", Json.Float ((s.start -. origin) *. 1e6));
        ("dur", Json.Float (duration s *. 1e6));
        ("pid", Json.Int pid);
        ("tid", Json.Int tid);
        ("args", Json.Obj args);
      ]
  in
  let events =
    List.concat_map
      (fun (pid, tid, label, ops) ->
        Json.Obj
          [
            ("name", Json.String "thread_name");
            ("ph", Json.String "M");
            ("pid", Json.Int pid);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.String label) ]);
          ]
        :: List.concat_map
             (fun spans ->
               List.map
                 (fun s ->
                   event ~pid ~tid s
                     (if s.kind = Op then [ ("coverage", Json.Float (coverage spans)) ] else s.args))
                 spans)
             ops)
      tracks
  in
  Json.Obj [ ("traceEvents", Json.List events); ("displayTimeUnit", Json.String "ms") ]
