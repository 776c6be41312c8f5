(* Job_spec: the serializable run description shared by the one-shot
   CLI and the daemon's wire protocol. The JSON encoding is pinned by a
   golden string — each version is a compatibility promise, so any
   change a decoder of the same version would read differently must
   bump [Job_spec.version], and the decoder keeps accepting the older
   versions (pinned by the v3, v2 and v1 goldens below). *)

open Relational
module Job_spec = Dbre.Job_spec
open Dbre.Oracle

let golden_spec () =
  Job_spec.make ~label:"golden"
    ~sources:[ ("R", Source.csv_inline "a,b\n1,x\n") ]
    ~engine:
      (Engine.make ~deadline_s:2.5 ~max_heap_words:1_000_000
         ~on_exhausted:`Fail ())
    ~oracle:(Dbre.Oracle.Threshold 0.8) ~lenient:true ~migrate_data:false
    ~checkpoint_dir:"/tmp/ck" ~resume:true ~fuel:42 ~flow:true
    ~ddl:"CREATE TABLE R (a INT, b VARCHAR(4));"
    (Job_spec.Equijoins [ Sqlx.Equijoin.make ("R", [ "a" ]) ("S", [ "a" ]) ])

(* [flow] is the document's "flow" member, if it has one; [engine_prefix]
   the engine members older encoders wrote before "deadline_s" *)
let golden_json ~version ~flow ~engine_prefix =
  String.concat ""
    [
      Printf.sprintf {|{"version":%d,|} version;
      {|"label":"golden","ddl":"CREATE TABLE R (a INT, b VARCHAR(4));",|};
      {|"sources":[{"relation":"R","kind":"csv-inline","text":"a,b\n1,x\n"}],|};
      {|"workload":{"kind":"equijoins","joins":[{"rel1":"R","attrs1":["a"],"rel2":"S","attrs2":["a"]}]},|};
      flow;
      {|"engine":{|};
      engine_prefix;
      {|"deadline_s":2.5,"max_heap_words":1000000,"on_exhausted":"fail"},|};
      {|"oracle":"threshold:0.8","lenient":true,"migrate_data":false,|};
      {|"checkpoint_dir":"/tmp/ck","resume":true,"fuel":42}|};
    ]

let golden_v4 = golden_json ~version:4 ~flow:{|"flow":true,|} ~engine_prefix:""

(* as version 3 wrote it: the same document, before scripted oracles *)
let golden_v3 = golden_json ~version:3 ~flow:{|"flow":true,|} ~engine_prefix:""

(* what an older document re-encodes as: it had no flow, so it is off *)
let golden_v4_flow_off =
  golden_json ~version:4 ~flow:{|"flow":false,|} ~engine_prefix:""

(* the same spec as a version-3 encoder wrote it while the engine
   still carried the IND batch's domain count *)
let golden_v3_domains =
  golden_json ~version:3 ~flow:{|"flow":true,|} ~engine_prefix:{|"domains":4,|}

(* as version 2 wrote it, before "flow" *)
let golden_v2 =
  golden_json ~version:2 ~flow:"" ~engine_prefix:{|"domains":3,|}

(* and as version 1 wrote it, when the engine still carried a check
   algorithm and a cache policy *)
let golden_v1 =
  golden_json ~version:1 ~flow:""
    ~engine_prefix:{|"check":"partition","cache":false,"domains":3,|}


let of_string_exn text =
  match Job_spec.of_string text with
  | Ok spec -> spec
  | Error e -> Alcotest.fail e

let test_golden () =
  Alcotest.(check string) "pinned v4 encoding" golden_v4
    (Job_spec.to_string (golden_spec ()))

(* a v3 document decodes to the same spec and re-encodes as v4 *)
let test_golden_v3 () =
  Alcotest.(check string) "v3 re-encodes as v4" golden_v4
    (Job_spec.to_string (of_string_exn golden_v3))

(* a scripted expert is data: its object is pinned, and it survives the
   round trip *)
let script =
  {
    Dbre.Oracle.nei_choices =
      [
        ("A[x] |X| B[y]", Dbre.Oracle.Conceptualize "AB");
        ("C[z] |X| D[z]", Dbre.Oracle.Force_right_in_left);
      ];
    fd_rejections = [ "R: a -> b" ];
    fd_enforcements = [ ("R", "c") ];
    hidden_accepted = [ "R.a" ];
    hidden_names = [ ("R.a", "Thing") ];
    fd_names = [ ("R: a -> c", "Named") ];
  }

let golden_scripted_oracle =
  String.concat ""
    [
      {|{"kind":"scripted","nei_choices":[|};
      {|{"join":"A[x] |X| B[y]","decision":"conceptualize","name":"AB"},|};
      {|{"join":"C[z] |X| D[z]","decision":"force-right"}],|};
      {|"fd_rejections":["R: a -> b"],|};
      {|"fd_enforcements":[{"relation":"R","attr":"c"}],|};
      {|"hidden_accepted":["R.a"],|};
      {|"hidden_names":[{"candidate":"R.a","name":"Thing"}],|};
      {|"fd_names":[{"fd":"R: a -> c","name":"Named"}]}|};
    ]

let scripted_spec () =
  Job_spec.make ~oracle:(Scripted script) ~ddl:"CREATE TABLE R (a INT);"
    (Job_spec.Programs [])

let test_golden_scripted () =
  Alcotest.(check string) "pinned scripted oracle" golden_scripted_oracle
    (Json.to_string (Job_spec.oracle_to_json (Scripted script)));
  let spec = scripted_spec () in
  Alcotest.(check bool) "round-trips" true
    ((of_string_exn (Job_spec.to_string spec)).Job_spec.oracle
    = spec.Job_spec.oracle);
  let decode oracle =
    Result.map
      (fun spec -> spec.Job_spec.oracle)
      (Job_spec.of_string
         (Printf.sprintf
            {|{"version":4,"ddl":"","workload":{"kind":"programs","texts":[]},"oracle":%s}|}
            oracle))
  in
  (* lists a script leaves out are empty *)
  Alcotest.(check bool) "missing lists are empty" true
    (decode {|{"kind":"scripted"}|}
    = Ok
        (Scripted
           {
             nei_choices = [];
             fd_rejections = [];
             fd_enforcements = [];
             hidden_accepted = [];
             hidden_names = [];
             fd_names = [];
           }));
  List.iter
    (fun (name, text) ->
      match decode text with
      | Ok _ -> Alcotest.failf "%s accepted" name
      | Error e -> Helpers.check_contains name ~sub:"oracle" e)
    [
      ("unknown decision", {|{"kind":"scripted","nei_choices":[{"join":"j","decision":"maybe"}]}|});
      ("nameless conceptualize", {|{"kind":"scripted","nei_choices":[{"join":"j","decision":"conceptualize"}]}|});
      ("non-list field", {|{"kind":"scripted","fd_rejections":"R: a -> b"}|});
      ("non-string entry", {|{"kind":"scripted","hidden_accepted":[1]}|});
      ("half a pair", {|{"kind":"scripted","fd_names":[{"fd":"R: a -> c"}]}|});
      ("unknown object", {|{"kind":"psychic"}|});
      ("a number", "0.5");
    ]

(* a v3 document with a "domains" member still decodes: the member is
   ignored, the document decodes equal to the one without it, and
   re-encoding drops it *)
let test_golden_v3_domains () =
  let with_domains = of_string_exn golden_v3_domains in
  Alcotest.(check bool) "\"domains\" ignored" true
    (with_domains = of_string_exn golden_v3);
  Alcotest.(check string) "re-encodes without \"domains\"" golden_v4
    (Job_spec.to_string with_domains)

(* a v2 document still decodes, flow off, and re-encoding writes v4 *)
let test_golden_v2 () =
  let spec = of_string_exn golden_v2 in
  Alcotest.(check bool) "v2 decodes flow-off" false spec.Job_spec.flow;
  Alcotest.(check string) "v2 re-encodes as v4" golden_v4_flow_off
    (Job_spec.to_string spec)

(* a v1 document still decodes: its check, cache and domains are
   ignored, everything else survives, and re-encoding writes v4 *)
let test_golden_v1 () =
  Alcotest.(check string) "v1 decodes and re-encodes as v4"
    golden_v4_flow_off
    (Job_spec.to_string (of_string_exn golden_v1));
  let minimal =
    of_string_exn
      {|{"version":1,"ddl":"","workload":{"kind":"programs","texts":[]},"engine":{"check":"partition","cache":false}}|}
  in
  Alcotest.(check bool) "v1 check/cache decode to the default engine" true
    (minimal.Job_spec.engine = Engine.default)

let test_roundtrip () =
  let spec = golden_spec () in
  let reparsed = of_string_exn (Job_spec.to_string spec) in
  (* re-serialization is the structural-equality oracle: sources carry
     closures-free constructors, so byte equality means field equality *)
  Alcotest.(check string) "fixpoint" (Job_spec.to_string spec)
    (Job_spec.to_string reparsed);
  Alcotest.(check (option string)) "label" spec.Job_spec.label
    reparsed.Job_spec.label;
  Alcotest.(check bool) "lenient" spec.Job_spec.lenient
    reparsed.Job_spec.lenient;
  Alcotest.(check bool) "flow" spec.Job_spec.flow reparsed.Job_spec.flow;
  Alcotest.(check bool) "engine" true
    (spec.Job_spec.engine = reparsed.Job_spec.engine);
  Alcotest.(check bool) "workload" true
    (spec.Job_spec.workload = reparsed.Job_spec.workload)

let test_defaults_roundtrip () =
  let spec = Job_spec.make ~ddl:"CREATE TABLE R (a INT);" (Job_spec.Programs []) in
  let reparsed = of_string_exn (Job_spec.to_string spec) in
  Alcotest.(check string) "fixpoint" (Job_spec.to_string spec)
    (Job_spec.to_string reparsed);
  Alcotest.(check bool) "default engine survives" true
    (reparsed.Job_spec.engine = Engine.default)

let test_in_memory_travels_as_csv () =
  let rel =
    Relation.make
      ~domains:[ ("a", Domain.Int); ("b", Domain.String) ]
      "R" [ "a"; "b" ]
  in
  let table =
    match Csv.load rel "a,b\n1,x\n2,y\n" with
    | Ok (t, _) -> t
    | Error e -> Alcotest.fail (Error.to_string e)
  in
  let spec =
    Job_spec.make ~sources:[ ("R", Source.in_memory table) ]
      ~ddl:"CREATE TABLE R (a INT, b VARCHAR(4));" (Job_spec.Programs [])
  in
  let reparsed = of_string_exn (Job_spec.to_string spec) in
  match reparsed.Job_spec.sources with
  | [ ("R", Source.Csv_inline text) ] ->
      let reloaded =
        match Csv.load rel text with
        | Ok (t, _) -> t
        | Error e -> Alcotest.fail (Error.to_string e)
      in
      Alcotest.(check string) "identical extension after the round trip"
        (Csv.dump_table table) (Csv.dump_table reloaded)
  | _ -> Alcotest.fail "in-memory source did not become csv-inline"

let test_validation () =
  let bad version_line =
    match Job_spec.of_string version_line with
    | Ok _ -> Alcotest.failf "accepted %s" version_line
    | Error e -> e
  in
  Alcotest.(check bool) "future version refused" true
    (bad {|{"version":99,"ddl":"","workload":{"kind":"programs","texts":[]}}|}
     <> "");
  Alcotest.(check bool) "missing version refused" true
    (bad {|{"ddl":"","workload":{"kind":"programs","texts":[]}}|} <> "");
  Alcotest.(check bool) "resume without checkpoint_dir refused" true
    (bad
       {|{"version":1,"ddl":"","workload":{"kind":"programs","texts":[]},"resume":true}|}
     <> "");
  Alcotest.(check bool) "unknown workload kind refused" true
    (bad {|{"version":1,"ddl":"","workload":{"kind":"voodoo"}}|} <> "");
  Alcotest.(check bool) "unknown source kind refused" true
    (bad
       {|{"version":1,"ddl":"","sources":[{"relation":"R","kind":"carrier-pigeon"}],"workload":{"kind":"programs","texts":[]}}|}
     <> "")

let test_oracle_spec_strings () =
  List.iter
    (fun (s, (mode : Dbre.Oracle.mode)) ->
      Alcotest.(check bool) (s ^ " parses") true
        (Job_spec.oracle_of_string s = Ok mode);
      Alcotest.(check string) (s ^ " prints") (Printf.sprintf "%S" s)
        (Json.to_string (Job_spec.oracle_to_json mode)))
    [
      ("auto", Auto);
      ("skeptical", Skeptical);
      ("threshold:0.75", Threshold 0.75);
      ("interactive", Interactive);
    ];
  Alcotest.(check bool) "junk refused" true
    (Result.is_error (Job_spec.oracle_of_string "psychic"));
  (* a ratio %g would round to six digits travels exactly *)
  let spec =
    Job_spec.make ~oracle:(Threshold 0.123456789) ~ddl:"" (Job_spec.Programs [])
  in
  Alcotest.(check bool) "threshold round-trips exactly" true
    ((of_string_exn (Job_spec.to_string spec)).Job_spec.oracle
    = Threshold 0.123456789)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write path contents =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc contents)

let test_of_args () =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "dbre_of_args" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ddl_path = Filename.concat dir "schema.sql" in
  write ddl_path
    "CREATE TABLE S (a INT, PRIMARY KEY (a));\n\
     CREATE TABLE R (a INT, b VARCHAR(4), PRIMARY KEY (a));\n";
  let data = Filename.concat dir "data" in
  Unix.mkdir data 0o755;
  write (Filename.concat data "R.csv") "a,b\n1,x\n";
  (* no S.csv: S runs with an empty extension; stray files are ignored *)
  write (Filename.concat data "Unrelated.txt") "noise";
  let programs = Filename.concat dir "programs" in
  Unix.mkdir programs 0o755;
  write (Filename.concat programs "b.sql") "SELECT a FROM R";
  write (Filename.concat programs "a.sql") "SELECT a FROM S";
  let spec =
    match
      Job_spec.of_args ~label:"cli" ~ddl:ddl_path ~data_dir:data
        ~programs_dir:programs ~flow:true ~oracle:"skeptical"
        ~deadline:1.5 ~max_heap_mb:64 ~on_exhausted:"fail" ~lenient:true ()
    with
    | Ok spec -> spec
    | Error e -> Alcotest.fail e
  in
  (* sources follow schema declaration order, one per CSV present *)
  (match spec.Job_spec.sources with
  | [ ("R", Source.Csv_file path) ]
    when Filename.basename path = "R.csv" ->
      ()
  | _ -> Alcotest.fail "expected exactly R's csv-file source");
  (* programs are read in name order *)
  (match spec.Job_spec.workload with
  | Job_spec.Programs [ p1; p2 ] ->
      Alcotest.(check string) "a.sql first" "SELECT a FROM S" p1;
      Alcotest.(check string) "b.sql second" "SELECT a FROM R" p2
  | _ -> Alcotest.fail "expected two programs");
  Alcotest.(check bool) "oracle folded" true
    (spec.Job_spec.oracle = Skeptical);
  Alcotest.(check bool) "flow folded" true spec.Job_spec.flow;
  let b = spec.Job_spec.engine.Engine.budget in
  Alcotest.(check (option (float 0.0))) "deadline folded" (Some 1.5)
    b.Engine.deadline_s;
  Alcotest.(check (option int)) "heap cap folded into words"
    (Some (64 * 1024 * 1024 / (Sys.word_size / 8)))
    b.Engine.max_heap_words;
  Alcotest.(check bool) "fail policy folded" true
    (b.Engine.on_exhausted = `Fail);
  (* the spec is self-contained: serializing it embeds the DDL text and
     keeps the CSV as a path *)
  let reparsed = of_string_exn (Job_spec.to_string spec) in
  Alcotest.(check bool) "ddl text embedded" true
    (reparsed.Job_spec.ddl = spec.Job_spec.ddl
    && String.length spec.Job_spec.ddl > 0)

let test_of_args_errors () =
  let check_err name r =
    match r with
    | Ok _ -> Alcotest.failf "%s accepted" name
    | Error (_ : string) -> ()
  in
  check_err "missing ddl file"
    (Job_spec.of_args ~ddl:"/nonexistent/schema.sql" ());
  let ddl_path = Filename.temp_file "dbre_args" ".sql" in
  write ddl_path "CREATE TABLE R (a INT);";
  Fun.protect ~finally:(fun () -> Sys.remove ddl_path) @@ fun () ->
  check_err "unknown oracle" (Job_spec.of_args ~ddl:ddl_path ~oracle:"psychic" ());
  check_err "unknown policy"
    (Job_spec.of_args ~ddl:ddl_path ~on_exhausted:"shrug" ());
  check_err "resume without checkpoint dir"
    (Job_spec.of_args ~ddl:ddl_path ~resume:true ())

let test_supervisor_is_cancellable () =
  (* even a spec with no budget at all gets a created (cancellable)
     token: the daemon's cancel depends on it *)
  let spec = Job_spec.make ~ddl:"CREATE TABLE R (a INT);" (Job_spec.Programs []) in
  let s = Job_spec.supervisor spec in
  Alcotest.(check bool) "fresh token untripped" true
    (Supervise.tripped s = None);
  Supervise.cancel s;
  Alcotest.(check bool) "cancel trips it" true (Supervise.tripped s <> None)

(* whatever a damaged v4 document holds, scripted expert or not,
   decoding answers Ok or Error *)
let prop_of_string_total =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:3000 ~name:"mutated v4 specs decode to Ok or Error"
       (QCheck.make ~print:(Printf.sprintf "%S")
          QCheck.Gen.(
            oneofl [ golden_v4; Job_spec.to_string (scripted_spec ()) ]
            >>= Helpers.gen_mutated
                  ~tokens:[ "{"; "}"; "["; "]"; ":"; ","; {|"|}; "\\"; "\\u"; "null"; "true"; "-1";
                            "1e999"; {|"version"|}; {|"ddl"|}; {|"kind"|}; "0";
                            {|"decision"|}; {|"conceptualize"|}; {|"scripted"|} ]))
       (fun text ->
         match Job_spec.of_string text with Ok _ | Error _ -> true))

let suite =
  [
    Alcotest.test_case "golden v4 JSON" `Quick test_golden;
    Alcotest.test_case "golden v3 JSON still decodes" `Quick test_golden_v3;
    Alcotest.test_case "golden scripted oracle" `Quick test_golden_scripted;
    Alcotest.test_case "golden v3 JSON with domains still decodes" `Quick
      test_golden_v3_domains;
    Alcotest.test_case "golden v2 JSON still decodes" `Quick test_golden_v2;
    Alcotest.test_case "golden v1 JSON still decodes" `Quick test_golden_v1;
    Alcotest.test_case "round-trip" `Quick test_roundtrip;
    Alcotest.test_case "defaults round-trip" `Quick test_defaults_roundtrip;
    Alcotest.test_case "in-memory travels as csv-inline" `Quick
      test_in_memory_travels_as_csv;
    Alcotest.test_case "validation" `Quick test_validation;
    Alcotest.test_case "oracle spec grammar" `Quick test_oracle_spec_strings;
    Alcotest.test_case "of_args folds the CLI flags" `Quick test_of_args;
    Alcotest.test_case "of_args errors" `Quick test_of_args_errors;
    Alcotest.test_case "supervisor is always cancellable" `Quick
      test_supervisor_is_cancellable;
    prop_of_string_total;
  ]
