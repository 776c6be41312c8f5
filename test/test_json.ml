(* The JSON string codec copies clean runs whole; it must print the same
   bytes, accept the same documents and reject the same ones as the
   byte-at-a-time reference ([Reference.Json]), and never raise anything
   but [Json.Parse_error]. *)

open Relational

let quoted s = "\"" ^ s ^ "\""

(* ------------------------------------------------------------------ *)
(* Goldens                                                             *)
(* ------------------------------------------------------------------ *)

let test_print_goldens () =
  let check input expected =
    Alcotest.(check string)
      (Printf.sprintf "print %S" input)
      (quoted expected)
      (Json.to_string (Json.String input))
  in
  check "" "";
  check "plain text" "plain text";
  check "\"" "\\\"";
  check "\\" "\\\\";
  check "/" "/";
  check "\b" "\\u0008";
  check "\012" "\\u000c";
  check "\n" "\\n";
  check "\r" "\\r";
  check "\t" "\\t";
  check "a\"b\\c\nd" "a\\\"b\\\\c\\nd";
  check "\000\031\127" "\\u0000\\u001f\127";
  for c = 0 to 31 do
    let expected =
      match Char.chr c with
      | '\n' -> "\\n"
      | '\r' -> "\\r"
      | '\t' -> "\\t"
      | _ -> Printf.sprintf "\\u%04x" c
    in
    check (String.make 1 (Char.chr c)) expected
  done;
  (* bytes >= 0x80 pass through untouched *)
  for c = 128 to 255 do
    let s = String.make 1 (Char.chr c) in
    check s s
  done;
  Alcotest.(check string) "object keys are escaped too" "{\"k\\\"\\n\":1}"
    (Json.to_string (Json.Obj [ ("k\"\n", Json.Int 1) ]))

let test_parse_goldens () =
  let check doc expected =
    Alcotest.(check string)
      (Printf.sprintf "parse %S" doc)
      expected
      (match Json.of_string doc with
      | Json.String s -> s
      | _ -> Alcotest.failf "%S is not a string" doc)
  in
  check {|""|} "";
  check {|"plain"|} "plain";
  check {|"\""|} "\"";
  check {|"\\"|} "\\";
  check {|"\/"|} "/";
  check {|"\b"|} "\b";
  check {|"\f"|} "\012";
  check {|"\n"|} "\n";
  check {|"\r"|} "\r";
  check {|"\t"|} "\t";
  check {|"\u00e9"|} "\xc3\xa9";
  check {|"\u00E9"|} "\xc3\xa9";
  check {|"\u0041"|} "A";
  check {|"\u20ac"|} "\xe2\x82\xac";
  (* a lone surrogate is encoded as its own three bytes, unpaired *)
  check {|"\ud800"|} "\xed\xa0\x80";
  check {|"run\nrun\\run"|} "run\nrun\\run";
  (* raw control and high bytes are accepted inside strings as is *)
  for c = 0 to 255 do
    if c <> Char.code '"' && c <> Char.code '\\' then
      let s = String.make 1 (Char.chr c) in
      check (quoted s) s
  done;
  let rejects doc =
    match Json.of_string doc with
    | _ -> Alcotest.failf "%S was accepted" doc
    | exception Json.Parse_error _ -> ()
  in
  List.iter rejects
    [ {|"|}; {|"abc|}; {|"\|}; {|"\q"|}; {|"\u12"|}; {|"\u12|}; {|"\uzzzz"|};
      {|"a\"|}; {|{"a|}; {|["a\|} ]

(* ------------------------------------------------------------------ *)
(* Properties against the reference                                    *)
(* ------------------------------------------------------------------ *)

(* characters drawn mostly from what the codec treats specially *)
let gen_char =
  QCheck.Gen.(
    frequency
      [
        (3, oneofl [ '"'; '\\'; '/' ]);
        (3, map Char.chr (int_range 0 31));
        (2, map Char.chr (int_range 128 255));
        (2, printable);
      ])

let gen_text = QCheck.Gen.(string_size ~gen:gen_char (int_range 0 24))

let outcome parse doc =
  match parse doc with
  | v -> Ok v
  | exception Json.Parse_error msg -> Error msg

let prop_strings =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:500 ~name:"strings print like the reference"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_text)
       (fun s ->
         let v = Json.Obj [ (s, Json.String s) ] in
         let printed = Json.to_string v in
         printed = Reference.Json.to_string v && Json.of_string printed = v))

let gen_value =
  QCheck.Gen.(
    sized_size (int_range 0 3)
    @@ fix (fun self n ->
           let scalar =
             frequency
               [
                 (4, map (fun s -> Json.String s) gen_text);
                 (1, map (fun i -> Json.Int i) small_signed_int);
                 (1, return Json.Null);
                 (1, map (fun b -> Json.Bool b) bool);
                 (1, map (fun f -> Json.Float f) (float_range (-1e6) 1e6));
               ]
           in
           if n = 0 then scalar
           else
             frequency
               [
                 (2, scalar);
                 (1, map (fun l -> Json.List l) (list_size (int_range 0 4) (self (n - 1))));
                 ( 1,
                   map
                     (fun l -> Json.Obj l)
                     (list_size (int_range 0 4) (pair gen_text (self (n - 1)))) );
               ]))

(* damage a printed document the ways a broken peer or a bad escape
   would: truncate it, splice a fragment in, or drop a byte *)
let gen_damaged =
  QCheck.Gen.(
    let* doc = map Reference.Json.to_string gen_value in
    let n = String.length doc in
    let* at = int_range 0 n in
    let* fragment =
      oneofl
        [ "\\"; "\\q"; "\\u"; "\\u12"; "\\uzz"; "\""; "["; "{"; ":"; ","; "]";
          "}"; " "; "\000"; "\\u00e9"; "tru"; "-"; "1e" ]
    in
    frequency
      [
        (1, return doc);
        (2, return (String.sub doc 0 at));
        ( 3,
          return
            (String.sub doc 0 at ^ fragment ^ String.sub doc at (n - at)) );
        ( 2,
          return
            (if at < n then String.sub doc 0 at ^ String.sub doc (at + 1) (n - at - 1)
             else doc) );
      ])

let prop_documents =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:1000
       ~name:"documents parse like the reference, or both refuse"
       (QCheck.make ~print:(Printf.sprintf "%S") gen_damaged)
       (fun doc ->
         outcome Json.of_string doc = outcome Reference.Json.of_string doc))

let test_corrupted_documents () =
  let deep = String.make 1_000_000 '[' in
  List.iter
    (fun doc ->
      let label =
        if String.length doc > 40 then String.sub doc 0 40 ^ "..." else doc
      in
      match (outcome Json.of_string doc, outcome Reference.Json.of_string doc) with
      | Error a, Error b ->
          Alcotest.(check string) (Printf.sprintf "%S: same error" label) b a
      | Ok _, _ | _, Ok _ -> Alcotest.failf "%S was accepted" label)
    [ {|"\u12|}; {|"\u|}; {|"\|}; {|"\q"|}; {|"abc|}; {|{"k":"v|}; {|["a\n|};
      {|"\ud8|}; deep ]

(* nesting is capped: the cap itself parses, one level more is
   refused by the library and the reference alike *)
let test_nesting_cap () =
  let nested n = String.make n '[' ^ String.make n ']' in
  Alcotest.(check bool) "max_depth levels parse" true
    (Json.of_string_opt (nested Json.max_depth) <> None);
  let deeper = nested (Json.max_depth + 1) in
  match (outcome Json.of_string deeper, outcome Reference.Json.of_string deeper) with
  | Error a, Error b ->
      Alcotest.(check string) "same error" b a;
      Alcotest.(check string) "the cap names itself"
        (Printf.sprintf "nesting deeper than %d at offset %d" Json.max_depth Json.max_depth)
        a
  | _ -> Alcotest.fail "one level past the cap was accepted"

let suite =
  [
    Alcotest.test_case "nesting is capped" `Quick test_nesting_cap;
    Alcotest.test_case "printer goldens for every escape" `Quick
      test_print_goldens;
    Alcotest.test_case "parser goldens for every escape" `Quick
      test_parse_goldens;
    Alcotest.test_case "corrupted documents fail like the reference" `Quick
      test_corrupted_documents;
    prop_strings;
    prop_documents;
  ]
