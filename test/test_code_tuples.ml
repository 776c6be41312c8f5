(* Code_tuples against a Hashtbl of int arrays: random adds over small
   code ranges (so tuples repeat, and components are often the NULL
   code 0), at widths 0, 1 and 3, under the default hash and under
   hashes that force every tuple, or half of them, into one chain. *)

open Relational

let hashes =
  [ ("default", None); ("constant", Some (fun _ -> 42)); ("parity", Some (fun k -> Array.fold_left ( + ) 0 k land 1)) ]

let gen_case =
  QCheck.Gen.(
    let* width = oneofl [ 0; 1; 3 ] in
    let* hash = oneofl hashes in
    let tuple = array_size (return width) (int_range 0 5) in
    let* adds = list_size (int_range 0 300) tuple in
    let* probes = list_size (int_range 0 30) tuple in
    return (width, hash, adds, probes))

let print (width, (name, _), adds, _) =
  Printf.sprintf "width %d, %s hash, %d adds" width name (List.length adds)

let prop_against_hashtbl =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:400 ~name:"ids, find and read agree with a Hashtbl"
       (QCheck.make ~print gen_case)
       (fun (width, (_, hash), adds, probes) ->
         let t = Code_tuples.create ?hash width in
         let model : (int array, int) Hashtbl.t = Hashtbl.create 16 in
         List.iter
           (fun k ->
             let expected =
               match Hashtbl.find_opt model k with
               | Some id -> id
               | None ->
                   let id = Hashtbl.length model in
                   Hashtbl.add model (Array.copy k) id;
                   id
             in
             let id = Code_tuples.add t k in
             if id <> expected then
               QCheck.Test.fail_reportf "add gave id %d, first insertion order %d" id expected;
             if Code_tuples.length t <> Hashtbl.length model then
               QCheck.Test.fail_reportf "length %d, %d distinct tuples" (Code_tuples.length t)
                 (Hashtbl.length model))
           adds;
         Hashtbl.iter
           (fun k id ->
             if Code_tuples.find t k <> id then
               QCheck.Test.fail_reportf "find lost id %d" id;
             let back = Array.make width (-1) in
             Code_tuples.read t id back;
             if back <> k then QCheck.Test.fail_reportf "tuple %d reads back wrong" id)
           model;
         List.iter
           (fun k ->
             let expected = Option.value ~default:(-1) (Hashtbl.find_opt model k) in
             if Code_tuples.find t k <> expected then
               QCheck.Test.fail_reportf "probe found %d, expected %d" (Code_tuples.find t k) expected)
           probes;
         true))

(* ids count up from 0 in insertion order, the order a refresh window
   reads "added since" from; the empty tuple is one tuple *)
let test_dense_ids () =
  let t = Code_tuples.create 2 in
  Alcotest.(check (list int)) "first insertion order" [ 0; 1; 0; 2; 1 ]
    (List.map (Code_tuples.add t) [ [| 0; 0 |]; [| 1; 0 |]; [| 0; 0 |]; [| 0; 1 |]; [| 1; 0 |] ]);
  Alcotest.(check int) "three tuples" 3 (Code_tuples.length t);
  Alcotest.(check int) "absent" (-1) (Code_tuples.find t [| 1; 1 |]);
  let e = Code_tuples.create 0 in
  Alcotest.(check int) "empty tuple absent" (-1) (Code_tuples.find e [||]);
  Alcotest.(check (list int)) "one empty tuple" [ 0; 0 ] [ Code_tuples.add e [||]; Code_tuples.add e [||] ];
  Alcotest.(check int) "width 0 holds one" 1 (Code_tuples.length e)

let suite =
  [ Alcotest.test_case "dense ids" `Quick test_dense_ids; prop_against_hashtbl ]
