open Helpers
open Deps
open Support

let abc = [ "a"; "b"; "c" ]

let test_closed_sets () =
  let fds = [ fd "R" [ "a" ] [ "b" ] ] in
  let closed = Armstrong.closed_sets fds ~attrs:abc in
  (* closures: {} -> {}, {a} -> {a,b}, {b} -> {b}, {c} -> {c},
     {a,b} -> {a,b}, {a,c} -> abc, {b,c} -> {b,c}, abc -> abc *)
  Alcotest.(check (list names)) "closed family"
    [ []; [ "a"; "b" ]; [ "a"; "b"; "c" ]; [ "b" ]; [ "b"; "c" ]; [ "c" ] ]
    closed

let test_witnesses_exactly () =
  let fds = [ fd "R" [ "a" ] [ "b" ]; fd "R" [ "b" ] [ "c" ] ] in
  let t = Armstrong.relation ~rel:"R" fds ~attrs:abc in
  (* implied FDs hold *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (Fd.to_string f ^ " holds") true (Reference.Fd_infer.satisfied_by t f))
    [ fd "R" [ "a" ] [ "b" ]; fd "R" [ "b" ] [ "c" ]; fd "R" [ "a" ] [ "c" ] ];
  (* non-implied FDs fail *)
  List.iter
    (fun f ->
      Alcotest.(check bool) (Fd.to_string f ^ " fails") false (Reference.Fd_infer.satisfied_by t f))
    [ fd "R" [ "b" ] [ "a" ]; fd "R" [ "c" ] [ "a" ]; fd "R" [ "c" ] [ "b" ] ]

let test_no_fds () =
  let t = Armstrong.relation ~rel:"R" [] ~attrs:[ "a"; "b" ] in
  Alcotest.(check bool) "a -> b fails" false
    (Reference.Fd_infer.satisfied_by t (fd "R" [ "a" ] [ "b" ]));
  Alcotest.(check bool) "b -> a fails" false
    (Reference.Fd_infer.satisfied_by t (fd "R" [ "b" ] [ "a" ]))

let test_validation () =
  Alcotest.check_raises "empty attrs"
    (Invalid_argument "Armstrong.relation: empty attribute set") (fun () ->
      ignore (Armstrong.relation ~rel:"R" [] ~attrs:[]))

(* the defining property, checked over random covers *)
let attr_pool = [ "a"; "b"; "c"; "d" ]

let gen_fds =
  QCheck.Gen.(
    let gen_set = map (fun l -> Relational.Attribute.Names.normalize l)
        (list_size (int_range 1 2) (oneofl attr_pool)) in
    let gen_fd =
      let* lhs = gen_set in
      let* rhs = gen_set in
      let rhs = Relational.Attribute.Names.diff rhs lhs in
      return (if rhs = [] then None else Some (Fd.make "R" lhs rhs))
    in
    map (List.filter_map Fun.id) (list_size (int_range 0 4) gen_fd))

let arb =
  QCheck.make
    ~print:(fun (fds, lhs, a) ->
      Printf.sprintf "fds=[%s] test=%s->%s"
        (String.concat "; " (List.map Fd.to_string fds))
        (String.concat "," lhs) a)
    QCheck.Gen.(
      let* fds = gen_fds in
      let* lhs =
        map Relational.Attribute.Names.normalize
          (list_size (int_range 1 2) (oneofl attr_pool))
      in
      let* a = oneofl attr_pool in
      return (fds, lhs, a))

let prop_armstrong =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:200 ~name:"satisfaction = implication"
       arb
       (fun (fds, lhs, a) ->
         QCheck.assume (not (List.mem a lhs));
         let t = Armstrong.relation ~rel:"R" fds ~attrs:attr_pool in
         let f = Fd.make "R" lhs [ a ] in
         Reference.Fd_infer.satisfied_by t f = Closure.implies fds f))

let suite =
  [
    Alcotest.test_case "closed sets" `Quick test_closed_sets;
    Alcotest.test_case "witnesses exactly the cover" `Quick test_witnesses_exactly;
    Alcotest.test_case "no fds" `Quick test_no_fds;
    Alcotest.test_case "validation" `Quick test_validation;
    prop_armstrong;
  ]
