open Relational
open Sqlx

type edge = { join : Equijoin.t; count : int }

type t = { edge_list : edge list }

let of_equijoins counted =
  let edge_list =
    List.map (fun (join, count) -> { join; count }) counted
    |> List.sort (fun a b ->
           match Int.compare b.count a.count with
           | 0 -> Equijoin.compare a.join b.join
           | c -> c)
  in
  { edge_list }

let of_corpus schema scripts = of_equijoins (Equijoin.of_corpus schema scripts)

let relations t =
  List.concat_map
    (fun e -> [ e.join.Equijoin.rel1; e.join.Equijoin.rel2 ])
    t.edge_list
  |> List.sort_uniq String.compare

let edges t = t.edge_list

let neighbors t rel =
  let tally = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let r1 = e.join.Equijoin.rel1 and r2 = e.join.Equijoin.rel2 in
      let bump other =
        Hashtbl.replace tally other
          (e.count + Option.value ~default:0 (Hashtbl.find_opt tally other))
      in
      if String.equal r1 rel then bump r2
      else if String.equal r2 rel then bump r1)
    t.edge_list;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tally []
  |> List.sort (fun (a, ca) (b, cb) ->
         match Int.compare cb ca with 0 -> String.compare a b | c -> c)

let degree t rel =
  List.fold_left
    (fun acc e ->
      if
        String.equal e.join.Equijoin.rel1 rel
        || String.equal e.join.Equijoin.rel2 rel
      then acc + e.count
      else acc)
    0 t.edge_list

let components t =
  let nodes = relations t in
  let parent = Hashtbl.create 16 in
  List.iter (fun n -> Hashtbl.replace parent n n) nodes;
  let rec find n =
    let p = Hashtbl.find parent n in
    if String.equal p n then n
    else begin
      let root = find p in
      Hashtbl.replace parent n root;
      root
    end
  in
  let union a b =
    let ra = find a and rb = find b in
    if not (String.equal ra rb) then Hashtbl.replace parent ra rb
  in
  List.iter
    (fun e -> union e.join.Equijoin.rel1 e.join.Equijoin.rel2)
    t.edge_list;
  let groups = Hashtbl.create 16 in
  List.iter
    (fun n ->
      let root = find n in
      Hashtbl.replace groups root
        (n :: Option.value ~default:[] (Hashtbl.find_opt groups root)))
    nodes;
  Hashtbl.fold (fun _ members acc -> List.sort String.compare members :: acc)
    groups []
  |> List.sort (fun a b ->
         match Int.compare (List.length b) (List.length a) with
         | 0 -> compare a b
         | c -> c)

let never_navigated t schema =
  let navigated = relations t in
  List.filter_map
    (fun r ->
      let name = r.Relation.name in
      if List.mem name navigated then None else Some name)
    (Schema.relations schema)

let pp ppf t =
  Format.fprintf ppf "@[<v>navigation edges:@ ";
  List.iter
    (fun e ->
      Format.fprintf ppf "  %dx %s@ " e.count (Equijoin.to_string e.join))
    t.edge_list;
  Format.fprintf ppf "components:@ ";
  List.iter
    (fun c -> Format.fprintf ppf "  {%s}@ " (String.concat ", " c))
    (components t);
  Format.fprintf ppf "@]"
