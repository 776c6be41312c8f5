open Relational

type t = { groups : int array array; n_rows : int }

let of_rows ?keep rows idx =
  let grouped = Hashtbl.create (max 16 (Array.length rows)) in
  Array.iteri
    (fun i tup ->
      let kept = match keep with None -> true | Some f -> f tup in
      if kept then begin
        let key = Tuple.project_list idx tup in
        let prev = try Hashtbl.find grouped key with Not_found -> [] in
        Hashtbl.replace grouped key (i :: prev)
      end)
    rows;
  let groups =
    Hashtbl.fold
      (fun _ members acc ->
        match members with
        | [] | [ _ ] -> acc
        | _ -> Array.of_list (List.rev members) :: acc)
      grouped []
  in
  { groups = Array.of_list groups; n_rows = Array.length rows }

let of_table ?keep table attrs = of_rows ?keep (Table.rows table) (Table.positions table attrs)

let num_groups t = Array.length t.groups

let error t =
  Array.fold_left (fun acc g -> acc + Array.length g - 1) 0 t.groups

let rank t = t.n_rows - error t

let product p1 p2 =
  (* probe-table algorithm: label rows by their p1 group, then split each
     p2 group by label *)
  let label = Array.make p1.n_rows (-1) in
  Array.iteri
    (fun gi group -> Array.iter (fun row -> label.(row) <- gi) group)
    p1.groups;
  let out = ref [] in
  let buckets : (int, int list ref) Hashtbl.t = Hashtbl.create 64 in
  Array.iter
    (fun group ->
      Hashtbl.reset buckets;
      Array.iter
        (fun row ->
          let l = label.(row) in
          if l >= 0 then
            match Hashtbl.find_opt buckets l with
            | Some cell -> cell := row :: !cell
            | None -> Hashtbl.add buckets l (ref [ row ]))
        group;
      Hashtbl.iter
        (fun _ cell ->
          match !cell with
          | [] | [ _ ] -> ()
          | members -> out := Array.of_list (List.rev members) :: !out)
        buckets)
    p2.groups;
  { groups = Array.of_list !out; n_rows = p1.n_rows }

let fd_holds ~lhs ~lhs_rhs = error lhs = error lhs_rhs
