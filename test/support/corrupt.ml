open Relational
open Workload

let rebuild db rel rows =
  let table = Database.table db rel in
  let fresh = Table.create (Table.schema table) in
  List.iter (Table.insert_tuple fresh) rows;
  Database.replace_table db fresh

let break_ind rng db ~rel ~attr ~rate =
  let table = Database.table db rel in
  let i = Relation.attr_index (Table.schema table) attr in
  let corrupted = ref 0 in
  let rows =
    Array.to_list
      (Array.map
         (fun tup ->
           if (not (Value.is_null tup.(i))) && Rng.chance rng rate then begin
             incr corrupted;
             let tup = Array.copy tup in
             (tup.(i) <-
               (match tup.(i) with
               | Value.Int _ -> Value.Int (-(1 + !corrupted))
               | _ -> Value.String (Printf.sprintf "@corrupt-%d" !corrupted)));
             tup
           end
           else tup)
         (Table.rows table))
  in
  rebuild db rel rows;
  !corrupted

let break_fd rng db ~rel ~lhs ~rhs ~rate =
  let table = Database.table db rel in
  let ri = Relation.attr_index (Table.schema table) rhs in
  (* row indices grouped by LHS projection, NULL as an ordinary value *)
  let lidx = Table.positions table lhs in
  (* a fresh decode, so the rows are ours to scramble *)
  let rows = Table.rows table in
  let groups = Hashtbl.create (max 16 (Array.length rows)) in
  Array.iteri
    (fun i tup ->
      let key = Tuple.project_list lidx tup in
      let prev = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (i :: prev))
    rows;
  let touched = ref 0 in
  Hashtbl.iter
    (fun key members ->
      if (not (List.exists Value.is_null key)) && List.length members >= 2 then
        List.iter
          (fun idx ->
            if Rng.chance rng rate then begin
              incr touched;
              rows.(idx).(ri) <-
                Value.String (Printf.sprintf "@scrambled-%d" !touched)
            end)
          members)
    groups;
  rebuild db rel (Array.to_list rows);
  !touched

let delete_rows rng db ~rel ~rate =
  let table = Database.table db rel in
  let dropped = ref 0 in
  let rows =
    List.filter
      (fun _ ->
        if Rng.chance rng rate then begin
          incr dropped;
          false
        end
        else true)
      (Array.to_list (Table.rows table))
  in
  rebuild db rel rows;
  !dropped
