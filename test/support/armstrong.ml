open Relational
open Deps

let closed_sets fds ~attrs =
  let attrs = Attribute.Names.normalize attrs in
  let arr = Array.of_list attrs in
  let n = Array.length arr in
  let seen = Hashtbl.create 64 in
  for mask = 0 to (1 lsl n) - 1 do
    let x = ref [] in
    for i = 0 to n - 1 do
      if mask land (1 lsl i) <> 0 then x := arr.(i) :: !x
    done;
    let closure = Closure.closure fds (Attribute.Names.normalize !x) in
    (* intersect with attrs: FDs may mention outside attributes *)
    let closure = Attribute.Names.inter closure attrs in
    if not (Hashtbl.mem seen closure) then Hashtbl.add seen closure ()
  done;
  List.sort Attribute.Names.compare (Hashtbl.fold (fun k () acc -> k :: acc) seen [])

let relation ~rel fds ~attrs =
  let attrs = Attribute.Names.normalize attrs in
  if attrs = [] then invalid_arg "Armstrong.relation: empty attribute set";
  if List.length attrs > 16 then
    invalid_arg "Armstrong.relation: too many attributes (max 16)";
  let table = Table.create (Relation.make rel attrs) in
  (* base row of zeroes *)
  Table.insert table (List.map (fun _ -> Value.Int 0) attrs);
  (* one row per proper closed set, agreeing with the base exactly there *)
  let closed = closed_sets fds ~attrs in
  List.iteri
    (fun i c ->
      if not (Attribute.Names.equal c attrs) then
        Table.insert table
          (List.mapi
             (fun j a ->
               if Attribute.Names.mem a c then Value.Int 0
               else Value.Int (((i + 1) * 100) + j + 1))
             attrs))
    closed;
  table
