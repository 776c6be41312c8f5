type ext = ..

(* Backing storage: either the classic reversed insertion list, or a
   thunk that produces the whole row array on first demand (columnar
   loads keep tuples virtual until someone actually asks for rows). *)
type source = Rows of Tuple.t list | Deferred of (unit -> Tuple.t array)

type delta =
  | Rows_appended of Tuple.t array
  | Rows_deleted of int array * Tuple.t array

type t = {
  schema : Relation.t;
  mutable source : source;
  mutable size : int;
  mutable cache : Tuple.t array option;
  mutable version : int;
  mutable ext : ext option;
  (* the mutation log: one entry per version bump, newest first, each
     stamped with the version it produced. [log_base] is the oldest
     version replay can start from — entries older than it have been
     trimmed. *)
  mutable log : (int * delta) list;
  mutable log_rows : int;  (* total tuples across logged entries *)
  mutable log_base : int;
}

let create schema =
  { schema; source = Rows []; size = 0; cache = None; version = 0; ext = None;
    log = []; log_rows = 0; log_base = 0 }

let create_deferred schema ~size produce =
  if size < 0 then invalid_arg "Table.create_deferred: negative size";
  { schema; source = Deferred produce; size; cache = None; version = 0;
    ext = None; log = []; log_rows = 0; log_base = 0 }

let schema t = t.schema
let cardinality t = t.size
let version t = t.version
let ext_cache t = t.ext
let set_ext_cache t e = t.ext <- Some e
let clear_ext_cache t = t.ext <- None

(* ------------------------------------------------------------------ *)
(* mutation log                                                        *)
(* ------------------------------------------------------------------ *)

let delta_rows = function
  | Rows_appended tups -> Array.length tups
  | Rows_deleted (idxs, _) -> Array.length idxs

(* Trimming bounds the log's memory at roughly one extra copy of the
   extension: once the logged tuples exceed max(cardinality, 1024),
   oldest entries are dropped (replaying from before them becomes
   impossible and consumers fall back to a rebuild, which a delta that
   large would trigger anyway). *)
let log_push t d =
  t.log <- (t.version, d) :: t.log;
  t.log_rows <- t.log_rows + delta_rows d;
  let cap = max t.size 1024 in
  if t.log_rows > cap then begin
    (* walk newest-to-oldest, keeping entries while under the cap (at
       least one); [log_base] becomes the version of the newest
       dropped entry *)
    let rec keep rows = function
      | [] -> []
      | (v, d) :: rest ->
          let r = delta_rows d in
          if rows > 0 && rows + r > cap then begin
            t.log_base <- v;
            t.log_rows <- rows;
            []
          end
          else (v, d) :: keep (rows + r) rest
    in
    t.log <- keep 0 t.log
  end

let deltas_since t v =
  if v = t.version then Some []
  else if v < t.log_base || v > t.version then None
  else begin
    (* entries carry consecutive versions log_base+1 .. version, newest
       first; collecting while newer than [v] yields oldest-first *)
    let rec collect acc = function
      | (ver, d) :: rest when ver > v -> collect (d :: acc) rest
      | _ -> acc
    in
    Some (collect [] t.log)
  end

let materialized t =
  t.cache <> None
  || (match t.source with Rows _ -> true | Deferred _ -> false)

let rows t =
  match t.cache with
  | Some a -> a
  | None -> (
      match t.source with
      | Rows rev ->
          let a = Array.make t.size [||] in
          let rec fill i = function
            | [] -> ()
            | r :: rest ->
                a.(i) <- r;
                fill (i - 1) rest
          in
          fill (t.size - 1) rev;
          t.cache <- Some a;
          a
      | Deferred produce ->
          let a = produce () in
          if Array.length a <> t.size then
            invalid_arg
              (Printf.sprintf
                 "Table(%s): deferred backing produced %d rows, expected %d"
                 t.schema.Relation.name (Array.length a) t.size);
          t.cache <- Some a;
          a)

let check_arity t tup =
  if Array.length tup <> Relation.arity t.schema then
    invalid_arg
      (Printf.sprintf "Table.insert(%s): arity mismatch (%d, expected %d)"
         t.schema.Relation.name (Array.length tup)
         (Relation.arity t.schema))

(* the reversed backing list, materializing a deferred table (which
   becomes list-backed on its first mutation) *)
let backing_rev t =
  match t.source with
  | Rows rev -> rev
  | Deferred _ -> Array.fold_left (fun acc r -> r :: acc) [] (rows t)

let insert_tuple t tup =
  check_arity t tup;
  let prev = backing_rev t in
  t.source <- Rows (tup :: prev);
  t.size <- t.size + 1;
  t.cache <- None;
  t.version <- t.version + 1;
  log_push t (Rows_appended [| tup |])

let insert t values = insert_tuple t (Tuple.of_list values)

(* One transactional append: every arity is validated before anything
   is touched, and the whole batch lands under a single version bump
   and a single delta-log entry. *)
let insert_many t values =
  match values with
  | [] -> ()
  | _ ->
      let tups = Array.of_list (List.map Tuple.of_list values) in
      Array.iter (check_arity t) tups;
      let prev = ref (backing_rev t) in
      Array.iter (fun tup -> prev := tup :: !prev) tups;
      t.source <- Rows !prev;
      t.size <- t.size + Array.length tups;
      t.cache <- None;
      t.version <- t.version + 1;
      log_push t (Rows_appended tups)

let delete_rows t idxs =
  match idxs with
  | [] -> ()
  | _ ->
      let n = t.size in
      List.iter
        (fun i ->
          if i < 0 || i >= n then
            invalid_arg
              (Printf.sprintf
                 "Table.delete_rows(%s): index %d out of bounds (size %d)"
                 t.schema.Relation.name i n))
        idxs;
      let idxs = Array.of_list (List.sort_uniq Int.compare idxs) in
      let all = rows t in
      let removed = Array.map (fun i -> all.(i)) idxs in
      let k = Array.length idxs in
      let kept = Array.make (n - k) [||] in
      let j = ref 0 and d = ref 0 in
      for i = 0 to n - 1 do
        if !d < k && idxs.(!d) = i then incr d
        else begin
          kept.(!j) <- all.(i);
          incr j
        end
      done;
      t.source <- Deferred (fun () -> kept);
      t.cache <- Some kept;
      t.size <- n - k;
      t.version <- t.version + 1;
      log_push t (Rows_deleted (idxs, removed))

let with_schema t schema =
  if schema.Relation.attrs <> t.schema.Relation.attrs then
    invalid_arg
      (Printf.sprintf "Table.with_schema(%s): attribute lists differ"
         t.schema.Relation.name);
  { t with schema }

let to_lists t = Array.to_list (Array.map Tuple.to_list (rows t))

let positions t attrs =
  let pos a =
    try Relation.attr_index t.schema a
    with Not_found ->
      invalid_arg
        (Printf.sprintf "Table(%s): unknown attribute %s"
           t.schema.Relation.name a)
  in
  Array.of_list (List.map pos attrs)

let value t tup a = tup.(Relation.attr_index t.schema a)

let distinct_table t attrs =
  let idx = positions t attrs in
  let seen = Hashtbl.create (max 16 (cardinality t)) in
  Array.iter
    (fun tup ->
      if not (Tuple.has_null_at idx tup) then
        let key = Tuple.project_list idx tup in
        if not (Hashtbl.mem seen key) then Hashtbl.add seen key ())
    (rows t);
  seen

let project_distinct t attrs =
  let seen = distinct_table t attrs in
  Hashtbl.fold (fun k () acc -> k :: acc) seen []

let count_distinct t attrs = Hashtbl.length (distinct_table t attrs)

let group_rows t attrs =
  let idx = positions t attrs in
  let groups = Hashtbl.create (max 16 (cardinality t)) in
  Array.iteri
    (fun i tup ->
      let key = Tuple.project_list idx tup in
      let prev = try Hashtbl.find groups key with Not_found -> [] in
      Hashtbl.replace groups key (i :: prev))
    (rows t);
  groups

let select t pred =
  Array.fold_right (fun tup acc -> if pred tup then tup :: acc else acc)
    (rows t) []

let check_unique t attrs =
  let idx = positions t attrs in
  let seen = Hashtbl.create (max 16 (cardinality t)) in
  let ok = ref true in
  Array.iter
    (fun tup ->
      if !ok && not (Tuple.has_null_at idx tup) then begin
        let key = Tuple.project_list idx tup in
        if Hashtbl.mem seen key then ok := false
        else Hashtbl.add seen key ()
      end)
    (rows t);
  !ok

let check_not_null t attr =
  let i = Relation.attr_index t.schema attr in
  Array.for_all (fun tup -> not (Value.is_null tup.(i))) (rows t)

let check_constraints t =
  let name = t.schema.Relation.name in
  let errors = ref [] in
  List.iter
    (fun u ->
      if not (check_unique t u) then
        errors :=
          Printf.sprintf "%s: unique(%s) violated" name
            (Attribute.Names.to_string u)
          :: !errors)
    t.schema.Relation.uniques;
  List.iter
    (fun a ->
      if not (check_not_null t a) then
        errors := Printf.sprintf "%s: not null(%s) violated" name a :: !errors)
    (Relation.not_null_attrs t.schema);
  match !errors with [] -> Ok () | errs -> Error (List.rev errs)

let pp ?(max_rows = 20) ppf t =
  Format.fprintf ppf "@[<v>%a@ " Relation.pp t.schema;
  let all = rows t in
  let n = Array.length all in
  let shown = min n max_rows in
  for i = 0 to shown - 1 do
    Format.fprintf ppf "%a@ " Tuple.pp all.(i)
  done;
  if n > shown then Format.fprintf ppf "... (%d more rows)@ " (n - shown);
  Format.fprintf ppf "@]"
