open Relational

type t = { rel : string; lhs : string list; rhs : string list }

let make rel lhs rhs =
  let lhs = Attribute.Names.normalize lhs in
  let rhs = Attribute.Names.diff (Attribute.Names.normalize rhs) lhs in
  if lhs = [] then invalid_arg "Fd.make: empty left-hand side";
  if rhs = [] then invalid_arg "Fd.make: empty (or trivial) right-hand side";
  { rel; lhs; rhs }

let compare a b =
  match String.compare a.rel b.rel with
  | 0 -> (
      match Attribute.Names.compare a.lhs b.lhs with
      | 0 -> Attribute.Names.compare a.rhs b.rhs
      | c -> c)
  | c -> c

let equal a b = compare a b = 0
let trivial (_ : t) = false
let split_rhs t = List.map (fun a -> { t with rhs = [ a ] }) t.rhs

let combine fds =
  let tbl = Hashtbl.create 16 in
  let order = ref [] in
  List.iter
    (fun fd ->
      let key = (fd.rel, fd.lhs) in
      match Hashtbl.find_opt tbl key with
      | Some rhs -> Hashtbl.replace tbl key (Attribute.Names.union rhs fd.rhs)
      | None ->
          Hashtbl.add tbl key fd.rhs;
          order := key :: !order)
    fds;
  List.rev_map
    (fun ((rel, lhs) as key) -> { rel; lhs; rhs = Hashtbl.find tbl key })
    !order

let pp ppf t =
  Format.fprintf ppf "%s: %a -> %a" t.rel Attribute.Names.pp t.lhs
    Attribute.Names.pp t.rhs

let to_string t = Format.asprintf "%a" pp t

let parse s =
  let fail () = failwith (Printf.sprintf "Fd.parse: malformed FD %S" s) in
  match String.index_opt s ':' with
  | None -> fail ()
  | Some i -> (
      let rel = String.trim (String.sub s 0 i) in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      match
        let arrow = "->" in
        let rec find j =
          if j + 2 > String.length rest then None
          else if String.sub rest j 2 = arrow then Some j
          else find (j + 1)
        in
        find 0
      with
      | None -> fail ()
      | Some j ->
          let split part =
            String.split_on_char ',' part
            |> List.map String.trim
            |> List.filter (fun x -> x <> "")
          in
          let lhs = split (String.sub rest 0 j) in
          let rhs =
            split (String.sub rest (j + 2) (String.length rest - j - 2))
          in
          if rel = "" || lhs = [] || rhs = [] then fail ()
          else make rel lhs rhs)

module Set = Stdlib.Set.Make (struct
  type nonrec t = t

  let compare = compare
end)
