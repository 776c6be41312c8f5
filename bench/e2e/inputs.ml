(* The benchmark's inputs, all derived from the seed. The program only
   ever sees the generated files and specs, never the seed:

   - a [Gen_schema] database written out the way `dbre analyze` reads
     it: schema.sql, one CSV file per relation, one embedded-SQL
     program per planted reference;
   - the refresh workload's mutation batch;
   - the serve workload's job specs (the bundled scenarios, inline). *)

open Relational
module G = Workload.Gen_schema

let write_file path text =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc text)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Sys.mkdir dir 0o755
  end

let ddl_path dir = Filename.concat dir "schema.sql"
let programs_dir dir = Filename.concat dir "programs"
let csv_path dir rel = Filename.concat dir (rel ^ ".csv")

(* [scaled 1.] is 4 entities of 1000 rows and 2 denormalized relations
   of 2000 rows, each with 3 references carrying 2 payload columns *)
let scaled factor = G.scale factor G.default_spec

let generate ~seed spec = G.generate { spec with G.seed = Int64.of_int seed }

let relations db = Schema.relations (Database.schema db)

let ddl_of db =
  String.concat ""
    (List.map (fun rel -> Sqlx.Ddl.create_table_sql rel ^ ";\n") (relations db))

(* [dir]/schema.sql, [dir]/[data]/<relation>.csv, [dir]/programs/ *)
let write_synthetic ~dir ~data (g : G.t) =
  rm_rf dir;
  mkdir_p (programs_dir dir);
  mkdir_p (Filename.concat dir data);
  write_file (ddl_path dir) (ddl_of g.G.db);
  List.iter
    (fun rel ->
      let name = rel.Relation.name in
      write_file
        (csv_path (Filename.concat dir data) name)
        (Csv.dump_table (Database.table g.G.db name)))
    (relations g.G.db);
  List.iteri
    (fun i text ->
      write_file
        (Filename.concat (programs_dir dir) (Printf.sprintf "prog%02d.cob" i))
        text)
    g.G.programs

(* The refresh workload's mutation, per relation: a 1% resample of its
   rows (appended again, so every planted dependency keeps holding)
   and, for each denormalized relation, one row that copies a row with
   a non-NULL first reference under a fresh key but changes that
   reference's first payload: it breaks the planted FD
   ref0 -> payloads, so the append flips a verdict and the delete flips
   it back. *)
let batch ~seed (g : G.t) =
  let rng = Random.State.make [| seed |] in
  List.map
    (fun rel ->
      let name = rel.Relation.name in
      let t = Database.table g.G.db name in
      let rows = Table.rows t in
      let n = Array.length rows in
      let resample =
        List.init (max 1 (n / 100)) (fun _ ->
            Tuple.to_list rows.(Random.State.int rng n))
      in
      let breaking =
        if name.[0] <> 'D' then []
        else
          let j = String.sub name 1 (String.length name - 1) in
          let pos = Table.positions t [ "d" ^ j ^ "_ref0"; "d" ^ j ^ "_ref0_p0" ] in
          match
            Array.find_opt (fun (r : Tuple.t) -> r.(pos.(0)) <> Value.Null) rows
          with
          | None -> []
          | Some r ->
              [
                List.mapi
                  (fun i v ->
                    if i = 0 then Value.Int (n + 1)
                    else if i = pos.(1) then Value.String "fd-break"
                    else v)
                  (Tuple.to_list r);
              ]
      in
      (name, resample @ breaking))
    (relations g.G.db)

(* [dir]/batch/<relation>.csv holds the batch alone, [dir]/[mutated]/
   the base extension followed by the batch: the input of the cold
   reference run a refresh cycle is compared against *)
let write_batch ~dir ~mutated (g : G.t) batch =
  let bdir = Filename.concat dir "batch" and mdir = Filename.concat dir mutated in
  mkdir_p bdir;
  mkdir_p mdir;
  List.iter
    (fun (name, rows) ->
      let base = Database.table g.G.db name in
      let t = Table.create (Table.schema base) in
      Table.insert_many t rows;
      write_file (csv_path bdir name) (Csv.dump_table t);
      write_file (csv_path mdir name)
        (Csv.dump_table base ^ Csv.dump_table ~header:false t))
    batch

let read_batch ~dir db =
  List.filter_map
    (fun rel ->
      let path = csv_path (Filename.concat dir "batch") rel.Relation.name in
      if not (Sys.file_exists path) then None
      else
        match Csv.load rel (read_file path) with
        | Ok (t, _) -> Some (rel.Relation.name, Table.to_lists t)
        | Error e -> failwith (Error.to_string e))
    (relations db)

(* The serve workload's jobs: each bundled scenario as a self-contained
   spec, extension inline as CSV, programs as a [Programs] workload. *)
let serve_specs () =
  List.map
    (fun (sc : Workload.Scenarios.t) ->
      let db = sc.Workload.Scenarios.database () in
      Dbre.Job_spec.make ~label:sc.Workload.Scenarios.name
        ~sources:
          (List.map
             (fun rel ->
               let name = rel.Relation.name in
               (name, Source.csv_inline (Csv.dump_table (Database.table db name))))
             (relations db))
        ~ddl:(ddl_of db)
        (Dbre.Job_spec.Programs sc.Workload.Scenarios.programs))
    Workload.Scenarios.all
