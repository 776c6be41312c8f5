open Relational

type csv_fault =
  | Unterminated_quote
  | Extra_field of int
  | Type_mismatch of int
  | Drop_column

type injection = { csv : string; injected : int; fault : csv_fault }

let fault_name = function
  | Unterminated_quote -> "unterminated-quote"
  | Extra_field n -> Printf.sprintf "extra-field(%d)" n
  | Type_mismatch n -> Printf.sprintf "type-mismatch(%d)" n
  | Drop_column -> "drop-column"

(* Distinct data-row indexes to mutate. *)
let sample_rows rng ~n_rows ~wanted =
  let wanted = min wanted n_rows in
  Rng.sample rng wanted (List.init n_rows (fun i -> i))

let typed_columns rel =
  List.filter
    (fun a ->
      match Relation.domain_of rel a with
      | Domain.Bool | Domain.Int | Domain.Float | Domain.Date -> true
      | Domain.String | Domain.Unknown -> false)
    rel.Relation.attrs

let rewrite_rows rows f =
  List.mapi (fun i row -> match f i row with Some r -> r | None -> row) rows

let inject_csv rng rel fault csv =
  let rows = Csv.parse csv in
  match (rows, fault) with
  | [], _ -> { csv; injected = 0; fault }
  | _ :: data, Unterminated_quote ->
      if data = [] then { csv; injected = 0; fault }
      else
        (* textual, not structural: tear the last data row open by
           appending a field whose quote never closes *)
        let body =
          let n = String.length csv in
          if n > 0 && csv.[n - 1] = '\n' then String.sub csv 0 (n - 1) else csv
        in
        { csv = body ^ ",\"@torn\n"; injected = 1; fault }
  | hdr :: data, Extra_field wanted ->
      let hit = sample_rows rng ~n_rows:(List.length data) ~wanted in
      let data =
        rewrite_rows data (fun i row ->
            if List.mem i hit then Some (row @ [ "@extra" ]) else None)
      in
      { csv = Csv.render (hdr :: data); injected = List.length hit; fault }
  | hdr :: data, Type_mismatch wanted -> (
      match typed_columns rel with
      | [] -> { csv; injected = 0; fault }
      | typed ->
          let col_of attr = List.assoc attr (List.mapi (fun i h -> (h, i)) hdr) in
          let hit = sample_rows rng ~n_rows:(List.length data) ~wanted in
          let data =
            rewrite_rows data (fun i row ->
                if not (List.mem i hit) then None
                else
                  let col = col_of (Rng.pick rng typed) in
                  Some
                    (List.mapi
                       (fun j cell -> if j = col then "@corrupt" else cell)
                       row))
          in
          { csv = Csv.render (hdr :: data); injected = List.length hit; fault })
  | hdr :: data, Drop_column ->
      if List.length hdr < 2 then { csv; injected = 0; fault }
      else
        let victim = Rng.int rng (List.length hdr) in
        let strip row = List.filteri (fun j _ -> j <> victim) row in
        {
          csv = Csv.render (List.map strip (hdr :: data));
          injected = 1;
          fault;
        }

(* shared plumbing: wrap the four decision callbacks (naming callbacks
   never fail or stall a real session) with one [tick] *)
let wrap_decisions tick (oracle : Dbre.Oracle.t) =
  {
    oracle with
    Dbre.Oracle.on_nei =
      (fun ctx ->
        tick ();
        oracle.Dbre.Oracle.on_nei ctx);
    validate_fd =
      (fun fd ->
        tick ();
        oracle.Dbre.Oracle.validate_fd fd);
    enforce_fd =
      (fun ~rel ~lhs ~attr ->
        tick ();
        oracle.Dbre.Oracle.enforce_fd ~rel ~lhs ~attr);
    conceptualize_hidden =
      (fun a ->
        tick ();
        oracle.Dbre.Oracle.conceptualize_hidden a);
  }

let failing_oracle ~every (oracle : Dbre.Oracle.t) =
  if every <= 0 then invalid_arg "Faults.failing_oracle: every must be positive";
  let n = ref 0 in
  wrap_decisions
    (fun () ->
      incr n;
      if !n mod every = 0 then
        Error.raisef Error.Oracle_failure
          "injected oracle failure at decision %d" !n)
    oracle

(* --- execution faults (supervised-runtime harness) --- *)

let slow_oracle ~delay_s (oracle : Dbre.Oracle.t) =
  if delay_s < 0.0 then invalid_arg "Faults.slow_oracle: negative delay";
  wrap_decisions (fun () -> Unix.sleepf delay_s) oracle

let cancelling_oracle ~after supervise (oracle : Dbre.Oracle.t) =
  if after <= 0 then invalid_arg "Faults.cancelling_oracle: after must be positive";
  let n = ref 0 in
  wrap_decisions
    (fun () ->
      incr n;
      if !n = after then Supervise.cancel supervise)
    oracle
