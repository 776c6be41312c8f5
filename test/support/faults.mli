(** Deterministic fault injection for robustness testing.

    Where {!Corrupt} dirties {e values} inside a loaded database (to
    stress dependency discovery on corrupted extensions), this module
    breaks the {e inputs} themselves — CSV text and the expert oracle —
    so tests can assert the pipeline survives each fault class with the
    expected quarantine report or structured partial result. All
    randomness comes from the caller's {!Rng}, so every fault is
    reproducible from a seed. *)

open Relational
open Workload

type csv_fault =
  | Unterminated_quote
      (** tear the last data row open with an unclosed quote — a CSV
          {e syntax} fault (always exactly one per file) *)
  | Extra_field of int  (** append a surplus field to [n] distinct rows *)
  | Type_mismatch of int
      (** overwrite a typed (non-String) cell with a non-parsing token
          in [n] distinct rows; injects 0 when the relation has no
          typed column *)
  | Drop_column
      (** remove one whole column, header included (arity ≥ 2 required;
          loads as a missing declared column) *)

type injection = {
  csv : string;  (** the faulted document *)
  injected : int;
      (** faults actually injected (≤ requested: bounded by row count,
          0 when the document cannot host the fault) *)
  fault : csv_fault;
}

val fault_name : csv_fault -> string

val inject_csv : Rng.t -> Relation.t -> csv_fault -> string -> injection
(** [inject_csv rng rel fault csv] — [csv] must be a clean
    header-carrying document for [rel] (e.g. from [Csv.dump_table]). *)

val failing_oracle : every:int -> Dbre.Oracle.t -> Dbre.Oracle.t
(** Wrap the four decision callbacks with a shared counter that raises
    [Error.Error] (code [Oracle_failure]) on every [every]-th decision —
    modeling an expert session dying mid-run. Naming callbacks are left
    untouched (they never fail a real session). Raises
    [Invalid_argument] when [every <= 0]. *)

(** {2 Execution faults}

    A deterministic stand-in for a cancelled expert session, which the
    supervised runtime ({!Relational.Supervise}) must survive. *)

val cancelling_oracle :
  after:int -> Supervise.t -> Dbre.Oracle.t -> Dbre.Oracle.t
(** Cancel the given supervision token on the [after]-th decision (then
    keep answering normally) — models an operator hitting ctrl-C at a
    reproducible point mid-elicitation. Raises [Invalid_argument] when
    [after <= 0]. *)
