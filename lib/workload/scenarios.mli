(** Ready-made reverse-engineering scenarios used by the examples, the
    CLI and the benchmark harness. *)

open Relational

type t = {
  name : string;
  description : string;
  database : unit -> Database.t;  (** fresh extension on every call *)
  programs : string list;  (** application-program sources *)
  oracle : Dbre.Oracle.mode;
      (** the scenario's expert: a script for the built-in scenarios *)
}

val spec : t -> Dbre.Job_spec.t
(** The scenario as a run ({!Dbre.Job_spec.of_database} of a fresh
    database, the programs as the workload, the scenario's expert). *)

val paper : t
(** The §5 running example ({!Paper_example}). *)

val payroll : t
(** A denormalized legacy payroll system: Staff / Payslip / Timesheet /
    Grants / Budget. Exercises: hidden objects behind composite keys
    (paid vs. active staff), an FD elicited from a {e self-join}
    (tax bands), an NEI between grants and timesheets conceptualized by
    the expert, weak entity types (payslips, timesheets, budgets), and
    an FD ([grade -> grade_label]) that no program navigates and that
    must {e not} be elicited. *)

val hospital : t
(** A hospital admissions system with {e composite} patient identifiers:
    multi-attribute inclusion dependencies elicited from two- and
    three-attribute equi-joins, a Treatment relation that Translate turns
    into an Admission–Drug m:n relationship type, a forced NEI against
    the drug formulary (the expert trusts the catalog), and an
    [Admission] weak entity discriminated by its admission date. *)

val synthetic : Gen_schema.spec -> t
(** Wrap a generated workload as a scenario ([Auto] expert: generated
    candidates have no names to script). *)

val all : t list
(** [paper; payroll; hospital]. *)

val find : string -> t option
(** Lookup in {!all} by name. *)
