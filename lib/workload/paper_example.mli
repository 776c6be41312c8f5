(** The paper's running example (§5): the employee/project/department
    database, its constraints, its equi-join set [Q], an extension
    matching the worked counts, synthetic application programs whose
    analysis yields [Q], and the scripted expert reproducing the §5–§7
    narrative.

    The extension is constructed (deterministically) so that every count
    and dependency the paper reports holds:
    - [||Person[id]|| = 2200], [||HEmployee[no]|| = 1550],
      [||Person[id] ⋈ HEmployee[no]|| = 1550] (the §6.1 worked numbers);
    - [Assignment[dep]] and [Department[dep]] have a proper non-empty
      intersection (the NEI the expert conceptualizes as [Ass-Dept]);
    - [Department: emp -> skill, proj] and
      [Assignment: proj -> project-name] hold;
    - [Department: proj -> emp/skill], [Assignment: emp -> ...],
      [HEmployee: no -> salary], [Assignment: dep -> ...] all fail;
    - [Person: zip-code -> state] holds but is never elicited (no
      equi-join mentions it) — the paper's example of an FD that is mere
      integrity constraint. *)

open Relational

val schema : unit -> Schema.t
(** Person / HEmployee / Department / Assignment with the §5 keys and
    not-null declarations. *)

val ddl : string
(** The same schema as a [CREATE TABLE] script (what the data
    dictionary would hold). *)

val database : unit -> Database.t
(** Freshly populated extension (safe to mutate). *)

val equijoins : unit -> Sqlx.Equijoin.t list
(** The §5 set [Q], in the paper's order. *)

val programs : unit -> string list
(** Synthetic application programs (COBOL- and C-flavoured embedded
    SQL, plus a dynamic-SQL report) whose scan yields exactly [Q] —
    exercising where-clause, nested [IN], and [INTERSECT] extraction. *)

val oracle_script : Dbre.Oracle.script
(** The §5–§7 expert: conceptualizes the [dep] NEI as [Ass-Dept],
    conceptualizes [HEmployee.no] as [Employee], refuses
    [Assignment.emp] and [Department.proj], names the Restruct relations
    [Employee] / [Other-Dept] / [Manager] / [Project]. *)

val spec : unit -> Dbre.Job_spec.t
(** The full reproduction (experiments E1–F1): a fresh database, [Q]
    given directly, the scripted expert. {!Scenarios.paper}'s spec
    extracts [Q] from {!programs} instead. *)
