(** Integrity-violation injection — turning clean extensions into the
    "corrupted database extensions" the paper's expert has to arbitrate
    (§6.1 cases (iv)–(vii), §6.2.2 case (ii)). *)

open Relational
open Workload

val break_ind :
  Rng.t -> Database.t -> rel:string -> attr:string -> rate:float -> int
(** Replace a fraction [rate] of the non-null values of [rel.attr] with
    fresh values outside any existing domain (negative integers /
    ["@corrupt-n"] strings), breaking inclusion dependencies whose left
    side is that attribute and turning them into NEIs. Returns the
    number of cells corrupted. The table is rebuilt in place. *)

val break_fd :
  Rng.t -> Database.t -> rel:string -> lhs:string list -> rhs:string -> rate:float -> int
(** Scramble a fraction [rate] of the [rhs] values among rows sharing an
    [lhs] value with at least one other row — violating [lhs -> rhs]
    while keeping the value distributions plausible. Returns the number
    of rows touched (0 when no LHS group has two rows). *)

val delete_rows : Rng.t -> Database.t -> rel:string -> rate:float -> int
(** Drop a fraction of rows at random (simulating archival loss, which
    weakens right-hand sides of INDs). Returns rows dropped. *)
