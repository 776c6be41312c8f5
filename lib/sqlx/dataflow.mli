(** Static dataflow analysis over ordered statement lists of
    embedded-SQL programs.

    The per-statement elicitation ({!Equijoin.of_statement}) only sees
    joins written inside one query. Legacy programs instead *navigate*:
    one statement reads a column into a host variable, a later statement
    uses that variable against another relation —

    {v
      EXEC SQL SELECT dept_no INTO :w-dep FROM Emp WHERE ... END-EXEC.
      EXEC SQL SELECT budget FROM Dept WHERE dept_no = :w-dep END-EXEC.
    v}

    is exactly the equi-join [Emp[dept_no] |X| Dept[dept_no]], with zero
    single-statement witnesses. This module recovers that evidence.

    {2 Analysis}

    Statements are processed in program order.

    - {b Defs} of a host variable come from [SELECT … INTO :h] targets
      and [FETCH c INTO :h] targets (paired positionally with the
      projections of the cursor's declared query). A redefinition kills
      the previous reaching def.
    - {b Uses} come from comparisons [col op :h], [INSERT … VALUES]
      positions (the target column is found positionally) and
      [UPDATE … SET col = :h]. The uses of a statement read the
      environment {e before} the statement's own defs apply.
    - {b Cursors}: the host variables inside a declared cursor's query
      are read when the cursor is {e opened}, not declared — the classic
      COBOL ordering declares every cursor up front.
    - {b Views}: [CREATE VIEW] bodies contribute their own join
      equalities, and column references that resolve {e through} a view
      are macro-expanded to base-relation columns (processed in
      statement order, a view can only reference earlier views).

    Every column reference resolves through {!Scope.resolve} in an
    environment of the schema plus the views defined so far
    ({!Scope.define_view}); a [Found] reference is kept as its base
    column ({!Scope.column}), anything else as no column.

    A use no def reaches is recorded in [undefined_uses] (use before
    def — a bug in the program, and lint material), but still pairs with
    {e every} def of its variable as a flow-insensitive [Fallback]
    chain: evidence elicitation favours recall, diagnosis favours
    precision, and the split serves both. Host variables never defined
    by any SQL statement are assumed host-language state and ignored. *)

open Relational

type def = {
  d_var : string;  (** host variable name, leading [:] retained *)
  d_col : Scope.column option;
      (** source column, when the paired projection resolves *)
  d_span : Span.t;  (** the INTO target, in host coordinates *)
  d_stmt : int;  (** index of the defining statement *)
}

type use_kind =
  | U_cmp of Ast.cmp_op  (** [col op :h] in a condition *)
  | U_insert  (** positional [INSERT … VALUES] argument *)
  | U_update_set  (** [UPDATE … SET col = :h] *)
  | U_other  (** any other occurrence (no column context) *)

type use = {
  u_var : string;
  u_col : Scope.column option;
  u_kind : use_kind;
  u_span : Span.t;
  u_stmt : int;
}

type flow =
  | Sensitive  (** the def reaches the use in program order *)
  | Fallback  (** flow-insensitive pairing (use before any def) *)

type chain = { c_def : def; c_use : use; c_flow : flow }

type cursor_info = {
  cur_name : string;
  cur_span : Span.t;  (** the DECLARE site *)
  cur_opened : Span.t list;  (** every OPEN site, in order *)
  cur_fetches : int;
  cur_closes : int;
}

type t = {
  defs : def list;  (** program order *)
  uses : use list;  (** program order *)
  chains : chain list;  (** def-use chains, [Sensitive] then [Fallback] *)
  dead_defs : def list;  (** defs no chain consumes (dead writes) *)
  undefined_uses : use list;
      (** uses before any def of a variable that {e is} SQL-defined
          elsewhere in the program *)
  cursors : cursor_info list;  (** declaration order *)
  view_joins : Equijoin.t list;
      (** joins from view bodies and view-resolved equalities *)
}

val analyze : Schema.t -> Ast.statement list -> t
(** Run the analysis over one program's ordered statements. *)

val joins : t -> Equijoin.t list
(** The equi-join evidence of an analysis: chains whose def and use
    columns both resolve and whose use is an equality-like context
    ([U_cmp Eq], [U_insert], [U_update_set]) become equi-joins — chains
    between the same pair of statements and relations merge into one
    multi-attribute equi-join, mirroring the per-statement §4 rule —
    plus [view_joins]. Deduplicated, canonical {!Equijoin.t} values that
    feed the candidate-IND machinery unchanged. *)

val joins_of_statements : Schema.t -> Ast.statement list -> Equijoin.t list
(** [joins (analyze schema stmts)], over one program's statements
    ({!Embedded.scan}). Per-program granularity matters: host variables
    are program-local, so chaining across program boundaries would
    fabricate evidence. *)
