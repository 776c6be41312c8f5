(** Column-name resolution: the one place a SQL column reference is
    bound to the FROM instance it reads (§4 builds [Q] from exactly
    these bindings).

    {!Equijoin}, {!Dataflow}, the workload lint and query rewriting all
    resolve through {!resolve}; they differ only in the environment they
    pass and in how much of the outcome they keep.

    {2 The rule}

    Frames are the FROM clauses of the enclosing queries, innermost
    first. A qualified reference [q.c] binds to the first entry aliased
    [q] in the innermost frame that has one; the search stops there,
    whether or not that entry provides [c]. An unqualified [c] binds to
    the innermost frame in which some entry provides [c]: one provider
    is a match, several are ambiguous, none sends the search outward.
    An entry whose relation the environment does not know provides
    nothing, but it may own the column: such a reference is
    [Unknown_owner], not a miss. *)

open Relational

type column = { rc_rel : string; rc_attr : string; rc_span : Span.t }
(** A resolved reference to an attribute of a base relation, with the
    span of the reference ({!Span.dummy} when synthesized). *)

(** {1 The name environment} *)

type env
(** The schema's relations plus the views defined so far. *)

val of_schema : Schema.t -> env
(** No views. *)

val schema : env -> Schema.t

val define_view : env -> Ast.create_view -> env
(** Add a view. Its column map (view column to base-relation column,
    when the projection resolves) is computed now, against the views
    already defined: a view over a view resolves through the earlier
    map, so statement order bounds the recursion. [SELECT *] exports
    every attribute of every FROM entry; an explicit column list renames
    positionally; of two exports with one name the first wins. *)

val known : env -> string -> bool
(** A schema relation or a defined view. *)

val base : env -> string -> string -> Span.t -> column option
(** [base env rel attr span]: the base-relation column behind [rel.attr]
    — itself for a schema relation, the mapped column for a view — or
    [None] when [rel] does not provide [attr] or the view column maps to
    no base column. *)

(** {1 FROM frames} *)

type entry = { e_alias : string; e_rel : string; e_span : Span.t; e_scope : int }
(** One FROM instance. [e_scope] numbers the frame, so two instances of
    one relation (a self-join, or the same alias in two scopes) stay
    distinct. *)

type frame = entry list

val of_from : int -> Ast.table_ref list -> frame
(** [of_from scope from]: one entry per table reference, aliased by its
    alias or else its relation name. *)

val target : int -> string -> frame
(** The one-entry frame of an [UPDATE]/[DELETE] target: aliased by its
    name, no span. *)

(** {1 Resolution} *)

type resolution =
  | Found of entry
  | Ambiguous of entry list  (** unqualified, several providers in one frame *)
  | No_column of entry option
      (** the qualifying entry lacks the attribute ([Some]), or no entry
          in scope provides the unqualified name ([None]) *)
  | Unknown_qualifier  (** no entry in scope carries the qualifier *)
  | Unknown_owner  (** a relation the environment does not know may own it *)

val resolve : env -> frame list -> Ast.column -> resolution
(** Frames innermost first. *)

val found : env -> frame list -> Ast.column -> entry option
(** The entry of a [Found] reference; [None] otherwise. *)

val column : env -> frame list -> Ast.column -> column option
(** The base column of a [Found] reference ({!base}); [None] otherwise. *)
