(** Client side of the daemon's wire protocol — used by the CLI's
    [submit]/[job] subcommands and the serve tests. One {!t} is one
    connection; requests on it are synchronous (frame out, frame
    back). *)

open Relational

type t

val connect : string -> t
(** Connect to the daemon's Unix-domain socket. Raises
    [Unix.Unix_error] when nothing listens there. *)

val close : t -> unit

val request : t -> Json.t -> Json.t
(** Send one frame, read one response frame. Raises {!Protocol.Closed}
    if the server hangs up. *)

val ping : t -> bool

val submit :
  t -> Dbre.Job_spec.t -> (string * Json.t list, string * string) result
(** Submit a spec — every spec serializes, so it always goes out on the
    wire as {!Dbre.Job_spec.to_json}: [Ok (job id, L207 diagnostics)] or
    the daemon's [Error (code, message)]. *)

val status : t -> string -> (Json.t, string * string) result

val events :
  t -> ?since:int -> string -> (Json.t list * int * bool, string * string) result
(** [(events, next, settled)] without blocking. *)

val watch :
  t -> ?since:int -> string -> (Json.t list * int * bool, string * string) result
(** Long-poll: returns once an event past [since] exists or the job
    settles. Loop on the returned [next] to stream. *)

val cancel : t -> string -> (string, string * string) result
(** The job's state right after the cancel took effect. *)

val artifacts :
  t -> string -> ((string * string) list * string, string * string) result
(** A settled job's canonical artifacts plus its final state;
    [Error ("not-settled", _)] while it is queued or running. *)

val wait :
  t -> ?since:int -> string -> (string * (string * string) list, string * string) result
(** Stream [watch] until the job settles, discarding events, then
    fetch {!artifacts}: [Ok (final state, artifacts)]. *)

val mutate :
  t ->
  ?insert:Value.t list list ->
  ?delete:int list ->
  string ->
  string ->
  (int * int, string * string) result
(** [mutate t ~insert ~delete id relation] mutates a settled job's
    retained extension: [delete] names row indices in the current
    numbering (validated and applied first), [insert] appends rows
    (validated before the deletes are applied — a bad row or index
    mutates nothing). [Ok (cardinality, version)] after the mutation.
    Verdict artifacts are not recomputed until {!refresh}. *)

val refresh :
  t -> string -> (Json.t * string, string * string) result
(** Delta re-verification of a settled, mutated job: one coordinated
    pass over the column stores the mutations already patched, then
    verification re-runs, synchronously. [Ok (refresh report, final state)]; the job's
    artifacts are replaced with the re-verified ones (byte-identical
    to resubmitting the job over the mutated extension).
    [Error ("not-settled", _)] while the job is queued, running or
    mid-refresh; [Error ("no-database", _)] for jobs adopted from a
    previous daemon process (their extension lives only in checkpoint
    artifacts — resubmit instead). *)

val jobs : t -> (Json.t list, string * string) result

val shutdown : t -> unit
(** Ask the daemon to stop; tolerates the connection dying mid-reply. *)
