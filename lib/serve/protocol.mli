(** Wire protocol of the analysis daemon.

    Frames are 4-byte big-endian length prefixes followed by that many
    bytes of compact JSON ({!Relational.Json}) — the simplest framing
    that survives pipelining and partial reads on a Unix-domain
    socket. Requests are objects with an ["op"] field; responses are
    objects with ["ok": true] plus op-specific fields, or
    ["ok": false] with a typed ["error": {"code", "message"}].

    {b Operations.}
    - [ping] → [{"ok":true,"pong":true}]
    - [submit {"spec": <Job_spec JSON>}] →
      [{"ok":true,"id","diagnostics":[…]}] — the job is queued; the
      [L207] source/schema disagreements are returned (and streamed as
      events) before the run starts.
    - [status {"id"}] → [{"ok":true,"id","label","state","events",
      "error"}] with [state] one of
      ["queued"|"running"|"done"|"failed"|"cancelled"].
    - [events {"id","since"}] → [{"ok":true,"events":[…],"next",
      "settled"}] — the job's event log from sequence [since]
      (default 0), without blocking.
    - [watch {"id","since"}] — like [events] but long-polls: blocks
      until an event past [since] exists or the job settles. Streaming
      is the client looping on [watch] with the returned ["next"].
    - [cancel {"id"}] → [{"ok":true,"state"}] — cancels a queued job
      outright; trips a running job's supervision token, so it settles
      with a typed partial at the next stage boundary.
    - [artifacts {"id"}] → [{"ok":true,"artifacts":{name:text,…}}] —
      the canonical {!Dbre.Report.artifacts} strings of a settled job.
    - [jobs] → [{"ok":true,"jobs":[{"id","label","state"},…]}]
    - [shutdown] → [{"ok":true}] and the server stops accepting work.

    {b Error codes.} ["bad-frame"] (oversize or truncated frame; the
    connection closes), ["bad-json"] (frame is not JSON, or nests
    deeper than {!Relational.Json.max_depth}), ["bad-request"] (JSON but
    not a valid request), ["unknown-op"], ["unknown-job"],
    ["spec-invalid"], ["not-settled"] (artifacts of a live job),
    ["shutting-down"], ["internal-error"] (the request raised; the
    connection keeps serving). *)

open Relational

val max_frame : int
(** Frames larger than this (16 MiB) are refused with ["bad-frame"]. *)

exception Closed
(** Peer closed the connection at a frame boundary. *)

exception Frame_error of string
(** Malformed framing: truncated header/payload or oversize length.
    Unrecoverable for the connection. *)

val write_frame : Unix.file_descr -> Json.t -> unit
(** Serialize and send one frame (complete write). *)

val read_frame : Unix.file_descr -> string
(** Read one frame's payload. Raises {!Closed} on EOF at a frame
    boundary, {!Frame_error} on truncation mid-frame or an oversize
    announced length. *)

val ok : (string * Json.t) list -> Json.t
(** [{"ok":true, …fields}]. *)

val error : code:string -> string -> Json.t
(** [{"ok":false,"error":{"code","message"}}]. *)

val request : string -> (string * Json.t) list -> Json.t
(** [{"op":<op>, …fields}]. *)

val error_of : Json.t -> (string * string) option
(** [Some (code, message)] when the response is not ["ok": true]. A
    successful response may carry an ["error": null] field (e.g. a
    settled job's status); only ["ok"] decides. *)
