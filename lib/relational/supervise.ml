(* Cooperative supervision token: one latched "stop" cell shared by a
   run and everything it fans out.

   The pipeline's long passes (IND counting, FD sweeps, CSV ingest)
   poll the token at coarse boundaries — once per group, sweep or
   chunk, never per row — so an armed token costs one atomic load on
   the fast path and a clock/GC read only at those boundaries. The
   token is latched: the first tripped reason wins and every later
   poll returns it, and a [cancel] from another domain (the daemon's
   cancel operation) is seen by the next poll.

   Determinism: [poll]/[check] are only ever called from driver code
   (stage loops, batch submission points); preparation passes between
   them read the latched flag ([tripped]) but never evaluate limits.
   The sequence of evaluation points is therefore fixed by the stage
   loops, which is what makes the fuel-tripped prefix tests (and
   budget-partial resume) reproducible. *)

type reason =
  | Cancelled
  | Deadline of { limit_s : float; elapsed_s : float }
  | Heap of { limit_words : int; live_words : int }

exception Interrupt of reason

type t = {
  flag : reason option Atomic.t;
  started : float;  (* wall clock at [create] *)
  deadline_s : float;  (* [infinity] = no deadline *)
  max_heap_words : int;  (* [max_int] = no heap budget *)
  fuel : int Atomic.t;
      (* deterministic trip: remaining [poll]s before the token cancels
         itself; [max_int] = off. Fault-injection/test hook. *)
  never : bool;  (* the shared unlimited token: polls are free, cancel is a no-op *)
}

let unlimited =
  {
    flag = Atomic.make None;
    started = 0.;
    deadline_s = infinity;
    max_heap_words = max_int;
    fuel = Atomic.make max_int;
    never = true;
  }

let create ?deadline_s ?max_heap_words ?fuel () =
  {
    flag = Atomic.make None;
    started = Unix.gettimeofday ();
    deadline_s =
      (match deadline_s with
      | Some d when d >= 0. -> d
      | Some _ -> 0.
      | None -> infinity);
    max_heap_words =
      (match max_heap_words with
      | Some w when w > 0 -> w
      | Some _ -> 1
      | None -> max_int);
    fuel = Atomic.make (match fuel with Some n -> max 0 n | None -> max_int);
    never = false;
  }

let active t = not t.never
let tripped t = Atomic.get t.flag

(* latch: first reason wins, whoever sets it *)
let trip t reason =
  if not t.never then
    ignore (Atomic.compare_and_set t.flag None (Some reason));
  Atomic.get t.flag

let cancel t = ignore (trip t Cancelled)

let poll t =
  if t.never then None
  else
    match Atomic.get t.flag with
    | Some _ as r -> r
    | None ->
        if Atomic.get t.fuel < max_int && Atomic.fetch_and_add t.fuel (-1) <= 1
        then trip t Cancelled
        else if t.deadline_s < infinity then begin
          let elapsed = Unix.gettimeofday () -. t.started in
          if elapsed > t.deadline_s then
            trip t (Deadline { limit_s = t.deadline_s; elapsed_s = elapsed })
          else if t.max_heap_words < max_int then begin
            let live = (Gc.quick_stat ()).Gc.heap_words in
            if live > t.max_heap_words then
              trip t (Heap { limit_words = t.max_heap_words; live_words = live })
            else None
          end
          else None
        end
        else if t.max_heap_words < max_int then begin
          let live = (Gc.quick_stat ()).Gc.heap_words in
          if live > t.max_heap_words then
            trip t (Heap { limit_words = t.max_heap_words; live_words = live })
          else None
        end
        else None

let check t =
  match poll t with None -> () | Some reason -> raise (Interrupt reason)

let reason_message = function
  | Cancelled -> "run cancelled"
  | Deadline { limit_s; elapsed_s } ->
      Printf.sprintf "deadline exceeded: %.3fs elapsed of a %.3fs budget"
        elapsed_s limit_s
  | Heap { limit_words; live_words } ->
      Printf.sprintf
        "heap budget exceeded: %d words live of a %d-word budget" live_words
        limit_words

let error_of ?stage reason =
  Error.make ?stage Error.Resource_exhausted (reason_message reason)

let () =
  Printexc.register_printer (function
    | Interrupt r -> Some ("Supervise.Interrupt: " ^ reason_message r)
    | _ -> None)
