(* A persistent pool of worker domains with dynamic (bag-of-tasks)
   scheduling.

   The pool exists because dependency verification fans the same shape
   of work out over and over — encode a column, sweep a partition,
   prepare one side of an equi-join — and spawning domains per call (the
   PR 2 warm-up) pays the ~50us spawn cost on every batch. Workers here
   are spawned once, parked on a condition variable between batches,
   and claim task indices with [Atomic.fetch_and_add] so an uneven
   batch self-balances (a worker that finishes its task "steals" the
   next unclaimed index from the shared bag).

   Determinism contract: [parallel_for] identifies tasks by index and
   tasks write results by index, so the caller observes results in
   submission order whatever the interleaving. Tasks must write only
   to their own index (and read only shared state no task writes).
   Tasks are trusted to be finite; the only per-task bookkeeping is one
   atomic load of the batch's supervision token. *)

type job = {
  j_count : int;
  j_run : int -> unit;
  j_next : int Atomic.t;  (* next unclaimed task index *)
  j_pending : int Atomic.t;  (* tasks not yet finished *)
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;  (* first failure *)
  j_supervise : Supervise.t;
      (* batch token: a tripped token makes the remaining tasks no-ops
         (still drained so the batch completes) *)
}

type t = {
  size : int;  (* worker domains + the submitting caller *)
  submission : Mutex.t;
      (* serializes whole batches: the pool runs one batch at a time,
         but since the analysis daemon it can be *asked* from several
         sys-threads or worker domains at once (concurrent jobs sharing
         one engine).
         Each submitting thread holds this for its entire batch, so
         the single-submitter invariant of [current]/[epoch]/[batches]
         is preserved; nested submission from inside a task still
         deadlocks and is still unsupported. *)
  mutex : Mutex.t;
  work_ready : Condition.t;
  batch_done : Condition.t;
  mutable current : (int * job) option;  (* epoch-stamped active batch *)
  mutable epoch : int;
  mutable stop : bool;
  mutable handles : unit Stdlib.Domain.t list;  (* workers not yet joined *)
  mutable batches : int;  (* batches served, for logs/tests *)
}

let size t = t.size
let batches t = t.batches

let record_failure job e =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set job.j_exn None (Some (e, bt)))

(* claim indices until the bag is empty; the last finisher signals.
   Every task runs under the handler, so no exception leaves a worker. *)
let drain t job =
  let rec claim () =
    let i = Atomic.fetch_and_add job.j_next 1 in
    if i < job.j_count then begin
      (match Supervise.tripped job.j_supervise with
      | Some r ->
          (* tripped batch: drain without running so the waiters
             unblock; the caller re-raises the interrupt *)
          record_failure job (Supervise.Interrupt r)
      | None -> ( try job.j_run i with e -> record_failure job e));
      if Atomic.fetch_and_add job.j_pending (-1) = 1 then begin
        Mutex.lock t.mutex;
        Condition.broadcast t.batch_done;
        Mutex.unlock t.mutex
      end;
      claim ()
    end
  in
  claim ()

let worker_loop t () =
  let served = ref 0 in
  let rec loop () =
    Mutex.lock t.mutex;
    let rec wait () =
      if t.stop then begin
        Mutex.unlock t.mutex;
        None
      end
      else
        match t.current with
        | Some (epoch, job) when epoch > !served ->
            served := epoch;
            Mutex.unlock t.mutex;
            Some job
        | _ ->
            Condition.wait t.work_ready t.mutex;
            wait ()
    in
    match wait () with
    | None -> ()
    | Some job ->
        drain t job;
        loop ()
  in
  loop ()

let create n =
  let size = max 1 n in
  let t =
    {
      size;
      submission = Mutex.create ();
      mutex = Mutex.create ();
      work_ready = Condition.create ();
      batch_done = Condition.create ();
      current = None;
      epoch = 0;
      stop = false;
      handles = [];
      batches = 0;
    }
  in
  t.handles <- List.init (size - 1) (fun _ -> Stdlib.Domain.spawn (worker_loop t));
  t

(* Idempotent: the first call takes the handles, a second finds none.
   A worker that is mid-task finishes that task before it sees [stop]
   (tasks are trusted to be finite), and none dies, since [drain] runs
   every task under its handler — so each join returns. *)
let shutdown t =
  Mutex.lock t.mutex;
  t.stop <- true;
  Condition.broadcast t.work_ready;
  let handles = t.handles in
  t.handles <- [];
  Mutex.unlock t.mutex;
  List.iter Stdlib.Domain.join handles

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

let parallel_for ?(supervise = Supervise.unlimited) t count run =
  if count > 0 then begin
    Mutex.lock t.submission;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.submission) @@ fun () ->
    t.batches <- t.batches + 1;
    if t.size = 1 || count = 1 || t.stop then begin
      (* sequential fallback: same tasks, ascending order *)
      let rec go i =
        if i < count then
          match Supervise.tripped supervise with
          | Some r -> raise (Supervise.Interrupt r)
          | None ->
              run i;
              go (i + 1)
      in
      go 0
    end
    else begin
      let job =
        {
          j_count = count;
          j_run = run;
          j_next = Atomic.make 0;
          j_pending = Atomic.make count;
          j_exn = Atomic.make None;
          j_supervise = supervise;
        }
      in
      Mutex.lock t.mutex;
      t.epoch <- t.epoch + 1;
      t.current <- Some (t.epoch, job);
      Condition.broadcast t.work_ready;
      Mutex.unlock t.mutex;
      (* the caller is a worker too *)
      drain t job;
      Mutex.lock t.mutex;
      while Atomic.get job.j_pending > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      t.current <- None;
      Mutex.unlock t.mutex;
      match Atomic.get job.j_exn with None -> () | Some f -> reraise f
    end
  end

(* ------------------------------------------------------------------ *)
(* shared registry                                                      *)
(* ------------------------------------------------------------------ *)

(* One pool per requested size, spawned on first request and reused for
   the rest of the process: every [Engine.t] asking for [n] domains
   shares the same [n]-sized pool, so pipeline stages never re-spawn.
   Joined at exit so the runtime shuts down cleanly. *)

let registry : (int, t) Hashtbl.t = Hashtbl.create 4
let registry_mutex = Mutex.create ()
let at_exit_registered = ref false

let get n =
  let n = max 1 n in
  Mutex.lock registry_mutex;
  let pool =
    match Hashtbl.find_opt registry n with
    | Some p -> p
    | None ->
        let p = create n in
        Hashtbl.add registry n p;
        if not !at_exit_registered then begin
          at_exit_registered := true;
          Stdlib.at_exit (fun () ->
              Mutex.lock registry_mutex;
              let pools = Hashtbl.fold (fun _ p acc -> p :: acc) registry [] in
              Hashtbl.reset registry;
              Mutex.unlock registry_mutex;
              (* exception-safe: one pool failing to shut down must not
                 keep the rest from being joined *)
              List.iter (fun p -> try shutdown p with _ -> ()) pools)
        end;
        p
  in
  Mutex.unlock registry_mutex;
  pool
