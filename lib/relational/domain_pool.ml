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

   Determinism contract: [parallel_for] and [map_array] identify tasks
   by index and write results by index, so the caller observes results
   in submission order whatever the interleaving. Tasks must write only
   to their own index (and read only shared state no task writes).

   Two tiers of batch:

   - [parallel_for]/[map_array]: the hot verify path. Trusted tasks,
     condition-variable parking, no per-task bookkeeping beyond one
     atomic load of the batch's supervision token.
   - [map_supervised]: the service tier. Each attempt of each task is
     fenced by a wall-clock timeout; a wedged attempt is abandoned
     (its results dropped — publication goes through per-attempt
     arrays, so a stale writer writes into a dead epoch), the stuck
     workers are written off and replaced, and the unfinished tasks
     are retried with exponential backoff on the replacement workers. *)

type job = {
  j_count : int;
  j_run : int -> unit;
  j_next : int Atomic.t;  (* next unclaimed task index *)
  j_pending : int Atomic.t;  (* tasks not yet finished *)
  j_exn : (exn * Printexc.raw_backtrace) option Atomic.t;  (* first failure *)
  j_supervise : Supervise.t;
      (* batch token: a tripped token makes the remaining tasks no-ops
         (still drained so the batch completes) *)
  j_abandoned : bool Atomic.t;
      (* set when the submitter gives up on the batch (timeout): nobody
         claims further tasks and results are never read *)
  j_late : int Atomic.t;
      (* workers written off as wedged on this job; one that eventually
         returns from its task must retire (it has been replaced) *)
}

type t = {
  size : int;  (* worker domains + the submitting caller *)
  submission : Mutex.t;
      (* serializes whole batches: the pool runs one batch at a time,
         but since the analysis daemon it can be *asked* from several
         sys-threads at once (concurrent jobs sharing one engine).
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
  mutable handles : (int * unit Stdlib.Domain.t) list;
      (* every worker ever spawned, by domain id, until joined *)
  mutable exited : int list;  (* domain ids that left [worker_loop] *)
  mutable lost : int;  (* workers written off as wedged *)
  mutable batches : int;  (* batches served, for logs/tests *)
}

let size t = t.size
let batches t = t.batches
let lost_workers t = t.lost

let record_failure job e =
  let bt = Printexc.get_raw_backtrace () in
  ignore (Atomic.compare_and_set job.j_exn None (Some (e, bt)))

(* claim indices until the bag is empty; the last finisher signals.
   [worker] distinguishes pool domains from the submitting caller: only
   a worker retires when it turns out to have been replaced. *)
let drain t ~worker job =
  let rec claim () =
    if not (Atomic.get job.j_abandoned) then begin
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
        if
          worker
          && Atomic.get job.j_abandoned
          && Atomic.fetch_and_add job.j_late (-1) > 0
        then raise Exit
        else claim ()
      end
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
        raise Exit
      end;
      match t.current with
      | Some (epoch, job) when epoch > !served ->
          served := epoch;
          Mutex.unlock t.mutex;
          job
      | _ ->
          Condition.wait t.work_ready t.mutex;
          wait ()
    in
    let job = wait () in
    drain t ~worker:true job;
    loop ()
  in
  (* record the exit whatever path left the loop, so shutdown knows
     this domain is joinable (a wedged worker never records and is
     never joined) *)
  Fun.protect
    ~finally:(fun () ->
      let id = (Stdlib.Domain.self () :> int) in
      Mutex.lock t.mutex;
      t.exited <- id :: t.exited;
      Mutex.unlock t.mutex)
    (fun () -> try loop () with Exit -> ())

(* caller holds [t.mutex] *)
let spawn_worker_locked t =
  let d = Stdlib.Domain.spawn (worker_loop t) in
  t.handles <- ((Stdlib.Domain.get_id d :> int), d) :: t.handles

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
      exited = [];
      lost = 0;
      batches = 0;
    }
  in
  if size > 1 then begin
    Mutex.lock t.mutex;
    for _ = 1 to size - 1 do
      spawn_worker_locked t
    done;
    Mutex.unlock t.mutex
  end;
  t

(* Exception-safe and idempotent, including after a worker was written
   off mid-job: only domains that recorded their exit are joined (a
   join on those cannot block), wedged ones are dropped unjoined — the
   process reaps them at exit — and a second call finds [stop] already
   set and returns. The pre-hardening version joined every spawned
   worker unconditionally, which hung teardown whenever one was
   wedged and re-raised from [Domain.join] on one that died. *)
let shutdown t =
  Mutex.lock t.mutex;
  if t.stop then Mutex.unlock t.mutex
  else begin
    t.stop <- true;
    Condition.broadcast t.work_ready;
    Mutex.unlock t.mutex;
    let snapshot () =
      Mutex.lock t.mutex;
      let s = (t.exited, t.handles, t.lost) in
      Mutex.unlock t.mutex;
      s
    in
    (* parked workers exit within microseconds; wait briefly for the
       stragglers, bounded so a wedged worker cannot hang teardown *)
    let deadline = Unix.gettimeofday () +. 1.0 in
    let rec settle () =
      let exited, handles, lost = snapshot () in
      if
        List.length exited < List.length handles - lost
        && Unix.gettimeofday () < deadline
      then begin
        Unix.sleepf 0.0005;
        settle ()
      end
    in
    settle ();
    let exited, handles, _ = snapshot () in
    List.iter
      (fun (id, d) ->
        if List.mem id exited then
          try Stdlib.Domain.join d with _ -> ())
      handles;
    Mutex.lock t.mutex;
    t.handles <- [];
    Mutex.unlock t.mutex
  end

let reraise (e, bt) = Printexc.raise_with_backtrace e bt

let make_job ?(supervise = Supervise.unlimited) count run =
  {
    j_count = count;
    j_run = run;
    j_next = Atomic.make 0;
    j_pending = Atomic.make count;
    j_exn = Atomic.make None;
    j_supervise = supervise;
    j_abandoned = Atomic.make false;
    j_late = Atomic.make 0;
  }

let submit t job =
  Mutex.lock t.mutex;
  t.epoch <- t.epoch + 1;
  t.current <- Some (t.epoch, job);
  Condition.broadcast t.work_ready;
  Mutex.unlock t.mutex

let clear_current t =
  Mutex.lock t.mutex;
  t.current <- None;
  Mutex.unlock t.mutex

let parallel_for ?supervise t count run =
  if count > 0 then begin
    Mutex.lock t.submission;
    Fun.protect ~finally:(fun () -> Mutex.unlock t.submission) @@ fun () ->
    t.batches <- t.batches + 1;
    if t.size = 1 || count = 1 || t.stop then begin
      (* sequential fallback: same tasks, ascending order *)
      let tripped = ref None in
      for i = 0 to count - 1 do
        match !tripped with
        | Some _ -> ()
        | None -> (
            match supervise with
            | Some s when Supervise.tripped s <> None ->
                tripped := Supervise.tripped s
            | _ -> run i)
      done;
      match !tripped with
      | Some r -> raise (Supervise.Interrupt r)
      | None -> ()
    end
    else begin
      let job = make_job ?supervise count run in
      submit t job;
      (* the caller is a worker too *)
      drain t ~worker:false job;
      Mutex.lock t.mutex;
      while Atomic.get job.j_pending > 0 do
        Condition.wait t.batch_done t.mutex
      done;
      t.current <- None;
      Mutex.unlock t.mutex;
      match Atomic.get job.j_exn with None -> () | Some f -> reraise f
    end
  end

let map_array ?supervise t f xs =
  let n = Array.length xs in
  if n = 0 then [||]
  else begin
    let out = Array.make n None in
    parallel_for ?supervise t n (fun i -> out.(i) <- Some (f xs.(i)));
    Array.map (function Some y -> y | None -> assert false) out
  end

(* ------------------------------------------------------------------ *)
(* supervised batches: timeout, retry, worker replacement               *)
(* ------------------------------------------------------------------ *)

type failure =
  | Crashed of exn  (* every attempt raised; the last exception *)
  | Timed_out  (* no attempt finished inside its timeout *)
  | Interrupted of Supervise.reason  (* the batch token tripped *)

let poll_interval = 0.0005
let abandon_grace = 0.004  (* let merely-slow tasks drain before write-off *)

(* Wait for [still_alive] slots of [done_] to flip, up to the deadline
   or a token trip. Publication goes through the per-slot atomics, so
   reading [vals]/[errs] after a flipped flag is race-free. *)
let wait_done ?deadline supervise done_ =
  let k = Array.length done_ in
  let all_done () =
    let rec go j = j >= k || (Atomic.get done_.(j) && go (j + 1)) in
    go 0
  in
  let rec wait () =
    if all_done () then `Completed
    else
      match Supervise.tripped supervise with
      | Some r -> `Interrupted r
      | None -> (
          match deadline with
          | Some d when Unix.gettimeofday () > d -> `Timed_out
          | _ ->
              Unix.sleepf poll_interval;
              wait ())
  in
  wait ()

(* Abandon a running batch: stop further claims, give in-flight tasks a
   short grace to drain, then write off whatever is still running as
   wedged — spawn one replacement worker per write-off and arm
   [j_late] so a written-off worker that eventually returns retires
   instead of doubling the pool. *)
let abandon t job done_ =
  Atomic.set job.j_abandoned true;
  clear_current t;
  let grace = Unix.gettimeofday () +. abandon_grace in
  let in_flight () =
    let claimed = min (Atomic.get job.j_next) job.j_count in
    let finished =
      Array.fold_left
        (fun acc d -> if Atomic.get d then acc + 1 else acc)
        0 done_
    in
    claimed - finished
  in
  let rec settle () =
    let n = in_flight () in
    if n > 0 && Unix.gettimeofday () < grace then begin
      Unix.sleepf poll_interval;
      settle ()
    end
    else n
  in
  let stuck = settle () in
  if stuck > 0 then begin
    Atomic.set job.j_late stuck;
    Mutex.lock t.mutex;
    t.lost <- t.lost + stuck;
    for _ = 1 to stuck do
      spawn_worker_locked t
    done;
    Mutex.unlock t.mutex
  end

let map_supervised t ?(supervise = Supervise.unlimited) ?timeout_s
    ?(retries = 1) ?(backoff_s = 0.002) f xs =
  Mutex.lock t.submission;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.submission) @@ fun () ->
  let retries = max 0 retries in
  let n = Array.length xs in
  let results = Array.make n None in
  let pending = ref (List.init n Fun.id) in
  let attempt = ref 0 in
  let finished = ref false in
  while not !finished do
    let last = !attempt >= retries in
    if !attempt > 0 then
      Unix.sleepf (backoff_s *. float_of_int (1 lsl min (!attempt - 1) 16));
    let idxs = Array.of_list !pending in
    let k = Array.length idxs in
    (* per-attempt result arrays: the attempt is the epoch. A writer
       from an abandoned attempt lands here, never in [results]. *)
    let vals = Array.make k None in
    let errs = Array.make k None in
    let done_ = Array.init k (fun _ -> Atomic.make false) in
    let run_one j =
      (match f xs.(idxs.(j)) with
      | v -> vals.(j) <- Some v
      | exception e -> errs.(j) <- Some e);
      Atomic.set done_.(j) true
    in
    let verdict =
      if t.size = 1 || t.stop || k = 1 then begin
        (* no workers (or a 1-task batch): run inline. The token is
           honored between tasks; a wedged task cannot be preempted
           here — single-domain hosts degrade to cooperative-only. *)
        let rec go j =
          if j >= k then `Completed
          else
            match Supervise.tripped supervise with
            | Some r -> `Interrupted r
            | None ->
                run_one j;
                go (j + 1)
        in
        go 0
      end
      else begin
        t.batches <- t.batches + 1;
        let job = make_job ~supervise k run_one in
        submit t job;
        let deadline =
          Option.map (fun s -> Unix.gettimeofday () +. s) timeout_s
        in
        let v = wait_done ?deadline supervise done_ in
        (match v with
        | `Completed -> clear_current t
        | `Timed_out | `Interrupted _ -> abandon t job done_);
        v
      end
    in
    let next = ref [] in
    for j = k - 1 downto 0 do
      let i = idxs.(j) in
      if Atomic.get done_.(j) then
        match errs.(j) with
        | None -> results.(i) <- Some (Ok (Option.get vals.(j)))
        | Some (Supervise.Interrupt r) ->
            results.(i) <- Some (Error (Interrupted r))
        | Some e ->
            if last then results.(i) <- Some (Error (Crashed e))
            else next := i :: !next
      else
        (* never finished: wedged, abandoned with the batch, or left
           unclaimed behind a wedge *)
        match verdict with
        | `Interrupted r -> results.(i) <- Some (Error (Interrupted r))
        | `Completed | `Timed_out ->
            if last then results.(i) <- Some (Error Timed_out)
            else next := i :: !next
    done;
    (match verdict with
    | `Interrupted _ -> finished := true
    | `Completed | `Timed_out -> ());
    pending := !next;
    incr attempt;
    if !pending = [] || !attempt > retries then finished := true
  done;
  (* a token trip can leave requeued slots unrecorded *)
  Array.map
    (function
      | Some r -> r
      | None -> (
          match Supervise.tripped supervise with
          | Some reason -> Error (Interrupted reason)
          | None -> Error Timed_out))
    results

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
