(** A fixed-size pool of OCaml 5 domains executing batches of independent
    tasks.

    The pool holds [size - 1] worker domains; the caller of {!run_tasks}
    is the remaining participant, so a pool of size 1 has no workers at
    all and runs every batch inline — byte-for-byte the sequential path.

    A batch is an indexed set of tasks [run 0 .. run (n-1)].  Participants
    claim indexes from a shared atomic cursor (work stealing at task
    granularity), so load balances even when task costs are skewed.  The
    caller blocks until every claimed task has {e finished} — not merely
    been claimed — which gives the happens-before edge that makes the
    tasks' writes (each into its own result slot) visible to the caller.

    Determinism contract: the pool never reorders results — tasks are
    identified by index and callers collect per-index outputs, so any
    order-sensitive combining (the ⊎-merge of per-rule deltas) happens
    sequentially in the caller, in fixed index order.  What the pool does
    {e not} promise is the order of side effects {e during} a batch;
    tasks must therefore only read shared state and write task-private
    state (see [Ivm_eval.Par_eval] for the evaluation-side discipline).

    The first exception raised by a task is re-raised in the caller after
    the batch drains; remaining tasks still run (they are independent by
    contract, and letting the batch drain keeps the pool reusable).

    Observability: [ivm_par_pool_size] gauge, [ivm_par_batches_total]
    counter, and per-participant [ivm_par_tasks_total{domain=i}] counters
    (domain 0 is the caller), pre-registered at pool creation.  Like every
    registry counter they are exact whichever domains bump them
    ({!Ivm_obs.Metrics}). *)

module Metrics = Ivm_obs.Metrics

type job = {
  id : int;
  run : int -> unit;
  n : int;
  next : int Atomic.t;  (** next unclaimed task index *)
  completed : int Atomic.t;  (** tasks finished (not just claimed) *)
  mutable failed : (exn * Printexc.raw_backtrace) option;
      (** first task failure; written under the pool lock *)
}

type t = {
  size : int;  (** participants: worker domains + the calling domain *)
  mutable workers : unit Domain.t array;
  lock : Mutex.t;
  work_cv : Condition.t;  (** a new job was posted, or shutdown *)
  done_cv : Condition.t;  (** the current job's last task finished *)
  mutable job : job option;
  mutable next_id : int;
  mutable stopped : bool;
  task_counters : Metrics.counter array;
  batches_c : Metrics.counter;
}

let size t = t.size

(* ---------------- task execution ---------------- *)

(** Claim and run tasks of [j] until the cursor runs out.  Called by
    workers and by the posting caller alike. *)
let drain pool j slot =
  let continue_ = ref true in
  while !continue_ do
    let i = Atomic.fetch_and_add j.next 1 in
    if i >= j.n then continue_ := false
    else begin
      Metrics.inc pool.task_counters.(slot);
      (try j.run i
       with e ->
         let bt = Printexc.get_raw_backtrace () in
         Mutex.lock pool.lock;
         if j.failed = None then j.failed <- Some (e, bt);
         Mutex.unlock pool.lock);
      if Atomic.fetch_and_add j.completed 1 = j.n - 1 then begin
        (* last task: wake the caller waiting in run_tasks *)
        Mutex.lock pool.lock;
        Condition.broadcast pool.done_cv;
        Mutex.unlock pool.lock
      end
    end
  done

let worker pool slot =
  let last_id = ref (-1) in
  let running = ref true in
  while !running do
    Mutex.lock pool.lock;
    while
      (not pool.stopped)
      &&
      match pool.job with
      | Some j -> j.id = !last_id  (* already drained this one *)
      | None -> true
    do
      Condition.wait pool.work_cv pool.lock
    done;
    if pool.stopped then begin
      Mutex.unlock pool.lock;
      running := false
    end
    else begin
      let j = match pool.job with Some j -> j | None -> assert false in
      last_id := j.id;
      Mutex.unlock pool.lock;
      drain pool j slot
    end
  done

(** Run the batch [run 0 .. run (n-1)] on all participants; returns when
    every task has finished.  Re-raises the first task exception.  Not
    reentrant: tasks must not call {!run_tasks} on the same pool. *)
let run_tasks pool ~n (run : int -> unit) : unit =
  if n > 0 then begin
    Metrics.inc pool.batches_c;
    if pool.size = 1 || n = 1 then
      for i = 0 to n - 1 do
        Metrics.inc pool.task_counters.(0);
        run i
      done
    else begin
      Mutex.lock pool.lock;
      pool.next_id <- pool.next_id + 1;
      let j =
        { id = pool.next_id; run; n; next = Atomic.make 0;
          completed = Atomic.make 0; failed = None }
      in
      pool.job <- Some j;
      Condition.broadcast pool.work_cv;
      Mutex.unlock pool.lock;
      drain pool j 0;
      Mutex.lock pool.lock;
      while Atomic.get j.completed < j.n do
        Condition.wait pool.done_cv pool.lock
      done;
      pool.job <- None;
      Mutex.unlock pool.lock;
      match j.failed with
      | Some (e, bt) -> Printexc.raise_with_backtrace e bt
      | None -> ()
    end
  end

(* ---------------- lifecycle ---------------- *)

let create ~domains : t =
  let size = max 1 domains in
  let pool =
    {
      size;
      workers = [||];
      lock = Mutex.create ();
      work_cv = Condition.create ();
      done_cv = Condition.create ();
      job = None;
      next_id = 0;
      stopped = false;
      task_counters =
        Array.init size (fun i ->
            Metrics.counter
              ~labels:[ ("domain", string_of_int i) ]
              "ivm_par_tasks_total");
      batches_c = Metrics.counter "ivm_par_batches_total";
    }
  in
  Metrics.set (Metrics.gauge "ivm_par_pool_size") (float_of_int size);
  if size > 1 then
    pool.workers <-
      Array.init (size - 1) (fun i -> Domain.spawn (fun () -> worker pool (i + 1)));
  pool

(** Stop and join the worker domains.  The pool must be idle. *)
let shutdown pool =
  if Array.length pool.workers > 0 then begin
    Mutex.lock pool.lock;
    pool.stopped <- true;
    Condition.broadcast pool.work_cv;
    Mutex.unlock pool.lock;
    Array.iter Domain.join pool.workers;
    pool.workers <- [||]
  end
