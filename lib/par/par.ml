(* A fixed-size domain pool with index-ordered reduction.  See the .mli
   for the determinism contract; the implementation notes here cover the
   synchronisation argument.

   One [run] publishes a "job": a claim-loop closure over an atomic
   next-task counter.  Workers park on [have_work] between jobs; the
   caller participates in its own job, then waits on [work_done] until
   the completion counter reaches [tasks].  Every task index is claimed
   exactly once ([Atomic.fetch_and_add]), and a worker registers itself
   in [active] (under the pool mutex) before it can claim anything, so
   [completed < tasks] implies a registered worker still holds a task
   and will broadcast when it finishes.  Result visibility: a task's
   plain writes happen before its [completed] increment (atomic), and
   the caller reads [completed = tasks] before touching results, so all
   writes are visible by the usual release/acquire argument. *)

(* per-domain attribution: tasks executed by each pool slot (slot 0 is
   the calling domain), plus one span per parallel region *)
let slot_counter slot =
  Obs.Metric.counter (Printf.sprintf "par.tasks.slot%d" slot)

module Pool = struct
  type t = {
    size : int;
    m : Mutex.t;
    have_work : Condition.t;
    work_done : Condition.t;
    mutable epoch : int;
    mutable job : (slot:int -> unit) option;
    mutable active : int;
    mutable stopping : bool;
    mutable spawned : bool;
    mutable domains : unit Domain.t list;
    slot_counters : Obs.Metric.counter array;
  }

  let create ~jobs =
    let size = max 1 (min jobs (Domain.recommended_domain_count ())) in
    {
      size;
      m = Mutex.create ();
      have_work = Condition.create ();
      work_done = Condition.create ();
      epoch = 0;
      job = None;
      active = 0;
      stopping = false;
      spawned = false;
      domains = [];
      slot_counters = Array.init size slot_counter;
    }

  let size t = t.size

  let rec worker_loop t ~slot last_epoch =
    Mutex.lock t.m;
    while (not t.stopping) && (t.epoch = last_epoch || t.job = None) do
      Condition.wait t.have_work t.m
    done;
    if t.stopping then Mutex.unlock t.m
    else begin
      let epoch = t.epoch in
      let job = Option.get t.job in
      t.active <- t.active + 1;
      Mutex.unlock t.m;
      (try job ~slot with _ -> () (* jobs catch their own exceptions *));
      Mutex.lock t.m;
      t.active <- t.active - 1;
      Condition.broadcast t.work_done;
      Mutex.unlock t.m;
      worker_loop t ~slot epoch
    end

  let ensure_spawned t =
    if not t.spawned then begin
      t.spawned <- true;
      t.domains <-
        List.init (t.size - 1) (fun i ->
            Domain.spawn (fun () ->
                (* register this domain's metric shard before any timed
                   work so the first in-task [incr] is just a store *)
                Obs.Metric.prewarm ();
                worker_loop t ~slot:(i + 1) t.epoch))
    end

  let shutdown t =
    Mutex.lock t.m;
    t.stopping <- true;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    let ds = t.domains in
    t.domains <- [];
    List.iter Domain.join ds

  (* Publish [claim] to the workers, run it on the caller too, and wait
     until [completed] says every task has settled. *)
  let drive t ~tasks ~(claim : slot:int -> unit) ~(completed : int Atomic.t) =
    ensure_spawned t;
    Mutex.lock t.m;
    t.job <- Some claim;
    t.epoch <- t.epoch + 1;
    Condition.broadcast t.have_work;
    Mutex.unlock t.m;
    claim ~slot:0;
    Mutex.lock t.m;
    while Atomic.get completed < tasks do
      Condition.wait t.work_done t.m
    done;
    t.job <- None;
    Mutex.unlock t.m
end

(* ------------------------------------------------------------------ *)
(* Default pool configuration                                          *)
(* ------------------------------------------------------------------ *)

let env_jobs () =
  match Sys.getenv_opt "FOLEARN_JOBS" with
  | None -> 1
  | Some s -> ( match int_of_string_opt (String.trim s) with
    | Some n when n >= 1 -> n
    | _ -> 1)

let configured_jobs = ref None
let default_pool = ref None
let at_exit_registered = ref false

let jobs () =
  match !configured_jobs with Some n -> n | None -> env_jobs ()

let shutdown_default () =
  match !default_pool with
  | None -> ()
  | Some p ->
      default_pool := None;
      Pool.shutdown p

let set_jobs n =
  if n < 1 then invalid_arg "Par.set_jobs: jobs must be >= 1";
  configured_jobs := Some n;
  shutdown_default ()

let default () =
  match !default_pool with
  | Some p -> p
  | None ->
      let p = Pool.create ~jobs:(jobs ()) in
      default_pool := Some p;
      if not !at_exit_registered then begin
        at_exit_registered := true;
        at_exit shutdown_default
      end;
      p

(* ------------------------------------------------------------------ *)
(* Chunked map/reduce                                                  *)
(* ------------------------------------------------------------------ *)

(* Run [f 0 .. f (tasks-1)] across the pool.  A task exception fails
   the run: tasks not yet started are skipped, and once every started
   task has settled the lowest-indexed failure is re-raised with its
   backtrace.  Indices are claimed in increasing order, so every task
   below a failing one has already started and reports its own failure
   if it has one: the sequential run's first failure wins. *)
let run (t : Pool.t) ~tasks f =
  if t.Pool.size <= 1 || tasks = 1 || t.Pool.stopping then
    for i = 0 to tasks - 1 do
      f i
    done
  else
    Obs.Span.with_ "par.run"
      ~args:
        [ ("jobs", string_of_int t.Pool.size);
          ("tasks", string_of_int tasks) ]
    @@ fun () ->
    let next = Atomic.make 0 in
    let completed = Atomic.make 0 in
    let failure : (int * exn * Printexc.raw_backtrace) option Atomic.t =
      Atomic.make None
    in
    let rec record_failure i e bt =
      match Atomic.get failure with
      | Some (j, _, _) when j <= i -> ()
      | cur ->
          if not (Atomic.compare_and_set failure cur (Some (i, e, bt))) then
            record_failure i e bt
    in
    let claim ~slot =
      let executed = ref 0 in
      let rec loop () =
        let i = Atomic.fetch_and_add next 1 in
        if i < tasks then begin
          (if Atomic.get failure = None then begin
             incr executed;
             try f i
             with e -> record_failure i e (Printexc.get_raw_backtrace ())
           end);
          ignore (Atomic.fetch_and_add completed 1);
          loop ()
        end
      in
      loop ();
      if !executed > 0 && Obs.Sink.enabled () then
        Obs.Metric.add t.Pool.slot_counters.(slot) !executed
    in
    Pool.drive t ~tasks ~claim ~completed;
    match Atomic.get failure with
    | Some (_, e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> ()

let map_reduce_chunks t ~n ~map ~reduce ~init =
  if n <= 0 then init
  else begin
    let chunk = max 1 (n / (4 * Pool.size t)) in
    let tasks = (n + chunk - 1) / chunk in
    let pieces = Array.make tasks None in
    run t ~tasks (fun c ->
        let lo = c * chunk in
        pieces.(c) <- Some (map lo (min n (lo + chunk))));
    Array.fold_left (fun acc p -> reduce acc (Option.get p)) init pieces
  end
