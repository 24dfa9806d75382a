module J = Obs.Json

type config = {
  listen : Pulse.Addr.t;
  tenants : Tenant.t;
  queue_cap : int;
  job_dir : string;
  max_conns : int;
  engine_jobs : int;
  metrics_addr : Pulse.Addr.t option;
}

(* -- metrics ------------------------------------------------------- *)

let m_requests = Obs.Metric.counter "serve.requests"
let m_rejected = Obs.Metric.counter "serve.rejected"
let m_overloaded = Obs.Metric.counter "serve.overloaded"
let m_shed = Obs.Metric.counter "serve.shed"
let m_completed = Obs.Metric.counter "serve.completed"
let m_degraded = Obs.Metric.counter "serve.degraded"
let m_exhausted = Obs.Metric.counter "serve.exhausted"
let m_usage = Obs.Metric.counter "serve.usage"
let m_deadline_expired = Obs.Metric.counter "serve.deadline_expired"
let m_jobs_submitted = Obs.Metric.counter "serve.jobs_submitted"
let m_jobs_resumed = Obs.Metric.counter "serve.jobs_resumed"
let m_draining = Obs.Metric.counter "serve.draining_refusals"
let m_conns = Obs.Metric.gauge "serve.connections"

let tenant_requests tenant =
  Obs.Metric.incr
    (Obs.Metric.counter (Printf.sprintf "serve.tenant.%s.requests" tenant))

let count_outcome code =
  Obs.Metric.incr
    (match code with
    | 0 -> m_completed
    | 3 -> m_degraded
    | 4 -> m_exhausted
    | _ -> m_usage)

(* -- drain flag (the only state a signal handler touches) ---------- *)

let drain_requested = Atomic.make false

(* -- cross-thread/domain result cell ------------------------------- *)

type 'a cell = {
  cm : Mutex.t;
  cc : Condition.t;
  mutable cv : 'a option;
}

let cell () = { cm = Mutex.create (); cc = Condition.create (); cv = None }

let fill c v =
  Mutex.lock c.cm;
  if c.cv = None then begin
    c.cv <- Some v;
    Condition.broadcast c.cc
  end;
  Mutex.unlock c.cm

let await c =
  Mutex.lock c.cm;
  while c.cv = None do
    Condition.wait c.cc c.cm
  done;
  let v = Option.get c.cv in
  Mutex.unlock c.cm;
  v

(* -- admission ----------------------------------------------------- *)

let zero_spent =
  {
    Guard.fuel = 0;
    elapsed_ns = 0L;
    table_rows = 0;
    ball_peak = 0;
    catalogue_entries = 0;
  }

(* The clamped limits, with the deadline stamped absolute at admission
   time so queue wait counts against the request. *)
type admitted = { limits : Guard.Limits.t; deadline_ns : int64 option }

let admit_budget tenants (req : Proto.request) =
  let limits =
    Guard.Limits.meet (Tenant.quota_for tenants req.tenant) req.budget
  in
  {
    limits;
    deadline_ns =
      Option.map
        (fun s -> Int64.add (Obs.Clock.now_ns ()) (Int64.of_float (s *. 1e9)))
        limits.deadline_s;
  }

let deadline_expired a =
  match a.deadline_ns with
  | Some d -> Obs.Clock.now_ns () > d
  | None -> false

let expired_response () =
  Obs.Metric.incr m_deadline_expired;
  Proto.response ~status:"exhausted" ~code:4
    ~stderr:"folearn serve: deadline expired while queued\n"
    ~spent:zero_spent
    ~extra:
      [
        ( "error",
          J.Obj
            [
              ("reason", J.String "deadline");
              ("message", J.String "deadline expired while queued");
            ] );
      ]
    ()

let response_of_run (r : Exec.run) =
  count_outcome r.code;
  Proto.response ~status:(Proto.status_of_code r.code) ~code:r.code
    ~stdout:r.out ~stderr:r.err ?spent:r.spent ()

(* -- server state -------------------------------------------------- *)

type server = {
  cfg : config;
  queue : Sched.t;
  jobs : Jobs.t;
  seq : int Atomic.t;
}

let next_seq s = Atomic.fetch_and_add s.seq 1

(* -- direct calls (learn/mc/types/game on the engine) -------------- *)

(* Queue [respond] for the engine and wait for the response it builds. *)
let on_engine s (req : Proto.request) a respond =
  let result = cell () in
  let entry =
    {
      Sched.e_seq = next_seq s;
      e_tenant = req.tenant;
      e_deadline_ns = a.deadline_ns;
      e_run = (fun () -> fill result (respond ()));
      e_shed =
        (fun () ->
          Obs.Metric.incr m_shed;
          fill result
            (Proto.overloaded ~message:"request shed under queue pressure"));
    }
  in
  match Sched.push s.queue entry with
  | `Queued -> await result
  | `Shed_incoming ->
      Obs.Metric.incr m_overloaded;
      Proto.overloaded ~message:"queue full; request refused"
  | `Closed ->
      Obs.Metric.incr m_draining;
      Proto.draining ()

let enqueue_call s (req : Proto.request) a (e : Exec.admitted) =
  on_engine s req a (fun () ->
      if deadline_expired a then expired_response ()
      else
        let budget =
          Guard.Budget.of_limits ?deadline_ns:a.deadline_ns a.limits
        in
        response_of_run (e.run ?budget ()))

(* Zero-fuel static precheck: refuse before any fuel is spent.  A CLI
   learn prints its training line before its precheck refuses, so a
   refused learn takes the line from the engine, where the sample can
   be labelled; the other refusals print nothing and answer at once.
   The refusal stands even if the line cannot be rendered: [respond]
   must fill the cell, or the connection would wait forever. *)
let refusal_response s (req : Proto.request) a (e : Exec.admitted) r =
  Obs.Metric.incr m_rejected;
  let refuse stdout =
    Proto.rejected ~stdout ~resource:r.Analysis.Plan.resource
      ~message:r.message ~spent:zero_spent
  in
  if req.op = "learn" then
    on_engine s req a (fun () ->
        refuse (try e.training_line () with _ -> ""))
  else refuse ""

(* -- jobs (submit/poll) -------------------------------------------- *)

let job_snapshot_extra (j : Jobs.job) =
  match j.j_mismatch with
  | None -> []
  | Some m ->
      [
        ( "snapshot_mismatch",
          J.Obj
            [
              ("field", J.String m.Resil.Snapshot.field);
              ("expected", J.String m.expected);
              ("found", J.String m.found);
              ( "hint",
                J.String
                  "a foreign snapshot squatted on this job's path and was \
                   discarded" );
            ] );
      ]

let job_extra (j : Jobs.job) =
  [
    ( "job",
      J.Obj
        [
          ("id", J.String j.j_id);
          ("status", J.String (Jobs.status_string j.j_status));
        ] );
  ]
  @ job_snapshot_extra j

(* [admitted] is the submitted request, while this process holds it *)
let run_job ?(admitted : Exec.admitted option) s (j : Jobs.job) =
  Jobs.mark_running s.jobs j.j_id;
  (* a checkpointed job always runs budgeted — unlimited when the
     client asked nothing — so its snapshots record spent fuel *)
  let budget =
    match Guard.Budget.of_limits j.j_limits with
    | Some b -> b
    | None -> Guard.Budget.unlimited ()
  in
  let resume = Jobs.resume_snapshot s.jobs j in
  let ckpt =
    Resil.Ctl.create
      ~path:(Jobs.snap_path s.jobs j.j_id)
      ~interval_s:0.5 ~budget ?resume ~run_id:j.j_id ~solver:j.j_solver ()
  in
  let r =
    match admitted with
    | Some e -> e.run ~budget ~ckpt ()
    | None ->
        Exec.run_op ~budget ~ckpt ~precheck:false ~op:"learn"
          ~params:j.j_params ()
  in
  count_outcome r.code;
  let spent =
    match r.spent with None -> J.Null | Some sp -> Guard.spent_to_json sp
  in
  Jobs.mark_done s.jobs j.j_id ~code:r.code ~stdout:r.out ~stderr:r.err ~spent

let enqueue_job ?admitted s (j : Jobs.job) =
  let entry =
    {
      Sched.e_seq = next_seq s;
      e_tenant = j.j_tenant;
      e_deadline_ns = None;
      e_run = (fun () -> run_job ?admitted s j);
      e_shed =
        (fun () ->
          Obs.Metric.incr m_shed;
          Jobs.mark_shed s.jobs j.j_id);
    }
  in
  Sched.push s.queue entry

let handle_submit s (req : Proto.request) a (e : Exec.admitted) =
  match e.identity () with
  | Error msg -> Proto.error ~message:msg
  | Ok (run_id, solver) -> (
      match
        Jobs.submit s.jobs ~id:run_id ~tenant:req.tenant ~solver
          ~params:req.params ~limits:a.limits
      with
      | `Existing j ->
          Proto.response ~status:"accepted" ~code:0 ~extra:(job_extra j) ()
      | `New j -> (
          Obs.Metric.incr m_jobs_submitted;
          match enqueue_job ~admitted:e s j with
          | `Queued ->
              Proto.response ~status:"accepted" ~code:0 ~extra:(job_extra j) ()
          | `Shed_incoming ->
              Obs.Metric.incr m_overloaded;
              Jobs.mark_shed s.jobs j.j_id;
              Proto.overloaded ~message:"queue full; job shed"
          | `Closed ->
              Obs.Metric.incr m_draining;
              Jobs.mark_shed s.jobs j.j_id;
              Proto.draining ()))

let handle_poll s (req : Proto.request) =
  match Option.bind (J.member "id" req.params) J.to_string_opt with
  | None -> Proto.error ~message:"poll: missing string parameter \"id\""
  | Some id -> (
      match Jobs.get s.jobs id with
      | None ->
          Proto.job_mismatch ~field:"job id" ~expected:id
            ~found:"no such job on this server"
      | Some j -> (
          match j.j_status with
          | Jobs.Done ->
              let spent_extra = [ ("spent", j.j_spent) ] in
              J.Obj
                ([
                   ("schema_version", J.Int Proto.schema_version);
                   ("status", J.String (Proto.status_of_code j.j_code));
                   ("code", J.Int j.j_code);
                   ("stdout", J.String j.j_stdout);
                   ("stderr", J.String j.j_stderr);
                 ]
                @ spent_extra @ job_extra j)
          | Jobs.Shed ->
              Proto.response ~status:"overloaded" ~code:Proto.exit_retry
                ~extra:(job_extra j) ()
          | Jobs.Queued ->
              Proto.response ~status:"queued" ~code:0 ~extra:(job_extra j) ()
          | Jobs.Running ->
              Proto.response ~status:"running" ~code:0 ~extra:(job_extra j) ()))

(* -- request dispatch (runs on a connection thread) ---------------- *)

let handle_request s (req : Proto.request) =
  Obs.Metric.incr m_requests;
  tenant_requests req.tenant;
  match req.op with
  | "ping" ->
      Proto.response ~status:"complete" ~code:0
        ~extra:[ ("pong", J.Bool true) ]
        ()
  | "poll" -> handle_poll s req
  | "learn" | "mc" | "types" | "game" | "submit" -> (
      if Atomic.get drain_requested then begin
        Obs.Metric.incr m_draining;
        Proto.draining ()
      end
      else
        let a = admit_budget s.cfg.tenants req in
        match Exec.admit ~op:req.op ~params:req.params ~limits:a.limits with
        | Error msg -> Proto.error ~message:msg
        | Ok e -> (
            match e.rejection with
            | Some r -> refusal_response s req a e r
            | None ->
                if req.op = "submit" then handle_submit s req a e
                else enqueue_call s req a e))
  | op -> Proto.error ~message:(Printf.sprintf "unknown op %S" op)

(* -- connection loop ----------------------------------------------- *)

let active_conns = Atomic.make 0

let handle_conn s fd =
  Atomic.incr active_conns;
  Obs.Metric.set m_conns (float_of_int (Atomic.get active_conns));
  Fun.protect
    ~finally:(fun () ->
      Atomic.decr active_conns;
      Obs.Metric.set m_conns (float_of_int (Atomic.get active_conns));
      try Unix.close fd with _ -> ())
    (fun () ->
      let rec loop () =
        match Frame.read fd with
        | Error `Eof -> ()
        | Error (`Error msg) ->
            (* best effort: the peer may already be gone *)
            ignore (Frame.write fd (Proto.error ~message:msg))
        | Ok j -> (
            let resp =
              match Proto.request_of_json j with
              | Error msg -> Proto.error ~message:msg
              | Ok req -> (
                  try handle_request s req
                  with e ->
                    Proto.error
                      ~message:
                        (Printf.sprintf "internal error: %s"
                           (Printexc.to_string e)))
            in
            match Frame.write fd resp with Ok () -> loop () | Error _ -> ())
      in
      loop ())

let accept_loop s listener =
  let rec loop () =
    if Atomic.get drain_requested then ()
    else begin
      (match Unix.select [ listener ] [] [] 0.25 with
      | [], _, _ -> ()
      | _ :: _, _, _ -> (
          match Unix.accept listener with
          | exception Unix.Unix_error _ -> ()
          | fd, _ ->
              if Atomic.get active_conns >= s.cfg.max_conns then begin
                Obs.Metric.incr m_overloaded;
                ignore
                  (Frame.write fd
                     (Proto.overloaded ~message:"connection limit reached"));
                try Unix.close fd with _ -> ()
              end
              else ignore (Thread.create (fun () -> handle_conn s fd) ()))
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
      loop ()
    end
  in
  loop ()

(* -- drain --------------------------------------------------------- *)

let wait_conns_drained ~grace_s =
  let deadline = Unix.gettimeofday () +. grace_s in
  while Atomic.get active_conns > 0 && Unix.gettimeofday () < deadline do
    Thread.delay 0.05
  done

let drain_grace () =
  match Sys.getenv_opt "FOLEARN_DRAIN_GRACE" with
  | Some v -> ( match float_of_string_opt v with Some f -> f | None -> 0.0)
  | None -> 0.0

(* -- entry point --------------------------------------------------- *)

let run cfg =
  Obs.enable ();
  Obs.Metric.prewarm ();
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  Atomic.set drain_requested false;
  (* the handler only stores atomics: no locks at signal time *)
  let on_signal _ =
    Atomic.set drain_requested true;
    Pulse.Server.set_draining true
  in
  (try Sys.set_signal Sys.sigterm (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  (try Sys.set_signal Sys.sigint (Sys.Signal_handle on_signal)
   with Invalid_argument _ -> ());
  Par.set_jobs cfg.engine_jobs;
  ignore (Par.default ());
  let pulse =
    match cfg.metrics_addr with
    | None -> None
    | Some addr -> (
        match Pulse.Server.start addr with
        | Ok t -> Some t
        | Error e ->
            Printf.eprintf "folearn serve: metrics exporter: %s\n%!" e;
            None)
  in
  match Pulse.Addr.listen cfg.listen with
  | Error e ->
      Option.iter Pulse.Server.stop pulse;
      Error e
  | Ok (listener, bound) ->
      let s =
        {
          cfg;
          queue = Sched.create ~cap:cfg.queue_cap;
          jobs = Jobs.load ~dir:cfg.job_dir;
          seq = Atomic.make 0;
        }
      in
      (* re-enqueue work a previous incarnation left unfinished *)
      List.iter
        (fun j ->
          Obs.Metric.incr m_jobs_resumed;
          ignore (enqueue_job s j))
        (Jobs.pending s.jobs);
      let engine =
        Domain.spawn (fun () ->
            let rec loop () =
              match Sched.pop s.queue with
              | None -> ()
              | Some e ->
                  (try e.Sched.e_run () with _ -> ());
                  loop ()
            in
            loop ())
      in
      Printf.printf "folearn serve: listening on %s (queue cap %d)\n%!"
        (Pulse.Addr.to_string bound) cfg.queue_cap;
      accept_loop s listener;
      (* drain: stop accepting, finish everything admitted, exit 0 *)
      (try Unix.close listener with _ -> ());
      (match cfg.listen with
      | Pulse.Addr.Unix_sock path -> ( try Unix.unlink path with _ -> ())
      | _ -> ());
      Sched.close s.queue;
      Domain.join engine;
      wait_conns_drained ~grace_s:2.0;
      let grace = drain_grace () in
      if grace > 0.0 then Thread.delay grace;
      Option.iter Pulse.Server.stop pulse;
      Printf.printf "folearn serve: drained, exiting\n%!";
      Ok 0
