(** folserve: the resident multi-tenant learning service daemon.

    One process, three tiers:
    - {e connection threads} (capped) frame-decode requests and run
      admission: tenant quota clamp ({!Guard.Limits.meet}),
      absolute-deadline stamping, and the zero-fuel precheck
      ([Folearn.Admission]) — an over-budget request is refused
      ([rejected], reason [would_exhaust]) before a single unit of fuel
      is spent (a refused [learn] still queues for the engine, which
      labels its sample for the training line the CLI prints); the
      engine runs an admitted request without prechecking it again;
    - a {e bounded queue} ({!Sched}) between admission and execution —
      a full queue sheds the earliest-deadline request ([overloaded],
      retryable);
    - one {e engine domain} executes requests serially against the
      warm process state (interned types, compiled evaluators, the
      default [Par] pool), which is where the resident service beats
      the one-shot CLI.

    Long jobs ([submit]/[poll]) persist to a {!Jobs} table and
    checkpoint via [Resil]; a SIGKILLed server resumes them on
    restart.  SIGTERM drains: stop accepting, answer [draining],
    finish everything already admitted, flip [/healthz] to
    [503 draining], exit 0. *)

type config = {
  listen : Pulse.Addr.t;
  tenants : Tenant.t;
  queue_cap : int;
  job_dir : string;
  max_conns : int;
  engine_jobs : int;  (** engine [Par] pool width *)
  metrics_addr : Pulse.Addr.t option;
}

val run : config -> (int, string) result
(** Bind, resume pending jobs, serve until SIGTERM/SIGINT, drain.
    [Ok 0] on a clean drain; [Error _] when the listener cannot be
    set up.  Installs SIGTERM/SIGINT/SIGPIPE handlers and enables
    [Obs] metrics process-wide. *)
