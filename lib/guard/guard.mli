(** Cooperative resource governance for the learning pipeline.

    Every headline object of the paper is galactic: Gaifman radii grow
    like [7^q], hypothesis catalogues are towers in [Phi(q,k,l)], and
    the hardness reduction leans on Ramsey numbers.  Any user-supplied
    [q]/[k] beyond toy scale therefore sends the enumerate-and-check
    solvers into effectively unbounded work.  This module bounds that
    work {e cooperatively}: long-running loops call {!tick} (or one of
    the [note_*] observers) at their checkpoints, and a {!Budget.t} —
    fuel, a wall-clock deadline on the obs monotonic clock, and size
    caps — decides when to stop them.

    There is no ambient budget.  A computation carries the
    [Budget.t option] it charges as a value (in its type context, its
    sweep, its evaluation counter or an entry point's [?budget]) and
    hands it to every {!tick}; [None] charges nothing.

    Exhaustion never escapes as an exception.  {!run} converts the
    internal stop signal of its own budget into a structured
    {!outcome}: [Complete v] when the computation finished, or
    [Exhausted] carrying the best answer salvaged so far, the
    {!reason} and {!checkpoint} of the trip, and the resources
    {!type-spent}.

    Cost discipline matches [Obs.Sink]: an unbudgeted {!tick} is one
    branch.  A budgeted one is a domain-local decrement: each domain
    draws fuel from the budget's shared total in slabs of at most 32
    ticks, and only the tick that finds its slab empty does the shared
    work — the atomics, the trip cell, the interrupt flag, the fuel
    limit, the fault plan and the deadline clock.  So a deadline, an
    interrupt or another worker's trip stops a domain within 32 ticks.
    A slab never holds more than the fuel left, so on one domain a
    fuel trip lands on the first tick past the limit, and a domain
    never trips on fuel that another still holds.  {!Budget.spent}
    does not count drawn but unspent slabs, so the reported fuel is
    the ticks taken (exact once the charging domains are joined).
    Under a fault plan every tick takes the shared path and counts its
    per-class hit there, so a plan fires on the same hit as on one
    shared counter.  [max_table] is checked against the row count the
    caller reports, with no shared write per row.

    A deterministic fault-injection harness ({!Faults}) can force a
    trip at any checkpoint, so tests can exercise every degradation
    path without constructing a galactic instance. *)

(** {1 Checkpoints and reasons} *)

(** Where in the pipeline a budget check happens.  Each long-running
    loop declares which class it belongs to; fault plans target these
    classes. *)
type checkpoint =
  | Solver_loop  (** candidate enumeration in the [Erm_*] solvers and
                     the decision nodes of [Reduction.model_check] *)
  | Hintikka_build  (** type computation ([Types.tp]/[ltp]) and
                        Hintikka-formula construction *)
  | Bfs_frontier  (** vertex dequeues in [Cgraph.Bfs] traversals *)
  | Catalogue_growth  (** formulas added to a hypothesis catalogue *)
  | Eval_step  (** quantifier nodes in [Modelcheck.Eval] *)

(** Why a budget tripped. *)
type reason =
  | Out_of_fuel  (** the fuel allowance ran out *)
  | Deadline  (** the wall-clock deadline passed *)
  | Table_cap  (** too many Hintikka-table rows *)
  | Ball_cap  (** a neighbourhood ball grew past the cap *)
  | Injected_fault  (** a {!Faults} plan fired *)
  | Interrupted  (** {!interrupt} was requested (SIGINT/SIGTERM) *)

val checkpoint_to_string : checkpoint -> string
val reason_to_string : reason -> string

val all_checkpoints : checkpoint list

(** Resources consumed at the moment the budget was read. *)
type spent = {
  fuel : int;  (** checkpoints passed *)
  elapsed_ns : int64;  (** wall-clock time since the budget was made *)
  table_rows : int;  (** peak Hintikka-table rows observed *)
  ball_peak : int;  (** largest neighbourhood ball observed *)
  catalogue_entries : int;  (** peak catalogue size observed *)
}

val spent_to_json : spent -> Obs.Json.t

(** {1 Fault injection} *)

(** Deterministic fault plans.  A plan decides, from the checkpoint
    class and the number of times that class has been hit, whether to
    force a trip ([Injected_fault]).  Plans are pure, so a failing run
    replays exactly. *)
module Faults : sig
  type t

  val none : t

  val trip_at : checkpoint -> n:int -> t
  (** [trip_at cp ~n] fires on the [n]-th hit (1-based) of checkpoint
      class [cp], and never elsewhere. *)

  val seeded : seed:int -> rate:float -> t
  (** [seeded ~seed ~rate] fires pseudo-randomly with probability
      [rate] per hit, deterministically in [seed], the checkpoint
      class, and the hit count. *)

  val fires : t -> checkpoint -> int -> bool
  (** [fires t cp n] — does plan [t] fire on the [n]-th hit of [cp]?
      (1-based; exposed for tests.) *)
end

(** {1 Limits} *)

(** The four resource limits a run can be capped by, without the live
    counters: the one record the CLI flags, the RPC request, a tenant
    quota, a job and the static planner ([Analysis.Plan]) all use.
    [None] is unlimited. *)
module Limits : sig
  type t = {
    fuel : int option;  (** checkpoint ticks *)
    deadline_s : float option;  (** wall-clock seconds, relative *)
    max_table : int option;  (** Hintikka-table rows *)
    max_ball : int option;  (** neighbourhood-ball vertices *)
  }

  val none : t
  val is_none : t -> bool

  val meet : t -> t -> t
  (** Componentwise minimum: the tighter of two limits, [None] being
      unlimited (a tenant quota clamps a client's asks this way). *)

  val to_fields : t -> (string * Obs.Json.t) list
  (** The members [fuel], [deadline_s], [max_table] and [max_ball], in
      that order, [null] when unlimited. *)

  val of_json : Obs.Json.t -> t
  (** Read those members of an object; absent or [null] is unlimited.
      [of_json (Obj (to_fields l)) = l]. *)
end

(** {1 Budgets} *)

module Budget : sig
  type t

  val make :
    ?fuel:int ->
    ?timeout_s:float ->
    ?deadline_ns:int64 ->
    ?max_table:int ->
    ?max_ball:int ->
    ?faults:Faults.t ->
    unit ->
    t
  (** Omitted limits are unlimited.  The deadline is absolute: it is
      [timeout_s] from the moment [make] is called, on the obs
      monotonic clock.  [deadline_ns] is an already-absolute deadline
      on that clock (a server stamps it at admission so queue wait
      counts against the request); when both are given the earlier one
      governs, and {!limits} reports the resulting wall-clock cap as
      [deadline_s]. *)

  val of_limits : ?deadline_ns:int64 -> Limits.t -> t option
  (** [None] when [l] sets no limit, else a budget with [l]'s caps and
      its [deadline_s] from now — or from an earlier [deadline_ns]
      stamp, which then governs. *)

  val unlimited : unit -> t
  (** No limits — useful to account {!type-spent} without bounding. *)

  val limits : t -> Limits.t
  (** The limits this budget was created with ([deadline_s] is the
      original relative timeout, not the remaining time). *)

  val spent : t -> spent

  val for_stage : t -> t
  (** A fresh budget for a fallback stage: same limits and fault plan,
      fresh fuel/cap counters, but the {e same absolute deadline} — a
      degradation chain shares one wall clock. *)
end

(** {1 Checkpoint API (called by instrumented code)}

    Each takes the budget of the computation it charges; with [None]
    it is a no-op.  Charge a budget only inside its {!run}: a trip has
    nowhere else to unwind to. *)

val tick : ?cost:int -> Budget.t option -> checkpoint -> unit
(** Pass a checkpoint, consuming [cost] fuel (default 1).  When the
    budget is out of fuel, past its deadline, or the fault plan fires,
    control unwinds to the {!run} of that budget — never past it. *)

val note_table_row : Budget.t option -> int -> unit
(** Report the current Hintikka-table row count; trips [Table_cap]
    when it exceeds the budget's [max_table].  Also a
    [Hintikka_build] tick. *)

val note_ball : Budget.t option -> int -> unit
(** Report a neighbourhood-ball size; trips [Ball_cap] above
    [max_ball].  Also a [Bfs_frontier] tick. *)

val note_catalogue : Budget.t option -> int -> unit
(** Report the catalogue size (its peak is {!type-spent}'s
    [catalogue_entries]).  A [Catalogue_growth] tick. *)

(** {1 Interrupts}

    A POSIX signal handler may only do async-signal-safe work, so the
    CLI's SIGINT/SIGTERM handler just calls {!interrupt}.  The next
    budgeted {!tick} that refills its slab, on any domain, converts the
    flag into an [Interrupted] trip: the run unwinds to {!run}
    cooperatively, the salvage hook recovers the best-so-far answer,
    and the caller can flush a final checkpoint before exiting. *)

val interrupt : unit -> unit
(** Request a cooperative stop (async-signal-safe: one atomic store).
    Every domain charging a budget trips within 32 ticks. *)

val interrupt_requested : unit -> bool
val clear_interrupt : unit -> unit

(** {1 Running under a budget} *)

(** Result of a governed computation. *)
type 'a outcome =
  | Complete of 'a
  | Exhausted of {
      best_so_far : 'a option;
          (** what the salvage hook recovered — for ERM solvers, the
              best hypothesis seen with its empirical error (still a
              sound hypothesis under agnostic semantics, only without
              the min-error certificate) *)
      reason : reason;
      checkpoint : checkpoint;
      spent : spent;
      refused : string option;
          (** the planner's reason when admission refused the run
              before it started; [None] when the budget tripped *)
    }

val run : ?budget:Budget.t -> salvage:(unit -> 'a option) -> (unit -> 'a) -> 'a outcome
(** [run ?budget ~salvage f] evaluates [f ()] and catches the trips of
    [budget].  [f] must pass [budget] to the code it wants charged.

    - With no [budget], this is transparent: [Complete (f ())].
    - On completion, returns [Complete v].
    - When [budget] trips, calls [salvage ()], records an obs
      exhaustion counter, and returns [Exhausted].  [budget] has
      tripped, so any charge to it during [salvage] unwinds again and
      the salvage yields [None]: salvage from plain state.

    Nesting: a [run] catches only its own budget's trips.  A trip of
    an outer budget inside an inner [run ~budget:b2] passes through
    it to the outer [run], which reports the outer reason and
    checkpoint.  Other exceptions propagate unchanged. *)

val outcome_map : ('a -> 'b) -> 'a outcome -> 'b outcome
