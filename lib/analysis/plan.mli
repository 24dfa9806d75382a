(** Static cost analysis and query planning for the learning pipeline
    ("focost").

    Abstract interpretation of the ERM solvers of {e On the
    Parameterized Complexity of Learning First-Order Logic} (van
    Bergerem–Grohe–Ritzert, PODS 2022): for a hypothesis-class budget
    [(q, k, ℓ, r)] and cheap, {e guard-tick-free} structure statistics
    ({!Cgraph.Stats}), compute symbolic saturating envelopes
    ({!Cost_model.Env}) on everything the runtime {!Guard} meters —
    fuel, Hintikka-table rows, neighbourhood-ball sizes — plus the
    candidate-catalogue cardinalities of Theorem 10 (brute/counting
    enumeration over [n^ℓ] parameter tuples), Theorem 13 / Lemma 15
    (the local solver's pool-restricted catalogue), and the
    degree-bounded ball forms of Grohe–Ritzert (arXiv:1701.05487).

    Three consumers:
    {ul
    {- [folearn_cli plan] — a JSON plan: predicted spend, the
       recommended solver and job count, and the predicted exit code
       (0 complete / 3 degraded / 4 exhausted-empty) for given limits;}
    {- the admission {!precheck} wired into the [Erm_*] solvers and
       [Reduction.model_check], which converts {e provably} infeasible
       budgets into an immediate structured rejection instead of a
       doomed burn ([--no-precheck] escapes);}
    {- the prediction-vs-actual calibration harness (bench E18), which
       replays {!t} envelopes against recorded [Obs] counters.}}

    Soundness contract: [lo] fields are lower bounds on what any run
    spends, [hi] fields upper bounds on what a completing run can
    spend.  Certainty claims ({!predict}, {!precheck}) only ever use
    the sound side; wall-clock deadlines are never grounds for a
    certain prediction. *)

type solver = Brute | Local | Nd | Counting

val solver_name : solver -> string
val solver_of_name : string -> solver option

(** A planning problem: the structure, the labelled-example roots, and
    the hypothesis-class budgets of the class [Phi(q, k, ℓ)]. *)
type input = {
  g : Cgraph.Graph.t;
  examples : Cgraph.Graph.Tuple.t list;  (** example roots (with repeats) *)
  k : int;
  ell : int;
  q : int;
  radius : int option;
      (** locality radius override; default is Gaifman's
          [(7^q - 1)/2] for {!Local} and [1] for {!Nd}, matching the
          CLI defaults *)
  tmax : int;
      (** counting-threshold cap of the counting solver (its cost does
          not depend on it) *)
}

val input :
  ?radius:int ->
  ?tmax:int ->
  Cgraph.Graph.t ->
  k:int ->
  ell:int ->
  q:int ->
  Cgraph.Graph.Tuple.t list ->
  input

(** The envelope bundle for one solver run.  [first] envelopes bound
    the spend up to the moment the {e first} candidate hypothesis
    settles (the earliest point a budget trip can still salvage a
    best-so-far answer); [total] envelopes bound a completing run. *)
type t = {
  solver : solver;
  stage_q : int;  (** quantifier rank of this (possibly fallback) stage *)
  fuel_first : Cost_model.Env.t;
  fuel_total : Cost_model.Env.t;
  table_first : Cost_model.Env.t;
      (** peak computed type rows in one type context *)
  table_total : Cost_model.Env.t;
  ball_first : Cost_model.Env.t;  (** largest neighbourhood ball reported *)
  ball_total : Cost_model.Env.t;
  hypotheses : Cost_model.Env.t;  (** candidates enumerated (Theorem 10) *)
  type_evals : Cost_model.Env.t;
      (** computed type rows ([tp] nodes for brute, [ltp] misses for
          local/nd) — the calibration target of bench E18 *)
  exact : bool;  (** every envelope has [lo = hi] *)
  notes : string list;
}

val analyze : input -> solver -> t
(** Envelopes for one solver.  Brute and counting are {e exact}
    (Lemma 19's recursive type computation computes a deterministic
    number of type rows) and equal: a counting type costs the rows of
    the plain one at any cap; local is exact up to the first candidate and bounded by
    the touched neighbourhood afterwards; nd is coarse (see {!t}
    notes). *)

val degrade_stages : input -> t list
(** The stage sequence a budgeted [--solver local] run executes
    ([Degrade.learn]): local at rank [q], then brute fallbacks at ranks
    [q-1, ..., 0] — each stage with a fresh fuel allowance. *)

(** {1 Exit-code prediction} *)

val limits :
  ?fuel:int -> ?timeout_s:float -> ?max_table:int -> ?max_ball:int -> unit ->
  Guard.Limits.t
(** A {!Guard.Limits.t}, [timeout_s] being its [deadline_s]. *)

type verdict =
  | Complete  (** exit 0: finished with the min-error certificate *)
  | Degraded  (** exit 3: a hypothesis without the certificate *)
  | Exhausted_nothing  (** exit 4: tripped before anything settled *)

val exit_code : verdict -> int

type prediction = { verdict : verdict; certain : bool; reason : string }

val predict : t -> Guard.Limits.t -> prediction
(** [certain = true] only when the verdict is forced by the sound side
    of the envelopes: completion needs the limits to cover every [hi];
    exit 4 needs some limit below a [first.lo]; exit 3 needs the first
    settle provably affordable and completion provably not.  A
    wall-clock [deadline_s] disables the 0/3 certainties (deadlines are
    not statically predictable). *)

val predict_chain : t list -> Guard.Limits.t -> prediction
(** Prediction for a {!degrade_stages} sequence under [Degrade.learn]
    semantics: completion of the head stage is exit 0; any later
    completion or any salvage is exit 3; exit 4 only when every stage
    provably strands. *)

(** {1 Fuel suggestions} *)

(** Suggested [--fuel] values bracketing the three exit codes:
    [ample] provably completes, [tight] provably settles the first
    candidate but provably cannot finish (exit 3), [infeasible]
    provably trips before anything settles (exit 4).  [None] when the
    corresponding band is empty or beyond [max_int]. *)
type fuel_suggestion = {
  ample : int option;
  tight : int option;
  infeasible : int option;
}

val suggest_fuel : t -> fuel_suggestion
val suggest_fuel_chain : t list -> fuel_suggestion

(** {1 Recommendation} *)

type recommendation = { solver : solver; jobs : int; reason : string }

val recommend : t list -> recommendation
(** Smallest worst-case fuel envelope wins (exactness breaks ties); the
    counting solver is excluded unless it is the only plan (it answers
    a different — threshold-counting — hypothesis class).  [jobs]
    scales with the candidate-catalogue cardinality. *)

(** {1 Admission precheck} *)

type rejection = {
  what : string;  (** rejecting entry point, e.g. ["Erm_brute"] *)
  resource : string;  (** ["fuel"], ["max-table"], or ["max-ball"] *)
  required : Cost_model.Count.t;  (** sound lower bound on the resource *)
  limit : int;  (** the limit that falls short *)
  message : string;
  diagnostic : Diagnostic.t;  (** rule [budget-infeasible] *)
}

val precheck : what:string -> t -> Guard.Limits.t -> rejection option
(** [Some _] only when the run is {e provably} doomed to exit 4: a
    limit strictly below the sound first-settle floor.  Never fires on
    deadlines, and never on merely-unlikely budgets. *)

val precheck_chain : what:string -> t list -> Guard.Limits.t -> rejection option
(** Rejects a degradation chain only when {e every} stage is provably
    doomed. *)

val model_check_floor : n:int -> Fo.Formula.t -> int
(** Sound, oracle-agnostic lower bound on the [Solver_loop] ticks of a
    completed [Reduction.model_check] run over an order-[n] structure:
    one tick per decision node on the cheapest short-circuit path of
    the Lemma 7 reduction.  Exposed for the property tests. *)

val precheck_model_check :
  what:string -> n:int -> Fo.Formula.t -> Guard.Limits.t -> rejection option
(** Model checking salvages nothing, so any provable trip
    ([fuel < {!model_check_floor}]) is a provable exit 4. *)

(** {1 JSON} *)

val to_json : t -> Obs.Json.t
val prediction_to_json : prediction -> Obs.Json.t
val suggestion_to_json : fuel_suggestion -> Obs.Json.t
val recommendation_to_json : recommendation -> Obs.Json.t
