(** The op bodies of [learn], [mc], [types] and [game].

    The one-shot CLI and the resident daemon both call these bodies:
    the CLI with the process streams as [out]/[err], the daemon through
    {!run_op}, which captures them in buffers.  Solver entry points,
    print statements and the exit-code taxonomy (0 complete, 2 usage,
    3 degraded, 4 exhausted) therefore exist once, and a served op's
    stdout is byte-identical to the matching [folearn_cli] invocation.

    Each op takes one JSON parameter object, and this module alone
    decodes it: the CLI builds it from the op's flags (for a local run,
    for [call] and for [submit]), the daemon receives it in a request.
    Its members (optional unless noted; {!defaults} gives the defaults):
    - [learn]: [graph] (spec string, required), [colors] (list of
      [NAME=v,v] strings), [target] (required), [k], [ell], [q],
      [solver] (brute|nd|counting|local), [tmax], [noise], [m], [seed]
    - [mc]: [graph] (required), [colors], [formula] (required),
      [via_erm] (bool)
    - [types]: [graph] (required), [colors], [q], [k], [hintikka]
    - [game]: [graph] (required), [colors], [r]

    An absent or null member takes its default; a member of another
    JSON type than its own is a usage error that names it. *)

val parse_graph_spec : string -> (Cgraph.Graph.t, [ `Msg of string ]) result
(** The graph-spec DSL ([path:N], [grid:WxH], [gnp:N:P:SEED],
    [file:PATH], ...) of the [graph] member. *)

exception Usage of string
(** A usage error (exit code 2) with its [folearn <op>: ...] message:
    a bad graph spec, colour, solver or formula, an out-of-range
    parameter. *)

val defaults : string -> (string * Obs.Json.t) list
(** The optional members of an op's parameter object with their
    defaults ([[]] for an op without any). *)

val coloured_graph : op:string -> Obs.Json.t -> Cgraph.Graph.t
(** The [graph] member with the [colors] applied.  @raise Usage *)

type 'a runner =
  out:Format.formatter ->
  err:Format.formatter ->
  ?budget:Guard.Budget.t ->
  ckpt:Resil.Ctl.t ->
  precheck:bool ->
  'a ->
  int
(** Run a validated op, print its answer to [out] (diagnostics to
    [err]) and return its exit code. *)

(** {1 learn} *)

type solver = [ `Brute | `Nd | `Counting | `Local ]

val solver_name : solver -> string
val plan_solver : solver -> Analysis.Plan.solver

type learn_p = {
  lp_graph : Cgraph.Graph.t;  (** before [lp_colors] are applied *)
  lp_colors : (string * int list) list;
  lp_target : string option;  (** required by a learn, not by [plan] *)
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : solver;
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

val learn_params : op:string -> Obs.Json.t -> learn_p
(** Decode a learn parameter object; [op] names the command in usage
    messages.  @raise Usage *)

val learn_graph : op:string -> learn_p -> Cgraph.Graph.t
(** The learn-params layer: check [k, ell, q, m >= 0], [tmax >= 1] and
    [0 <= noise <= 1], then colour the graph.  @raise Usage *)

val learn_tuples : learn_p -> Cgraph.Graph.t -> Cgraph.Graph.Tuple.t list
(** All tuples when [m = 0], else [m] drawn with [seed]. *)

val learn_query :
  checkpointed:bool -> learn_p -> Cgraph.Graph.t -> Folearn.Admission.query
(** The admission query a learn of these parameters on the coloured
    graph makes: [Degrade] for [--solver local] (a budgeted local run is
    the degradation chain) unless it is [checkpointed], else [Solve] of
    its solver, Theorem 13 at [ell_star = max 1 ell]. *)

val check_target :
  op:string -> Cgraph.Graph.t -> k:int -> string -> Fo.Formula.t
(** Parse a target and check it is a query over [x1..xk] in the graph's
    vocabulary.  @raise Usage *)

type learn = {
  lp : learn_p;
  g : Cgraph.Graph.t;  (** coloured *)
  run_id : string Lazy.t;
      (** digest of every parameter, the graph's text included:
          checkpoint identity.  Forced only by what needs it
          (checkpoint/resume, [/progress]). *)
  tuples : Cgraph.Graph.Tuple.t list;
  sample : Folearn.Sample.t;  (** the tuples labelled by the target *)
}

val learn_prep : learn_p -> learn
(** Validate and label the training sequence; the run identity is left
    unforced.  @raise Usage *)

val learn_solve : learn runner
(** [--solver local] under a budget with at least one limit, and no
    active checkpoint, runs the degradation chain. *)

(** {1 mc, types, game} *)

type op
(** A validated [mc], [types] or [game] run. *)

val of_params : op:string -> Obs.Json.t -> op
(** Decode and validate the parameter object of op [op].  @raise Usage *)

val run_id : op -> string
val solve : op runner

(** {1 The daemon's entry points} *)

type run = {
  code : int;  (** 0 complete / 2 usage / 3 degraded / 4 exhausted *)
  out : string;  (** captured stdout, byte-identical to the CLI's *)
  err : string;  (** captured stderr (timing fields will differ) *)
  spent : Guard.spent option;
}

val run_op :
  ?budget:Guard.Budget.t ->
  ?ckpt:Resil.Ctl.t ->
  ?precheck:bool ->
  op:string ->
  params:Obs.Json.t ->
  unit ->
  run
(** Execute one op from its JSON parameters.  Must be called from at
    most one domain at a time (the engine): solvers share the default
    [Par] pool, which supports a single driver. *)

val learn_identity :
  Obs.Json.t -> (string * string, string) result
(** [(run_id, solver_name)] of a learn parameter object — the digest
    {!learn_prep} computes, without labelling the sample.  Used to key
    server-side jobs and their snapshots. *)

val precheck_rejection :
  op:string ->
  params:Obs.Json.t ->
  limits:Guard.Limits.t ->
  (Analysis.Plan.rejection option, string) result
(** Zero-fuel static admission: would this op, under these limits,
    provably exhaust before settling a first answer?  The rule is
    [Folearn.Admission.rejection], the one the solvers apply in
    process, on the query {!learn_solve} would hand its solver, so the
    refusal and its message are the CLI's; a [submit] is judged as the
    checkpointed job it becomes, which runs [--solver local] without
    the degradation chain.  [Error] when the
    parameters are unusable (the request will fail as [usage] anyway).
    Ops without a planner model ([types], [game]) always admit. *)

val training_line : Obs.Json.t -> string
(** The line a [learn] of these parameters prints before it solves,
    and so before its admission precheck can refuse it.  The daemon
    sends it with a {!precheck_rejection} refusal, so a refused served
    learn prints what the CLI prints.  It labels the sample, which
    evaluates the target: call it on the engine domain.  @raise Usage *)

type admitted = {
  rejection : Analysis.Plan.rejection option;  (** {!precheck_rejection}'s *)
  training_line : unit -> string;  (** {!training_line} *)
  identity : unit -> (string * string, string) result;  (** {!learn_identity} *)
  run : ?budget:Guard.Budget.t -> ?ckpt:Resil.Ctl.t -> unit -> run;
      (** {!run_op} without the precheck *)
}

val admit :
  op:string -> params:Obs.Json.t -> limits:Guard.Limits.t ->
  (admitted, string) result
(** The daemon's admission: {!precheck_rejection}, and what it does with
    the request next, all on one decoding, so its graph is loaded once.
    Only a [learn], a [submit] and an [mc --via-erm] are decoded here;
    another op's [run] decodes it and reports its errors as {!run_op}
    does.  Call [run] and [training_line] on the engine domain. *)
