(** The op bodies of [learn], [mc], [types] and [game].

    The one-shot CLI and the resident daemon both call these bodies:
    the CLI with the process streams as [out]/[err], the daemon through
    {!run_op}, which captures them in buffers.  Solver entry points,
    print statements and the exit-code taxonomy (0 complete, 2 usage,
    3 degraded, 4 exhausted) therefore exist once, and a served op's
    stdout is byte-identical to the matching [folearn_cli] invocation.

    Each op has a typed parameter record, filled from cmdliner by the
    CLI and from a JSON object by {!run_op} (members optional unless
    noted):
    - [learn]: [graph] (spec string, required), [colors] (list of
      [NAME=v,v] strings), [target] (required), [k], [ell], [q],
      [solver] (brute|nd|counting|local), [tmax], [noise], [m], [seed]
    - [mc]: [graph] (required), [colors], [formula] (required),
      [via_erm] (bool)
    - [types]: [graph] (required), [colors], [q], [k], [hintikka]
    - [game]: [graph] (required), [colors], [r] *)

val parse_graph_spec : string -> (Cgraph.Graph.t, [ `Msg of string ]) result
(** The graph-spec DSL ([path:N], [grid:WxH], [gnp:N:P:SEED],
    [file:PATH], ...); shared so server and CLI accept exactly the
    same specs. *)

val parse_color : string -> (string * int list, [ `Msg of string ]) result

exception Usage of string
(** A usage error (exit code 2) with its [folearn <op>: ...] message:
    a bad formula, an out-of-range parameter, a bad colour. *)

type colors = (string * int list) list

val apply_colors : op:string -> Cgraph.Graph.t -> colors -> Cgraph.Graph.t
(** @raise Usage when a member is outside the graph. *)

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

val solvers : (string * solver) list
val solver_name : solver -> string
val plan_solver : solver -> Analysis.Plan.solver

(** Parameter defaults, shared by the CLI flags and the JSON members. *)

val default_k : int
val default_ell : int
val default_q : int
val default_solver : solver
val default_tmax : int
val default_m : int
val default_seed : int

type learn_p = {
  lp_graph : Cgraph.Graph.t;  (** before [lp_colors] are applied *)
  lp_colors : colors;
  lp_target : string;
  lp_k : int;
  lp_ell : int;
  lp_q : int;
  lp_solver : solver;
  lp_tmax : int;
  lp_noise : float;
  lp_m : int;
  lp_seed : int;
}

val learn_graph : op:string -> learn_p -> Cgraph.Graph.t
(** The learn-params layer: check [k, ell, q, m >= 0], [tmax >= 1] and
    [0 <= noise <= 1], then colour the graph.  @raise Usage *)

val learn_tuples : learn_p -> Cgraph.Graph.t -> Cgraph.Graph.Tuple.t list
(** All tuples when [m = 0], else [m] drawn with [seed]. *)

val check_target :
  op:string -> Cgraph.Graph.t -> k:int -> string -> Fo.Formula.t
(** Parse a target and check it is a query over [x1..xk] in the graph's
    vocabulary.  @raise Usage *)

type learn = {
  lp : learn_p;
  g : Cgraph.Graph.t;  (** coloured *)
  run_id : string;  (** digest of every parameter: checkpoint identity *)
  tuples : Cgraph.Graph.Tuple.t list;
  sample : Folearn.Sample.t;  (** the tuples labelled by the target *)
}

val learn_prep : learn_p -> learn
(** Validate, fix the run identity and label the training sequence.
    @raise Usage *)

val learn_solve : learn runner
(** [--solver local] under a budget with at least one limit, and no
    active checkpoint, runs the degradation chain. *)

(** A brute or counting sweep sharded outside {!learn_solve} (a fleet)
    starts with {!print_training} and {!sweep_admission}, and ends with
    {!sweep_answer}. *)

val print_training : Format.formatter -> learn -> unit

val sweep_admission :
  out:Format.formatter ->
  err:Format.formatter ->
  ?budget:Guard.Budget.t ->
  precheck:bool ->
  learn ->
  int option
(** [Some code], after reporting, when [budget] provably cannot settle
    a first candidate. *)

val sweep_answer :
  out:Format.formatter ->
  err:Format.formatter ->
  learn ->
  complete:bool ->
  interrupted:bool ->
  params_tried:int ->
  int option ->
  int
(** Report the winning candidate index ([None]: none settled) as
    {!learn_solve} would; an incomplete sweep reports it as a
    best-so-far answer. *)

(** {1 mc, types, game} *)

type mc_p = {
  mp_graph : Cgraph.Graph.t;
  mp_colors : colors;
  mp_formula : string;
  mp_via_erm : bool;
}

type types_p = {
  tp_graph : Cgraph.Graph.t;
  tp_colors : colors;
  tp_q : int;
  tp_k : int;
  tp_hintikka : bool;
}

type game_p = { gp_graph : Cgraph.Graph.t; gp_colors : colors; gp_r : int }

type op
(** A validated [mc], [types] or [game] run. *)

val mc : mc_p -> op
val types : types_p -> op
val game : game_p -> op
(** @raise Usage *)

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
    [Par] pool and the ambient [Guard] budget, both of which support a
    single driver. *)

val learn_identity :
  Obs.Json.t -> (string * string, string) result
(** [(run_id, solver_name)] of a learn parameter object — the digest
    {!learn_prep} computes, without labelling the sample.  Used to key
    server-side jobs and their snapshots. *)

val precheck_rejection :
  op:string ->
  params:Obs.Json.t ->
  limits:Analysis.Plan.limits ->
  (Analysis.Plan.rejection option, string) result
(** Zero-fuel static admission: would this op, under these limits,
    provably exhaust before settling a first answer?  [Error] when the
    parameters are unusable (the request will fail as [usage] anyway).
    Ops without a planner model ([types], [game]) always admit. *)
