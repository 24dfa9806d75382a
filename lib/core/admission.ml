(* Static admission control: before a budgeted run burns any fuel, ask
   the planner (Analysis.Plan) whether the declared limits are provably
   below the sound first-settle floor.  If so, the run is doomed to exit
   4 — refuse it at once instead of spending the whole budget
   discovering it.  This is the one admission rule: the solvers'
   in-process precheck and the daemon's ([Serve.Exec.precheck_rejection])
   both call [rejection]. *)

module Plan = Analysis.Plan

(* what a run asks the planner to judge *)
type query =
  | Solve of Plan.solver * Plan.input  (* one solver run *)
  | Degrade of Plan.input
      (* [Degrade.learn]: local at rank q, then brute at lower ranks *)
  | Model_check of Cgraph.Graph.t * Fo.Formula.t  (* [Reduction.model_check] *)

let rejections = Obs.Metric.counter "plan.precheck_rejections"

(* [Some] when [limits] provably strand the run before a first answer
   settles; a degradation chain only when every stage is doomed.  The
   rejection names the entry point that would have run, and is
   counted. *)
let rejection limits query =
  let rej =
    match query with
    | Solve (solver, i) ->
        let what =
          match solver with
          | Plan.Brute -> "Erm_brute"
          | Plan.Counting -> "Erm_counting"
          | Plan.Nd -> "Erm_nd"
          | Plan.Local -> "Erm_local"
        in
        Plan.precheck ~what (Plan.analyze i solver) limits
    | Degrade i ->
        Plan.precheck_chain ~what:"Degrade.learn" (Plan.degrade_stages i)
          limits
    | Model_check (g, phi) ->
        Plan.precheck_model_check ~what:"Reduction.model_check"
          ~n:(Cgraph.Graph.order g) phi limits
  in
  if Option.is_some rej then Obs.Metric.incr rejections;
  rej

let reason_of (rej : Plan.rejection) =
  match rej.Plan.resource with
  | "max-table" -> Guard.Table_cap
  | "max-ball" -> Guard.Ball_cap
  | _ -> Guard.Out_of_fuel

(* The solvers' precheck: [Some outcome] when the run must be refused,
   [None] when it may proceed.  The refusal is a Guard outcome: nothing
   salvaged, the tripping resource as the reason, zero spend (the
   budget was never entered), and the planner's message for the caller
   to print.  Callers disable it for checkpointed runs: a resumed run
   must replay the recorded trip bit-identically, not shortcut it. *)
let precheck ?budget ~enabled query =
  match budget with
  | Some b when enabled ->
      Option.map
        (fun (rej : Plan.rejection) ->
          Guard.Exhausted
            {
              best_so_far = None;
              reason = reason_of rej;
              checkpoint = Guard.Solver_loop;
              spent = Guard.Budget.spent b;
              refused = Some rej.Plan.message;
            })
        (rejection (Guard.Budget.limits b) (Lazy.force query))
  | _ -> None
