(* Static admission control: before a budgeted solver burns any fuel,
   ask the planner (Analysis.Plan) whether the declared limits are
   provably below the sound first-settle floor.  If so, the run is
   doomed to exit 4 — return the structured exhaustion immediately
   instead of spending the whole budget discovering it. *)

module Plan = Analysis.Plan

let rejections = Obs.Metric.counter "plan.precheck_rejections"

let limits_of_budget b =
  let l = Guard.Budget.limits b in
  {
    Plan.fuel = l.Guard.Budget.l_fuel;
    timeout_s = l.Guard.Budget.l_timeout_s;
    max_table = l.Guard.Budget.l_max_table;
    max_ball = l.Guard.Budget.l_max_ball;
  }

let reason_of (rej : Plan.rejection) =
  match rej.Plan.resource with
  | "max-table" -> Guard.Table_cap
  | "max-ball" -> Guard.Ball_cap
  | _ -> Guard.Out_of_fuel

(* The rejection as a Guard outcome: nothing salvaged, the tripping
   resource as the reason, zero spend (the budget was never entered),
   and the planner's message for the caller to print. *)
let reject_outcome budget (rej : Plan.rejection) =
  Obs.Metric.incr rejections;
  Guard.Exhausted
    {
      best_so_far = None;
      reason = reason_of rej;
      checkpoint = Guard.Solver_loop;
      spent = Guard.Budget.spent budget;
      refused = Some rej.Plan.message;
    }

(* [erm ?budget ~enabled ~what ~solver ...] returns [Some outcome] when
   the run must be rejected, [None] when it may proceed.  Checkpointed
   runs (an active [ckpt]) are never prechecked: a resumed run must
   replay the recorded trip bit-identically, not shortcut it. *)
let erm ?budget ?radius ?tmax ~enabled ~what ~solver g ~k ~ell ~q lam =
  match budget with
  | Some b when enabled ->
      let i = Plan.input ?radius ?tmax g ~k ~ell ~q (List.map fst lam) in
      let plan = Plan.analyze i solver in
      Option.map (reject_outcome b)
        (Plan.precheck ~what plan (limits_of_budget b))
  | _ -> None

(* Chain variant for [Degrade.learn]: reject only when every stage is
   provably doomed. *)
let degrade ?budget ?radius ~enabled ~what g ~k ~ell ~q lam =
  match budget with
  | Some b when enabled ->
      let i = Plan.input ?radius g ~k ~ell ~q (List.map fst lam) in
      Option.map (reject_outcome b)
        (Plan.precheck_chain ~what (Plan.degrade_stages i)
           (limits_of_budget b))
  | _ -> None

let model_check ?budget ~enabled ~what g phi =
  match budget with
  | Some b when enabled ->
      Option.map (reject_outcome b)
        (Plan.precheck_model_check ~what ~n:(Cgraph.Graph.order g) phi
           (limits_of_budget b))
  | _ -> None
