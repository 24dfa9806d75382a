(* Tests for the static cost analyzer (focost, Analysis.Plan):
   - the 12-case exit-code matrix: for each solver and each suggested
     budget band {ample, tight, infeasible}, the statically predicted
     exit code (0 / 3 / 4) matches what the real budgeted run produces,
   - qcheck: the predicted catalogue cardinality exactly equals the
     Catalogue enumeration count; every envelope is monotone in q, r, n,
   - the admission precheck: rejects only provably doomed budgets,
     burns zero fuel doing so, and ~precheck:false restores the burn,
   - model_check_floor: a sound lower bound on a completed reduction,
   - pinned regressions for the lossless cost-JSON round-trip
     (saturated bounds survive serialisation; satellite fix). *)

open Cgraph
module Plan = Analysis.Plan
module CM = Analysis.Cost_model
module Count = CM.Count
module Sam = Folearn.Sample

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* The 12-case exit-code matrix                                        *)
(* ------------------------------------------------------------------ *)

(* shared configuration: path:12, phi(x1), one parameter slot, rank 1 —
   the same run `folearn learn -g path:12 -k 1 -l 1 -q 1` executes *)
let g12 = Gen.path 12
let k, ell, q = (1, 1, 1)

let lam12 =
  Sam.label_with g12 ~target:(fun v -> v.(0) mod 2 = 0) (Sam.all_tuples g12 ~k)

let tuples12 = List.map fst lam12
let inp12 = Plan.input g12 ~k ~ell ~q tuples12
let fuel_budget f = Guard.Budget.make ~fuel:f ()

let exit_of_erm = function
  | Guard.Complete _ -> 0
  | Guard.Exhausted { best_so_far = Some _; _ } -> 3
  | Guard.Exhausted { best_so_far = None; _ } -> 4

(* the CLI maps a Complete-but-degraded chain answer to exit 3 *)
let exit_of_degrade = function
  | Guard.Complete (l : Folearn.Degrade.learned) ->
      if l.Folearn.Degrade.degraded then 3 else 0
  | Guard.Exhausted { best_so_far = Some _; _ } -> 3
  | Guard.Exhausted { best_so_far = None; _ } -> 4

(* the ample and tight rows run again on an explicit 4-domain pool (the
   ample row first, so the tight one meets running workers): the bands
   must hold at every pool size, not only at the ambient [FOLEARN_JOBS] *)
let with_pool ~jobs f =
  let pool = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let case ~prediction name fuel expect run =
  match fuel with
  | None -> Alcotest.failf "%s: no fuel suggestion" name
  | Some f ->
      check_int (name ^ " actual exit") expect (run f);
      let pr = prediction (Plan.limits ~fuel:f ()) in
      check_int (name ^ " predicted exit") expect
        (Plan.exit_code pr.Plan.verdict);
      check (name ^ " certain") true pr.Plan.certain

let test_matrix_brute () =
  let p = Plan.analyze inp12 Plan.Brute in
  let s = Plan.suggest_fuel p in
  let run pool f =
    exit_of_erm
      (Folearn.Erm_brute.solve_budgeted ?pool ~budget:(fuel_budget f) g12 ~k
         ~ell ~q lam12)
  in
  let case = case ~prediction:(Plan.predict p) in
  case "brute ample" s.Plan.ample 0 (run None);
  case "brute tight" s.Plan.tight 3 (run None);
  case "brute infeasible" s.Plan.infeasible 4 (run None);
  with_pool ~jobs:4 @@ fun pool ->
  case "brute ample (4 domains)" s.Plan.ample 0 (run (Some pool));
  case "brute tight (4 domains)" s.Plan.tight 3 (run (Some pool))

let test_matrix_counting () =
  let p = Plan.analyze inp12 Plan.Counting in
  let s = Plan.suggest_fuel p in
  let run pool f =
    exit_of_erm
      (Folearn.Erm_counting.solve_budgeted ?pool ~budget:(fuel_budget f) g12
         ~k ~ell ~q ~tmax:2 lam12)
  in
  let case = case ~prediction:(Plan.predict p) in
  case "counting ample" s.Plan.ample 0 (run None);
  case "counting tight" s.Plan.tight 3 (run None);
  case "counting infeasible" s.Plan.infeasible 4 (run None);
  with_pool ~jobs:4 @@ fun pool ->
  case "counting ample (4 domains)" s.Plan.ample 0 (run (Some pool));
  case "counting tight (4 domains)" s.Plan.tight 3 (run (Some pool))

let test_matrix_local_chain () =
  (* a budgeted --solver local run walks the degradation chain *)
  let stages = Plan.degrade_stages inp12 in
  let s = Plan.suggest_fuel_chain stages in
  let run f =
    exit_of_degrade
      (Folearn.Degrade.learn ~budget:(fuel_budget f) g12 ~k ~ell ~q lam12)
  in
  (* the chain takes the ambient pool, so its first stage, the local
     learner, runs its own tight band on the explicit one *)
  let local = Plan.analyze inp12 Plan.Local in
  let local_case = case ~prediction:(Plan.predict local) in
  let case = case ~prediction:(Plan.predict_chain stages) in
  case "local-chain ample" s.Plan.ample 0 run;
  case "local-chain tight" s.Plan.tight 3 run;
  case "local-chain infeasible" s.Plan.infeasible 4 run;
  let sl = Plan.suggest_fuel local in
  with_pool ~jobs:4 @@ fun pool ->
  let run f =
    exit_of_erm
      (Folearn.Erm_local.solve_budgeted ~pool ~budget:(fuel_budget f) g12 ~k
         ~ell ~q lam12)
  in
  local_case "local ample (4 domains)" sl.Plan.ample 0 run;
  local_case "local tight (4 domains)" sl.Plan.tight 3 run

let test_matrix_nd () =
  let p = Plan.analyze inp12 Plan.Nd in
  let s = Plan.suggest_fuel p in
  let cls = Splitter.Nowhere_dense.of_graph "test" g12 in
  let cfg =
    Folearn.Erm_nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell) ~q_star:q
      cls
  in
  let run f =
    exit_of_erm
      (Folearn.Erm_nd.solve_budgeted ~budget:(fuel_budget f) cfg g12 lam12)
  in
  let case = case ~prediction:(Plan.predict p) in
  case "nd ample" s.Plan.ample 0 run;
  (* the nd middle band is statically unprovable (tight = None by
     design: the branch tree's settle point has no sound upper bound
     below the total), so the matrix uses two provably-exhausted
     budgets instead *)
  check "nd tight unprovable" true (s.Plan.tight = None);
  case "nd infeasible" s.Plan.infeasible 4 run;
  case "nd zero fuel" (Some 0) 4 run

(* ------------------------------------------------------------------ *)
(* QCheck: catalogue exactness and envelope monotonicity               *)
(* ------------------------------------------------------------------ *)

let catalogue_exact_prop =
  QCheck.Test.make ~count:25
    ~name:"plan-catalogue-exact: predicted cardinality = Catalogue count"
    QCheck.(
      quad (int_range 3 10) (int_range 0 1) (int_range 0 1) (int_range 0 2))
    (fun (n, ell, q, r) ->
      let g = Gen.random_tree ~seed:(n + (7 * ell) + (13 * q) + (29 * r)) n in
      let ctx = Modelcheck.Types.make_ctx g in
      let tbl = Hashtbl.create 32 in
      List.iter
        (fun t -> Hashtbl.replace tbl (Modelcheck.Types.ltp ctx ~q ~r t) ())
        (Sam.all_tuples g ~k:(1 + ell));
      let types = Hashtbl.length tbl in
      let max_size = 64 in
      let enumerated =
        List.length (Folearn.Catalogue.of_local_types g ~ell ~q ~r ~max_size ())
      in
      match Count.to_int_opt (CM.catalogue_cardinality ~types ~max_size) with
      | Some predicted -> predicted = enumerated
      | None -> false)

let env_leq (a : CM.Env.t) (b : CM.Env.t) =
  Count.leq a.CM.Env.lo b.CM.Env.lo && Count.leq a.CM.Env.hi b.CM.Env.hi

let monotone_prop =
  QCheck.Test.make ~count:30
    ~name:"plan envelopes monotone in q, r, and n"
    QCheck.(triple (int_range 2 9) (int_range 0 1) (int_range 0 3))
    (fun (n, q, solver_idx) ->
      let solver =
        List.nth [ Plan.Brute; Plan.Local; Plan.Counting; Plan.Nd ] solver_idx
      in
      let mk n q radius =
        let g = Gen.path n in
        Plan.analyze
          (Plan.input ?radius g ~k:1 ~ell:1 ~q (Sam.all_tuples g ~k:1))
          solver
      in
      let base = mk n q None in
      let bigger_n = mk (n + 1) q None in
      let bigger_q = mk n (q + 1) None in
      let grows sel = env_leq (sel base) (sel bigger_n) && env_leq (sel base) (sel bigger_q) in
      grows (fun (p : Plan.t) -> p.Plan.fuel_total)
      && grows (fun (p : Plan.t) -> p.Plan.fuel_first)
      && grows (fun (p : Plan.t) -> p.Plan.table_total)
      && grows (fun (p : Plan.t) -> p.Plan.type_evals)
      && env_leq base.Plan.hypotheses bigger_n.Plan.hypotheses
      && env_leq (mk n q (Some 1)).Plan.fuel_total
           (mk n q (Some 2)).Plan.fuel_total)

(* the local model is in ball sizes: on a long path the reachable set
   (2000 vertices) dwarfs every ball, so a model that charged
   reachability would overshoot the observed spend by two orders of
   magnitude; with [ell = 0] the one candidate is costed exactly *)
let test_local_fuel_exact_on_long_path () =
  let g = Gen.path 2000 in
  let lam =
    Sam.label_with g ~target:(fun v -> v.(0) mod 3 = 0)
      (List.map (fun v -> [| v |]) [ 990; 1000; 1003; 1010; 1500 ])
  in
  let p =
    Plan.analyze (Plan.input g ~k:1 ~ell:0 ~q:1 (List.map fst lam)) Plan.Local
  in
  let lo = Count.to_int_opt p.Plan.fuel_total.CM.Env.lo
  and hi = Count.to_int_opt p.Plan.fuel_total.CM.Env.hi in
  check "fuel_total is exact" true (lo = hi && lo <> None);
  let budget = Guard.Budget.unlimited () in
  (match
     Folearn.Erm_local.solve_budgeted ~budget g ~k:1 ~ell:0 ~q:1 lam
   with
  | Guard.Complete _ -> ()
  | Guard.Exhausted _ -> Alcotest.fail "an unlimited budget must complete");
  let spent = (Guard.Budget.spent budget).Guard.fuel in
  check_int "predicted fuel = observed fuel" (Option.get lo) spent;
  check "fuel independent of the 2000 reachable vertices" true (spent < 2000)

(* ------------------------------------------------------------------ *)
(* Admission precheck behaviour                                        *)
(* ------------------------------------------------------------------ *)

let test_precheck_zero_burn () =
  let p = Plan.analyze inp12 Plan.Brute in
  let s = Plan.suggest_fuel p in
  let doomed = Option.get s.Plan.infeasible in
  (match
     Folearn.Erm_brute.solve_budgeted ~budget:(fuel_budget doomed) g12 ~k ~ell
       ~q lam12
   with
  | Guard.Exhausted { best_so_far = None; spent; _ } ->
      check_int "precheck rejection burns nothing" 0 spent.Guard.fuel
  | _ -> Alcotest.fail "provably infeasible budget must be rejected");
  (match
     Folearn.Erm_brute.solve_budgeted ~budget:(fuel_budget doomed)
       ~precheck:false g12 ~k ~ell ~q lam12
   with
  | Guard.Exhausted { best_so_far = None; spent; _ } ->
      check "precheck off: the doomed run burns real fuel" true
        (spent.Guard.fuel > 0)
  | _ -> Alcotest.fail "the doomed run must still exhaust empty");
  (* a merely tight budget is never rejected: the run proceeds and
     salvages a best-so-far answer *)
  (match
     Folearn.Erm_brute.solve_budgeted
       ~budget:(fuel_budget (Option.get s.Plan.tight))
       g12 ~k ~ell ~q lam12
   with
  | Guard.Exhausted { best_so_far = Some _; spent; _ } ->
      check "tight budget runs for real" true (spent.Guard.fuel > 0)
  | _ -> Alcotest.fail "a tight budget must salvage")

let test_precheck_rejection_is_structured () =
  let p = Plan.analyze inp12 Plan.Brute in
  let s = Plan.suggest_fuel p in
  let doomed = Option.get s.Plan.infeasible in
  match
    Plan.precheck ~what:"test" p (Plan.limits ~fuel:doomed ())
  with
  | None -> Alcotest.fail "precheck must fire on the infeasible band"
  | Some r ->
      check "resource named" true (r.Plan.resource = "fuel");
      check_int "limit echoed" doomed r.Plan.limit;
      check "rule id" true
        (r.Plan.diagnostic.Analysis.Diagnostic.rule = "budget-infeasible")

let test_precheck_never_fires_unlimited () =
  let p = Plan.analyze inp12 Plan.Brute in
  check "no limits, no rejection" true
    (Plan.precheck ~what:"test" p Guard.Limits.none = None);
  (* deadlines alone are never grounds for rejection *)
  check "timeout alone never rejects" true
    (Plan.precheck ~what:"test" p (Plan.limits ~timeout_s:1e-9 ()) = None)

(* ------------------------------------------------------------------ *)
(* model_check_floor soundness                                         *)
(* ------------------------------------------------------------------ *)

let floor_sound_prop =
  QCheck.Test.make ~count:12
    ~name:"model_check_floor: fuel below the floor never completes"
    QCheck.(pair (int_range 2 6) (int_range 0 2))
    (fun (n, i) ->
      let g = Gen.path n in
      let phi =
        List.nth
          [
            Fo.Parser.parse "exists x. E(x, x)";
            Fo.Parser.parse "forall x. exists y. E(x, y)";
            Fo.Parser.parse "exists x. forall y. ~ E(x, y)";
          ]
          i
      in
      let floor = Plan.model_check_floor ~n:(Graph.order g) phi in
      floor >= 1
      &&
      match
        Folearn.Reduction.model_check_budgeted ~precheck:false
          ~budget:(fuel_budget (floor - 1))
          ~oracle:Folearn.Reduction.exact_oracle g phi
      with
      | Guard.Exhausted _ -> true
      | Guard.Complete _ -> false)

let test_model_check_precheck () =
  let g = Gen.path 6 in
  let phi = Fo.Parser.parse "exists x. exists y. E(x, y)" in
  let floor = Plan.model_check_floor ~n:(Graph.order g) phi in
  (match
     Folearn.Reduction.model_check_budgeted
       ~budget:(fuel_budget (floor - 1))
       ~oracle:Folearn.Reduction.exact_oracle g phi
   with
  | Guard.Exhausted { best_so_far = None; spent; _ } ->
      check_int "static rejection burns nothing" 0 spent.Guard.fuel
  | _ -> Alcotest.fail "sub-floor fuel must be rejected");
  match
    Folearn.Reduction.model_check_budgeted ~budget:(fuel_budget 1_000_000)
      ~oracle:Folearn.Reduction.exact_oracle g phi
  with
  | Guard.Complete (verdict, _) -> check "generous fuel decides" true verdict
  | Guard.Exhausted _ -> Alcotest.fail "generous fuel must complete"

(* ------------------------------------------------------------------ *)
(* Saturated cost bounds in the JSON (pinned satellite regression)    *)
(* ------------------------------------------------------------------ *)

let deep_formula n =
  let rec build i =
    if i > n then "E(x1, x2)"
    else Printf.sprintf "exists y%d. %s" i (build (i + 1))
  in
  Fo.Parser.parse (build 1)

let test_cost_saturation () =
  let c = Analysis.Fo_check.cost (deep_formula 25) in
  (* rank 25 overflows the towers: the bounds must REPORT saturation,
     never a clamped finite value *)
  check "hintikka saturates" true
    (c.Analysis.Fo_check.hintikka_log2 = CM.Log2.Saturated);
  check "ramsey saturates" true
    (c.Analysis.Fo_check.ramsey_r233_log2 = CM.Log2.Saturated);
  (* and the JSON says so, where a bare infinite float would be null *)
  check "saturation is named in the JSON" true
    (Obs.Json.member "hintikka_log2" (Analysis.Fo_check.cost_json c)
    = Some (Obs.Json.String "saturated"));
  let small = Analysis.Fo_check.cost (Fo.Parser.parse "exists y. E(x1, y)") in
  check "small rank stays finite" true
    (match small.Analysis.Fo_check.hintikka_log2 with
    | CM.Log2.Finite _ -> true
    | CM.Log2.Saturated -> false)

(* ------------------------------------------------------------------ *)
(* --max-table counts the rows the planner counts                      *)
(* ------------------------------------------------------------------ *)

(* A sweep on one domain under [max_table = Some r] trips [Table_cap]
   exactly when [r] is below the planner's exact [table_total], and
   reports the row that crossed the cap: [spent.table_rows = r + 1].
   The precheck is off, so every trip is a real one. *)
let test_table_cap_rows () =
  with_pool ~jobs:1 @@ fun pool ->
  let g = Gen.path 6 in
  let lam = Sam.label_with g ~target:(fun v -> v.(0) < 3) (Sam.all_tuples g ~k) in
  let budget r = Guard.Budget.make ~max_table:r () in
  let brute q r =
    Guard.outcome_map ignore
      (Folearn.Erm_brute.solve_budgeted ~precheck:false ~pool
         ~budget:(budget r) g ~k ~ell ~q lam)
  in
  let counting q r =
    Guard.outcome_map ignore
      (Folearn.Erm_counting.solve_budgeted ~precheck:false ~pool
         ~budget:(budget r) g ~k ~ell ~q ~tmax:2 lam)
  in
  List.iter
    (fun (solver, q, run) ->
      let plan =
        Plan.analyze (Plan.input ~tmax:2 g ~k ~ell ~q (List.map fst lam)) solver
      in
      let name = Printf.sprintf "%s q=%d" (Plan.solver_name solver) q in
      let { CM.Env.lo; hi } = plan.Plan.table_total in
      check (name ^ ": table envelope is exact") true (lo = hi);
      let total = Option.get (Count.to_int_opt hi) in
      List.iter
        (fun r ->
          let what = Printf.sprintf "%s, max-table %d of %d" name r total in
          match run r with
          | Guard.Complete () -> check (what ^ ": completes") true (r >= total)
          | Guard.Exhausted { reason; spent; _ } ->
              check (what ^ ": trips below the total") true (r < total);
              check (what ^ ": reason") true (reason = Guard.Table_cap);
              check_int (what ^ ": rows at the trip") (r + 1)
                spent.Guard.table_rows)
        (List.sort_uniq compare
           [ 0; 1; total / 2; max 0 (total - 1); total; total + 1 ]))
    [
      (Plan.Brute, 1, brute 1);
      (Plan.Brute, 2, brute 2);
      (Plan.Counting, 1, counting 1);
      (Plan.Counting, 2, counting 2);
    ]

let suite =
  [
    Alcotest.test_case "matrix: brute {ample, tight, infeasible}" `Quick
      test_matrix_brute;
    Alcotest.test_case "matrix: counting {ample, tight, infeasible}" `Quick
      test_matrix_counting;
    Alcotest.test_case "matrix: local degrade chain {ample, tight, infeasible}"
      `Quick test_matrix_local_chain;
    Alcotest.test_case "matrix: nd {ample, infeasible, zero}" `Quick
      test_matrix_nd;
    Alcotest.test_case "local fuel exact in ball sizes on a long path" `Quick
      test_local_fuel_exact_on_long_path;
    QCheck_alcotest.to_alcotest catalogue_exact_prop;
    QCheck_alcotest.to_alcotest monotone_prop;
    Alcotest.test_case "precheck rejects with zero burn; escape hatch works"
      `Quick test_precheck_zero_burn;
    Alcotest.test_case "precheck rejection is structured" `Quick
      test_precheck_rejection_is_structured;
    Alcotest.test_case "precheck never fires without a provable trip" `Quick
      test_precheck_never_fires_unlimited;
    QCheck_alcotest.to_alcotest floor_sound_prop;
    Alcotest.test_case "model_check admission uses the structural floor" `Quick
      test_model_check_precheck;
    Alcotest.test_case "cost JSON reports saturation" `Quick
      test_cost_saturation;
    Alcotest.test_case "max-table trips at the exact table total" `Quick
      test_table_cap_rows;
  ]
