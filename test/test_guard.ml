(* Tests for the resource-governance layer (folearn.guard):
   - a qcheck transparency property: a Complete outcome under a budget
     is bit-for-bit the unbudgeted result,
   - the fault matrix: a deterministic injected trip at every
     checkpoint class, through a real entry point of that class, never
     escapes as an exception and labels the outcome consistently,
   - explicit budgets: concurrent runs on two domains keep their own
     spend, a nested run passes an outer budget's trip through, and on
     one domain fuel trips on exactly the tick past the limit,
   - the degradation chain (local -> brute at shrinking rank),
   - saturating Ramsey arithmetic (the satellite fix),
   - parser errors with line/column positions (the satellite fix), and
   - the limits record: [meet] is the old tenant clamp, the JSON codec
     round-trips, and a budget made from limits reports them back. *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Local = Folearn.Erm_local
module Hyp = Folearn.Hypothesis
module R = Folearn.Ramsey

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let sample_on g ~k centre =
  Sam.label_with g
    ~target:(fun v -> Bfs.dist g v.(0) centre <= 1)
    (Sam.all_tuples g ~k)

let reason = Alcotest.testable (Fmt.of_to_string Guard.reason_to_string) ( = )

let checkpoint =
  Alcotest.testable (Fmt.of_to_string Guard.checkpoint_to_string) ( = )

(* ------------------------------------------------------------------ *)
(* Transparency: Complete under budget = unbudgeted                    *)
(* ------------------------------------------------------------------ *)

let transparency_prop =
  QCheck.Test.make ~count:30
    ~name:"generous budget: Complete result equals unbudgeted solve"
    QCheck.(triple (int_range 4 10) (int_range 0 1) (int_range 0 1))
    (fun (n, ell, q) ->
      let g = Gen.random_tree ~seed:n n in
      let lam = sample_on g ~k:1 (n / 2) in
      let plain = Brute.solve g ~k:1 ~ell ~q lam in
      match
        Brute.solve_budgeted
          ~budget:(Guard.Budget.make ~fuel:max_int ())
          g ~k:1 ~ell ~q lam
      with
      | Guard.Complete r ->
          r.Brute.err = plain.Brute.err
          && r.Brute.params_tried = plain.Brute.params_tried
          && Hyp.signature r.Brute.hypothesis
             = Hyp.signature plain.Brute.hypothesis
      | Guard.Exhausted _ -> false)

let transparency_no_budget () =
  (* run with no budget at all: Guard.run must be the identity *)
  match Guard.run ~salvage:(fun () -> None) (fun () -> 42) with
  | Guard.Complete v -> check_int "value" 42 v
  | Guard.Exhausted _ -> Alcotest.fail "exhausted without a budget"

(* ------------------------------------------------------------------ *)
(* Fault matrix: one injected trip per checkpoint class                *)
(* ------------------------------------------------------------------ *)

(* Each driver routes through a real entry point whose loops tick the
   targeted class.  Returns the (reason, checkpoint) of the trip; with
   [counting], the brute sweep runs over counting types. *)
let drive_fault ?(counting = false) cp =
  let budget () =
    Guard.Budget.make ~faults:(Guard.Faults.trip_at cp ~n:1) ()
  in
  let g = Gen.random_tree ~seed:5 12 in
  let lam = sample_on g ~k:1 6 in
  match cp with
  | Guard.Solver_loop | Guard.Hintikka_build -> (
      let tmax = if counting then Some 2 else None in
      match
        Brute.solve_budgeted ~budget:(budget ()) ?tmax g ~k:1 ~ell:1 ~q:1 lam
      with
      | Guard.Complete _ -> None
      | Guard.Exhausted { reason; checkpoint; _ } -> Some (reason, checkpoint))
  | Guard.Bfs_frontier -> (
      match Local.solve_budgeted ~budget:(budget ()) g ~k:1 ~ell:1 ~q:1 lam with
      | Guard.Complete _ -> None
      | Guard.Exhausted { reason; checkpoint; _ } -> Some (reason, checkpoint))
  | Guard.Catalogue_growth -> (
      match
        Folearn.Catalogue.of_local_types_budgeted ~budget:(budget ()) g ~ell:1
          ~q:1 ~r:1 ()
      with
      | Guard.Complete _ -> None
      | Guard.Exhausted { reason; checkpoint; _ } -> Some (reason, checkpoint))
  | Guard.Eval_step -> (
      let phi = Fo.Parser.parse "forall x. exists y. E(x, y)" in
      let budget = budget () in
      match
        Guard.run ~budget
          ~salvage:(fun () -> None)
          (fun () -> Modelcheck.Eval.sentence ~budget g phi)
      with
      | Guard.Complete _ -> None
      | Guard.Exhausted { reason; checkpoint; _ } -> Some (reason, checkpoint))

let test_fault_matrix () =
  List.iter
    (fun (counting, cp) ->
      let name =
        Guard.checkpoint_to_string cp ^ if counting then " (counting)" else ""
      in
      match drive_fault ~counting cp with
      | None -> Alcotest.failf "fault at %s never fired" name
      | Some (r, at) ->
          Alcotest.check reason (name ^ " reason") Guard.Injected_fault r;
          Alcotest.check checkpoint (name ^ " checkpoint") cp at)
    ((true, Guard.Hintikka_build)
    :: List.map (fun cp -> (false, cp)) Guard.all_checkpoints)

(* ------------------------------------------------------------------ *)
(* Explicit budgets                                                    *)
(* ------------------------------------------------------------------ *)

let test_concurrent_budgets_independent () =
  (* two runs at once, each on its own domain with its own one-domain
     pool and budget: each budget is charged its own run's fuel, exactly
     what the run spends alone *)
  let g = Gen.random_tree ~seed:21 40 in
  let lam = sample_on g ~k:1 20 in
  let solve_fuel () =
    let pool = Par.Pool.create ~jobs:1 in
    Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
    let budget = Guard.Budget.unlimited () in
    (match Brute.solve_budgeted ~budget ~pool g ~k:1 ~ell:1 ~q:2 lam with
    | Guard.Complete _ -> ()
    | Guard.Exhausted _ -> Alcotest.fail "unlimited budget tripped");
    (Guard.Budget.spent budget).Guard.fuel
  in
  let solo = solve_fuel () in
  let ready = Atomic.make 0 in
  let spawn () =
    Domain.spawn (fun () ->
        (* start together, so the two runs overlap *)
        Atomic.incr ready;
        while Atomic.get ready < 2 do
          Domain.cpu_relax ()
        done;
        solve_fuel ())
  in
  let a = spawn () and b = spawn () in
  let fa = Domain.join a and fb = Domain.join b in
  check "solo run spends fuel" true (solo > 0);
  check_int "first concurrent run = solo" solo fa;
  check_int "second concurrent run = solo" solo fb

let test_nested_outer_trip () =
  (* the outer budget trips inside an inner run: the inner run lets the
     stop signal through and the outer run reports its own trip *)
  let g = Gen.cycle 6 in
  let phi = Fo.Parser.parse "forall x. exists y. E(x, y)" in
  let outer = Guard.Budget.make ~fuel:3 () in
  let inner = Guard.Budget.make ~fuel:1_000 () in
  let inner_returned = ref false in
  match
    Guard.run ~budget:outer
      ~salvage:(fun () -> Some "outer salvage")
      (fun () ->
        let _ =
          Guard.run ~budget:inner
            ~salvage:(fun () -> Some false)
            (fun () ->
              Guard.tick (Some inner) Guard.Solver_loop;
              Modelcheck.Eval.sentence ~budget:outer g phi)
        in
        inner_returned := true;
        "complete")
  with
  | Guard.Complete _ -> Alcotest.fail "3 fuel cannot check the sentence"
  | Guard.Exhausted { reason = r; checkpoint = cp; best_so_far; spent; _ } ->
      check "inner run did not return" false !inner_returned;
      Alcotest.check reason "outer reason" Guard.Out_of_fuel r;
      Alcotest.check checkpoint "outer checkpoint" Guard.Eval_step cp;
      check "outer salvage" true (best_so_far = Some "outer salvage");
      check_int "outer spend" 4 spent.Guard.fuel;
      check_int "inner spend" 1 (Guard.Budget.spent inner).Guard.fuel

(* Fuel is charged per tick, whatever the slab a domain holds: on one
   domain a run whose ticks total [f] completes under [fuel = f] and
   trips [Out_of_fuel] under [fuel = f - 1] on its [f]-th tick, which
   the spend reports.  The precheck is off, so every trip is a real
   one. *)
let test_fuel_exact_total () =
  let pool = Par.Pool.create ~jobs:1 in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) @@ fun () ->
  let g = Gen.path 6 in
  let lam =
    Sam.label_with g ~target:(fun v -> v.(0) < 3) (Sam.all_tuples g ~k:1)
  in
  let brute q budget =
    Guard.outcome_map ignore
      (Brute.solve_budgeted ~precheck:false ~pool ~budget g ~k:1 ~ell:1 ~q
         lam)
  in
  let counting q budget =
    Guard.outcome_map ignore
      (Folearn.Erm_counting.solve_budgeted ~precheck:false ~pool ~budget g
         ~k:1 ~ell:1 ~q ~tmax:2 lam)
  in
  List.iter
    (fun (name, run) ->
      let total =
        let b = Guard.Budget.unlimited () in
        (match run b with
        | Guard.Complete () -> ()
        | Guard.Exhausted _ -> Alcotest.failf "%s: unlimited tripped" name);
        (Guard.Budget.spent b).Guard.fuel
      in
      check (name ^ ": spends fuel") true (total > 1);
      let limited f = Guard.Budget.make ~fuel:f () in
      (match run (limited total) with
      | Guard.Complete () -> ()
      | Guard.Exhausted _ -> Alcotest.failf "%s: fuel %d must do" name total);
      match run (limited (total - 1)) with
      | Guard.Complete () -> Alcotest.failf "%s: fuel %d must trip" name (total - 1)
      | Guard.Exhausted { reason = r; spent; _ } ->
          Alcotest.check reason (name ^ ": reason") Guard.Out_of_fuel r;
          check_int (name ^ ": fuel at the trip") total spent.Guard.fuel)
    [
      ("brute q=1", brute 1);
      ("brute q=2", brute 2);
      ("counting q=1", counting 1);
      ("counting q=2", counting 2);
    ]

let test_salvage_err_is_true_error () =
  (* the salvaged best-so-far must carry its genuine empirical error *)
  let g = Gen.random_tree ~seed:9 14 in
  let lam = sample_on g ~k:1 7 in
  match
    Brute.solve_budgeted
      ~budget:
        (Guard.Budget.make ~faults:(Guard.Faults.trip_at Solver_loop ~n:10) ())
      g ~k:1 ~ell:1 ~q:1 lam
  with
  | Guard.Complete _ -> Alcotest.fail "expected exhaustion"
  | Guard.Exhausted { best_so_far = None; _ } ->
      Alcotest.fail "9 candidates in, something must have been salvaged"
  | Guard.Exhausted { best_so_far = Some r; _ } ->
      Alcotest.(check (float 1e-9))
        "salvaged err recomputes" r.Brute.err
        (Hyp.training_error r.Brute.hypothesis lam)

let test_fuel_and_deadline () =
  let g = Gen.random_tree ~seed:3 16 in
  let lam = sample_on g ~k:1 8 in
  (match
     Brute.solve_budgeted ~budget:(Guard.Budget.make ~fuel:5 ()) g ~k:1 ~ell:1
       ~q:1 lam
   with
  | Guard.Complete _ -> Alcotest.fail "5 fuel cannot finish"
  | Guard.Exhausted { reason = r; _ } ->
      Alcotest.check reason "fuel" Guard.Out_of_fuel r);
  match
    Brute.solve_budgeted
      ~budget:(Guard.Budget.make ~timeout_s:0.0 ())
      g ~k:1 ~ell:1 ~q:1 lam
  with
  | Guard.Complete _ -> Alcotest.fail "a zero deadline cannot finish"
  | Guard.Exhausted { reason = r; _ } ->
      Alcotest.check reason "deadline" Guard.Deadline r

let test_nd_s_bound_budgeted () =
  (* an empirical s_bound plays six Splitter games before the search;
     they belong to the budgeted run, so the budget pays for them and
     can stop them *)
  let g = Gen.random_tree ~seed:4 12 in
  let lam = sample_on g ~k:1 5 in
  let cls = Splitter.Nowhere_dense.of_graph "tree" g in
  let cfg =
    Folearn.Erm_nd.default_config ~radius:1 ~k:1 ~ell_star:1 ~q_star:1 cls
  in
  (* the games alone, at the learner's game radius (k+2)(2r+1) for
     k = 1, r = 1, ell* = 1 *)
  let games =
    let b = Guard.Budget.unlimited () in
    ignore (cls.Splitter.Nowhere_dense.s_bound ~budget:b g ~r:9 : int);
    (Guard.Budget.spent b).Guard.fuel
  in
  check "the games spend fuel" true (games > 0);
  let nd budget =
    Folearn.Erm_nd.solve_budgeted ~budget ~precheck:false cfg g lam
  in
  (match
     nd (Guard.Budget.make ~faults:(Guard.Faults.trip_at Solver_loop ~n:1) ())
   with
  | Guard.Complete _ -> Alcotest.fail "the fault plan must fire"
  | Guard.Exhausted { spent; _ } ->
      check_int "the first search tick comes after the games" (games + 1)
        spent.Guard.fuel);
  match nd (Guard.Budget.make ~fuel:(games / 2) ()) with
  | Guard.Complete _ -> Alcotest.fail "half the games' fuel cannot finish"
  | Guard.Exhausted { best_so_far; reason = r; checkpoint = cp; spent; _ } ->
      Alcotest.check reason "fuel" Guard.Out_of_fuel r;
      Alcotest.check checkpoint "in a game's ball" Guard.Bfs_frontier cp;
      check "no leaf reached, nothing salvaged" true (best_so_far = None);
      check "stopped inside the games" true (spent.Guard.fuel <= games)

let test_seeded_faults_deterministic () =
  let p = Guard.Faults.seeded ~seed:7 ~rate:0.5 in
  let q = Guard.Faults.seeded ~seed:7 ~rate:0.5 in
  let fired plan =
    List.concat_map
      (fun cp -> List.init 50 (fun n -> Guard.Faults.fires plan cp (n + 1)))
      Guard.all_checkpoints
  in
  check "same seed, same plan" true (fired p = fired q);
  check "rate 0 never fires" true
    (List.for_all not (fired (Guard.Faults.seeded ~seed:3 ~rate:0.0)));
  check "rate 1 always fires" true
    (List.for_all Fun.id (fired (Guard.Faults.seeded ~seed:3 ~rate:1.0)));
  (* ~half the hits at rate 0.5, very loosely *)
  let hits = List.length (List.filter Fun.id (fired p)) in
  check "rate 0.5 is neither never nor always" true (hits > 50 && hits < 200)

(* ------------------------------------------------------------------ *)
(* Degradation chain                                                   *)
(* ------------------------------------------------------------------ *)

let test_degrade_unbudgeted_is_local () =
  let g = Gen.random_tree ~seed:11 14 in
  let lam = sample_on g ~k:1 7 in
  let plain = Local.solve g ~k:1 ~ell:1 ~q:1 lam in
  match Folearn.Degrade.learn g ~k:1 ~ell:1 ~q:1 lam with
  | Guard.Complete l ->
      check "not degraded" false l.Folearn.Degrade.degraded;
      Alcotest.(check (float 1e-9))
        "same err" plain.Local.err l.Folearn.Degrade.err
  | Guard.Exhausted _ -> Alcotest.fail "no budget, cannot exhaust"

let test_degrade_falls_back () =
  let g = Gen.random_tree ~seed:11 18 in
  let lam = sample_on g ~k:1 9 in
  match
    Folearn.Degrade.learn ~budget:(Guard.Budget.make ~fuel:2_000 ()) g ~k:1
      ~ell:1 ~q:2 lam
  with
  | Guard.Complete l ->
      check "fallback stage answered" true l.Folearn.Degrade.degraded;
      check "rank strictly dropped" true (l.Folearn.Degrade.q_used < 2);
      check "solver is brute" true (l.Folearn.Degrade.solver = "brute");
      check "attempts recorded" true (l.Folearn.Degrade.attempts <> []);
      Alcotest.(check (float 1e-9))
        "err recomputes" l.Folearn.Degrade.err
        (Hyp.training_error l.Folearn.Degrade.hypothesis lam)
  | Guard.Exhausted _ ->
      Alcotest.fail "2000 fuel finishes brute at rank 0 on 18 vertices"

let test_degrade_total_exhaustion () =
  let g = Gen.random_tree ~seed:11 18 in
  let lam = sample_on g ~k:1 9 in
  (* precheck off: this test is about the runtime burn and its spend
     aggregation, which admission would (correctly) short-circuit *)
  match
    Folearn.Degrade.learn ~budget:(Guard.Budget.make ~fuel:1 ()) ~precheck:false
      g ~k:1 ~ell:1 ~q:2 lam
  with
  | Guard.Complete _ -> Alcotest.fail "1 fuel per stage cannot finish"
  | Guard.Exhausted { reason = r; spent; _ } ->
      Alcotest.check reason "out of fuel" Guard.Out_of_fuel r;
      (* aggregated spend covers all four stages (q=2,1,0 + local) *)
      check "aggregate fuel over stages" true (spent.Guard.fuel >= 4)

(* ------------------------------------------------------------------ *)
(* Saturating Ramsey arithmetic                                        *)
(* ------------------------------------------------------------------ *)

let test_ramsey_saturates () =
  check "30 colours saturate" true
    (R.triangle_bound_sat ~colors:30 = R.Saturated);
  check "factorial 30 saturates" true (R.factorial_sat 30 = R.Saturated);
  (match R.triangle_bound_sat ~colors:3 with
  | R.Finite v -> check_int "R_3(3) bound" 17 v
  | R.Saturated -> Alcotest.fail "3 colours are finite");
  check "sat agrees with exn API" true
    (R.ramsey_upper_sat ~colors:2 ~clique:3 = R.Finite (R.ramsey_upper ~colors:2 ~clique:3));
  Alcotest.check_raises "exn API still raises on overflow"
    (Invalid_argument "Ramsey.triangle_bound: overflow") (fun () ->
      ignore (R.triangle_bound ~colors:30));
  Alcotest.check_raises "factorial raises on overflow"
    (Invalid_argument "Ramsey.factorial: overflow") (fun () ->
      ignore (R.factorial 30))

let saturation_never_negative =
  QCheck.Test.make ~count:200
    ~name:"saturating bounds are Saturated or genuinely non-negative"
    QCheck.(pair (int_range 1 30) (int_range 1 3))
    (fun (colors, clique) ->
      (match R.triangle_bound_sat ~colors with
      | R.Finite v -> v >= 0
      | R.Saturated -> true)
      &&
      match R.ramsey_upper_sat ~colors ~clique with
      | R.Finite v -> v >= 1
      | R.Saturated -> true)

(* ------------------------------------------------------------------ *)
(* Parser positions                                                    *)
(* ------------------------------------------------------------------ *)

let test_parser_positions () =
  (match Fo.Parser.parse_result "exists x.\n  E(x," with
  | Ok _ -> Alcotest.fail "malformed input parsed"
  | Error e ->
      check_int "line" 2 e.Fo.Parser.position.Fo.Parser.line;
      check_int "col" 7 e.Fo.Parser.position.Fo.Parser.col;
      check "token named" true (e.Fo.Parser.token <> None));
  (match Fo.Parser.parse_result "E(x, y) /\\ ?" with
  | Ok _ -> Alcotest.fail "malformed input parsed"
  | Error e ->
      check_int "line" 1 e.Fo.Parser.position.Fo.Parser.line;
      check_int "col" 12 e.Fo.Parser.position.Fo.Parser.col);
  match Fo.Parser.parse_result "forall x. exists y. E(x, y)" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "valid input rejected: %s" (Fo.Parser.error_to_string e)

let test_parser_error_message_has_position () =
  try
    ignore (Fo.Parser.parse "exists . true");
    Alcotest.fail "malformed input parsed"
  with Fo.Parser.Parse_error m ->
    check "message carries line/column" true
      (String.length m >= 16 && String.sub m 0 16 = "line 1, column 8")

(* ------------------------------------------------------------------ *)
(* The limits record                                                   *)
(* ------------------------------------------------------------------ *)

let limits_arb =
  let open QCheck in
  let count = Gen.opt (Gen.int_range 0 1_000_000) in
  let secs =
    Gen.opt (Gen.map (fun n -> float_of_int n /. 64.) (Gen.int_range 0 6400))
  in
  make
    ~print:(fun l ->
      Obs.Json.to_string (Obs.Json.Obj (Guard.Limits.to_fields l)))
    (Gen.map
       (fun (fuel, deadline_s, max_table, max_ball) ->
         { Guard.Limits.fuel; deadline_s; max_table; max_ball })
       (Gen.quad count secs count count))

(* the per-field clamp of the served path before the limits record *)
let old_clamp_opt a b =
  match (a, b) with
  | None, x | x, None -> x
  | Some a, Some b -> Some (min a b)

let meet_is_old_clamp =
  QCheck.Test.make ~count:500 ~name:"Limits.meet = the componentwise clamp"
    QCheck.(pair limits_arb limits_arb)
    (fun (ask, quota) ->
      let m = Guard.Limits.meet quota ask in
      m.Guard.Limits.fuel = old_clamp_opt ask.fuel quota.fuel
      && m.deadline_s = old_clamp_opt ask.deadline_s quota.deadline_s
      && m.max_table = old_clamp_opt ask.max_table quota.max_table
      && m.max_ball = old_clamp_opt ask.max_ball quota.max_ball
      && m = Guard.Limits.meet ask quota
      && Guard.Limits.meet ask Guard.Limits.none = ask)

let limits_codec_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Limits JSON codec round-trips"
    limits_arb (fun l ->
      let j = Obs.Json.Obj (Guard.Limits.to_fields l) in
      Guard.Limits.of_json j = l
      && Result.map Guard.Limits.of_json
           (Obs.Json.of_string (Obs.Json.to_string j))
         = Ok l)

let test_limits_keys_and_budget () =
  let l =
    { Guard.Limits.fuel = Some 5; deadline_s = None; max_table = Some 7;
      max_ball = None }
  in
  Alcotest.(check (list string))
    "the RPC keys, in order"
    [ "fuel"; "deadline_s"; "max_table"; "max_ball" ]
    (List.map fst (Guard.Limits.to_fields l));
  check "absent members are unlimited" true
    (Guard.Limits.of_json (Obs.Json.Obj []) = Guard.Limits.none);
  check "no limits, no budget" true
    (Guard.Budget.of_limits Guard.Limits.none = None);
  match Guard.Budget.of_limits l with
  | Some b ->
      check "a budget reports its limits" true (Guard.Budget.limits b = l)
  | None -> Alcotest.fail "limits must make a budget"

(* ------------------------------------------------------------------ *)

let suite =
  [
    QCheck_alcotest.to_alcotest transparency_prop;
    Alcotest.test_case "run without budget is transparent" `Quick
      transparency_no_budget;
    Alcotest.test_case "fault matrix covers every checkpoint class" `Quick
      test_fault_matrix;
    Alcotest.test_case "concurrent runs keep their own budgets" `Quick
      test_concurrent_budgets_independent;
    Alcotest.test_case "outer trip passes through an inner run" `Quick
      test_nested_outer_trip;
    Alcotest.test_case "fuel trips at the exact fuel total" `Quick
      test_fuel_exact_total;
    Alcotest.test_case "salvaged hypothesis carries its true error" `Quick
      test_salvage_err_is_true_error;
    Alcotest.test_case "fuel and deadline exhaustion reasons" `Quick
      test_fuel_and_deadline;
    Alcotest.test_case "nd s_bound games run under the budget" `Quick
      test_nd_s_bound_budgeted;
    Alcotest.test_case "seeded fault plans are deterministic" `Quick
      test_seeded_faults_deterministic;
    Alcotest.test_case "degrade without budget = Erm_local" `Quick
      test_degrade_unbudgeted_is_local;
    Alcotest.test_case "degrade falls back to brute at smaller rank" `Quick
      test_degrade_falls_back;
    Alcotest.test_case "degrade aggregates spend on total exhaustion" `Quick
      test_degrade_total_exhaustion;
    Alcotest.test_case "Ramsey bounds saturate instead of wrapping" `Quick
      test_ramsey_saturates;
    QCheck_alcotest.to_alcotest saturation_never_negative;
    Alcotest.test_case "parse errors carry line/column positions" `Quick
      test_parser_positions;
    Alcotest.test_case "Parse_error message embeds the position" `Quick
      test_parser_error_message_has_position;
    QCheck_alcotest.to_alcotest meet_is_old_clamp;
    QCheck_alcotest.to_alcotest limits_codec_roundtrip;
    Alcotest.test_case "limits keys and the budget they make" `Quick
      test_limits_keys_and_budget;
  ]
