(* Tests for folearn.par: the fixed-size domain pool and the
   determinism contract of the parallel candidate sweep.

   - map_reduce_chunks: index-ordered results, equal to the sequential
     fold, lowest-indexed failure re-raised with its backtrace, a
     raising chunk run exactly once, inline on a size-1 pool;
   - the headline property: every sweep solver returns bit-identical
     hypotheses, errors and counters at jobs = 1, 2 and 4 (jobs = 1
     runs first so the global intern tables are warm — ids are
     process-global);
   - budget trips (fault plans and fuel) are deterministic under
     parallelism: shared Atomic accounting makes every worker see the
     same trip. *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Counting = Folearn.Erm_counting
module Local = Folearn.Erm_local
module Hyp = Folearn.Hypothesis

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f =
  let pool = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let sample_on g centre =
  Sam.label_with g
    ~target:(fun v -> Bfs.dist g v.(0) centre <= 1)
    (Sam.all_tuples g ~k:1)

(* ------------------------------------------------------------------ *)
(* map_reduce_chunks                                                   *)
(* ------------------------------------------------------------------ *)

(* [f i] for every index of the chunk, in order *)
let each f lo hi =
  for i = lo to hi - 1 do
    f i
  done

let index_order () =
  with_pool ~jobs:4 @@ fun pool ->
  let r =
    Par.map_reduce_chunks pool ~n:100
      ~map:(fun lo hi -> List.init (hi - lo) (fun d -> (lo + d) * (lo + d)))
      ~reduce:(fun acc xs -> acc @ xs)
      ~init:[]
  in
  check_int "length" 100 (List.length r);
  List.iteri (fun i v -> check_int "r.(i) = i*i" (i * i) v) r

let map_reduce_matches_fold () =
  with_pool ~jobs:4 @@ fun pool ->
  let n = 1000 in
  let total =
    Par.map_reduce_chunks pool ~n
      ~map:(fun lo hi ->
        let s = ref 0 in
        each (fun i -> s := !s + i) lo hi;
        !s)
      ~reduce:( + ) ~init:0
  in
  check_int "sum 0..n-1" (n * (n - 1) / 2) total;
  (* chunk-order reduce: a non-commutative reduction must still see
     the chunks in index order *)
  let concat =
    Par.map_reduce_chunks pool ~n:26
      ~map:(fun lo hi -> String.init (hi - lo) (fun i -> Char.chr (65 + lo + i)))
      ~reduce:( ^ ) ~init:""
  in
  check "chunks reduced in index order" true
    (concat = "ABCDEFGHIJKLMNOPQRSTUVWXYZ")

let lowest_failure_wins () =
  with_pool ~jobs:4 @@ fun pool ->
  match
    Par.map_reduce_chunks pool ~n:64
      ~map:(each (fun i -> if i mod 2 = 1 then failwith (string_of_int i)))
      ~reduce:(fun () () -> ())
      ~init:()
  with
  | () -> Alcotest.fail "expected a failure to propagate"
  | exception Failure m -> check "lowest-indexed failure re-raised" true (m = "1")

let raising_task_runs_once () =
  List.iter
    (fun jobs ->
      with_pool ~jobs @@ fun pool ->
      let attempts = Atomic.make 0 in
      (match
         Par.map_reduce_chunks pool ~n:16
           ~map:
             (each (fun i ->
                  if i = 3 then begin
                    Atomic.incr attempts;
                    failwith "fault"
                  end))
           ~reduce:(fun () () -> ())
           ~init:()
       with
      | () -> Alcotest.fail "expected the failure to propagate"
      | exception Failure m -> check "original exception" true (m = "fault"));
      check_int
        (Printf.sprintf "one attempt at jobs %d" jobs)
        1 (Atomic.get attempts))
    [ 1; 2 ]

let string_contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* a named, never-inlined raiser so its frame is recognisable in the
   re-raised backtrace *)
let[@inline never] backtrace_probe_raiser () = failwith "backtrace probe"

let backtrace_preserved () =
  Printexc.record_backtrace true;
  with_pool ~jobs:4 @@ fun pool ->
  match
    Par.map_reduce_chunks pool ~n:8
      ~map:(each (fun i -> if i = 4 then backtrace_probe_raiser ()))
      ~reduce:(fun () () -> ())
      ~init:()
  with
  | () -> Alcotest.fail "expected the failure to propagate"
  | exception Failure _ ->
      (* raise_with_backtrace re-raises with the worker's original
         trace: the probe's frame in this file must still be visible *)
      check "worker frame survives the re-raise" true
        (string_contains (Printexc.get_backtrace ()) "test_par")

let inline_when_single () =
  (* a size-1 pool must not spawn: it runs inline on the caller *)
  with_pool ~jobs:1 @@ fun pool ->
  let self = Domain.self () in
  let r =
    Par.map_reduce_chunks pool ~n:8
      ~map:(fun lo hi ->
        check "inline on caller domain" true (Domain.self () = self);
        hi - lo)
      ~reduce:( + ) ~init:0
  in
  check_int "inline result" 8 r

(* ------------------------------------------------------------------ *)
(* parallel = sequential, for every sweep solver                      *)
(* ------------------------------------------------------------------ *)

(* Each run_* projects a solver result onto a comparable value:
   hypothesis signature, error, and the solver's own counters
   (everything the determinism contract promises). *)

let run_brute pool g lam =
  let r = Brute.solve ~pool g ~k:1 ~ell:1 ~q:1 lam in
  (Hyp.signature r.Brute.hypothesis, r.Brute.err, r.Brute.params_tried)

let run_counting pool g lam =
  let r = Counting.solve ~pool g ~k:1 ~ell:1 ~q:1 ~tmax:2 lam in
  (Hyp.signature r.Counting.hypothesis, r.Counting.err, r.Counting.params_tried)

let run_local pool g lam =
  let r = Local.solve ~pool ~radius:1 g ~k:1 ~ell:1 ~q:1 lam in
  ( Hyp.signature r.Local.hypothesis,
    r.Local.err,
    r.Local.params_tried + (r.Local.pool_size * 1000)
    + (r.Local.vertices_touched * 1000000) )

let det_prop (name, runner) =
  QCheck.Test.make ~count:6
    ~name:(Printf.sprintf "%s: jobs 1/2/4 bit-identical" name)
    QCheck.(int_range 6 14)
    (fun n ->
      let g = Gen.gnp ~seed:n ~n ~p:0.25 in
      let lam = sample_on g (n / 2) in
      (* jobs = 1 first: warms the process-global intern tables *)
      let seq = with_pool ~jobs:1 (fun pool -> runner pool g lam) in
      List.for_all
        (fun jobs -> with_pool ~jobs (fun pool -> runner pool g lam) = seq)
        [ 2; 4 ])

let det_props =
  List.map det_prop
    [
      ("erm_brute", run_brute);
      ("erm_counting", run_counting);
      ("erm_local", run_local);
    ]

(* ------------------------------------------------------------------ *)
(* Deterministic budget trips under parallelism                        *)
(* ------------------------------------------------------------------ *)

let fault_trip_deterministic () =
  let g = Gen.gnp ~seed:5 ~n:24 ~p:0.2 in
  let lam = sample_on g 12 in
  let outcome jobs faults =
    with_pool ~jobs @@ fun pool ->
    match
      Brute.solve_budgeted
        ~budget:(Guard.Budget.make ~faults ())
        ~pool g ~k:1 ~ell:1 ~q:1 lam
    with
    | Guard.Complete _ -> None
    | Guard.Exhausted { reason; checkpoint; _ } -> Some (reason, checkpoint)
  in
  List.iter
    (fun cp ->
      let faults = Guard.Faults.trip_at cp ~n:10 in
      let seq = outcome 1 faults in
      check "fault plan fires" true (seq <> None);
      check
        (Printf.sprintf "trip at %s identical at jobs 4"
           (Guard.checkpoint_to_string cp))
        true
        (outcome 4 faults = seq))
    [ Guard.Solver_loop; Guard.Hintikka_build ]

let fuel_trip_deterministic () =
  (* fuel is one shared Atomic: the cap is crossed at the same total
     spend whatever the schedule, so the reason is stable (the
     reporting checkpoint may be any of the concurrent ones) *)
  let g = Gen.gnp ~seed:6 ~n:24 ~p:0.2 in
  let lam = sample_on g 12 in
  let reason_at jobs =
    with_pool ~jobs @@ fun pool ->
    match
      Brute.solve_budgeted
        ~budget:(Guard.Budget.make ~fuel:500 ())
        ~pool g ~k:1 ~ell:1 ~q:1 lam
    with
    | Guard.Complete _ -> None
    | Guard.Exhausted { reason; _ } -> Some reason
  in
  check "fuel cap trips sequentially" true (reason_at 1 = Some Guard.Out_of_fuel);
  check "fuel cap trips at jobs 4" true (reason_at 4 = Some Guard.Out_of_fuel)

(* ------------------------------------------------------------------ *)
(* The shared candidate sweep under a random fuel budget               *)
(* ------------------------------------------------------------------ *)

module Plan = Analysis.Plan

(* one sweep solver on one instance: its plan and a budgeted run *)
type sweep_case = {
  plan : Plan.t;
  run :
    Par.Pool.t -> Guard.Budget.t option -> (Hyp.t * float * int) Guard.outcome;
}

let sweep_case solver g ~ell ~q ~tmax lam =
  let plan =
    Plan.analyze (Plan.input ~tmax g ~k:1 ~ell ~q (List.map fst lam)) solver
  in
  match solver with
  | Plan.Brute ->
      let run pool budget =
        Guard.outcome_map
          (fun (r : Brute.result) ->
            (r.Brute.hypothesis, r.Brute.err, r.Brute.params_tried))
          (Brute.solve_budgeted ?budget ~pool g ~k:1 ~ell ~q lam)
      in
      { plan; run }
  | Plan.Counting ->
      let run pool budget =
        Guard.outcome_map
          (fun (r : Counting.result) ->
            (r.Counting.hypothesis, r.Counting.err, r.Counting.params_tried))
          (Counting.solve_budgeted ?budget ~pool g ~k:1 ~ell ~q ~tmax lam)
      in
      { plan; run }
  | _ ->
      let run pool budget =
        Guard.outcome_map
          (fun (r : Local.result) ->
            (r.Local.hypothesis, r.Local.err, r.Local.params_tried))
          (Local.solve_budgeted ?budget ~pool g ~k:1 ~ell ~q lam)
      in
      { plan; run }

(* sequential = parallel on Complete; a salvaged answer reports its
   true error; a budget at the planner's tight band always salvages *)
let sweep_prop =
  QCheck.Test.make ~count:40
    ~name:"sweep: jobs 1/4 agree; salvage is sound"
    QCheck.(
      pair
        (quad (int_range 1 10) (int_range 0 2) (int_range 0 2) (int_range 0 2))
        (triple (int_range 0 1000) (int_range 0 1000) (int_range 1 2)))
    (fun ((n, ell, q, which), (seed, draw, tmax)) ->
      let g = Gen.gnp ~seed ~n ~p:0.3 in
      let lam =
        Sam.label_with g
          ~target:(fun v -> (v.(0) * (seed + 3)) mod 5 < 2)
          (Sam.all_tuples g ~k:1)
      in
      let solver = List.nth [ Plan.Brute; Plan.Counting; Plan.Local ] which in
      let c = sweep_case solver g ~ell ~q ~tmax lam in
      let project (h, err, tried) = (Hyp.signature h, err, tried) in
      (* jobs 1 first: warms the process-global intern tables *)
      let reference =
        match with_pool ~jobs:1 (fun pool -> c.run pool None) with
        | Guard.Complete r -> project r
        | Guard.Exhausted _ -> QCheck.Test.fail_report "unbudgeted, exhausted"
      in
      let ample =
        match (Plan.suggest_fuel c.plan).Plan.ample with
        | Some f -> f
        | None -> 1_000_000
      in
      let tight = (Plan.suggest_fuel c.plan).Plan.tight in
      let fuels = (draw * ample / 1000) :: Option.to_list tight in
      let sound jobs fuel =
        with_pool ~jobs @@ fun pool ->
        match c.run pool (Some (Guard.Budget.make ~fuel ())) with
        | Guard.Complete r -> project r = reference
        | Guard.Exhausted { best_so_far = Some (h, e, _); _ } ->
            Hyp.training_error h lam = e
        | Guard.Exhausted { best_so_far = None; _ } -> (
            match tight with Some t -> fuel < t | None -> true)
      in
      let parallel_ok =
        match with_pool ~jobs:4 (fun pool -> c.run pool None) with
        | Guard.Complete r -> project r = reference
        | Guard.Exhausted _ -> false
      in
      parallel_ok
      && List.for_all (fun fuel -> sound 1 fuel && sound 4 fuel) fuels)

let suite =
  [
    Alcotest.test_case "map_reduce_chunks returns index-ordered results"
      `Quick index_order;
    Alcotest.test_case "map_reduce_chunks = sequential fold" `Quick
      map_reduce_matches_fold;
    Alcotest.test_case "lowest-indexed failure is re-raised" `Quick
      lowest_failure_wins;
    Alcotest.test_case "a raising task runs exactly once" `Quick
      raising_task_runs_once;
    Alcotest.test_case "re-raise preserves the worker backtrace" `Quick
      backtrace_preserved;
    Alcotest.test_case "jobs=1 runs inline on the caller" `Quick
      inline_when_single;
  ]
  @ List.map (fun p -> QCheck_alcotest.to_alcotest p) det_props
  @ [
      Alcotest.test_case "fault plans trip deterministically under jobs 4"
        `Quick fault_trip_deterministic;
      Alcotest.test_case "fuel cap trips under jobs 4" `Quick
        fuel_trip_deterministic;
      QCheck_alcotest.to_alcotest sweep_prop;
    ]
