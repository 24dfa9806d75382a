(* Tests for the sublinear local learner (Grohe-Ritzert style). *)

open Cgraph
module L = Folearn.Erm_local
module Sam = Folearn.Sample
module Hyp = Folearn.Hypothesis
module T = Modelcheck.Types

let check = Alcotest.(check bool)
let check_err = Alcotest.(check (float 1e-9))

(* reference: best local-type hypothesis scanning ALL vertices as the
   single parameter (what Erm_local must match without scanning) *)
let global_best_single_param g ~q ~r lam =
  let ctx = T.make_ctx g in
  let majority params =
    let votes : (T.ty, int ref * int ref) Hashtbl.t = Hashtbl.create 64 in
    List.iter
      (fun (v, label) ->
        let t = T.ltp ctx ~q ~r (Graph.Tuple.append v params) in
        let pos, neg =
          match Hashtbl.find_opt votes t with
          | Some cell -> cell
          | None ->
              let cell = (ref 0, ref 0) in
              Hashtbl.replace votes t cell;
              cell
        in
        if label then incr pos else incr neg)
      lam;
    Hashtbl.fold (fun _ (pos, neg) acc -> acc + min !pos !neg) votes 0
  in
  List.fold_left
    (fun acc w -> min acc (majority [| w |]))
    (majority [||])
    (Graph.vertices g)

let test_matches_global_optimum () =
  (* the pool-restricted search must equal the full-V(G) scan *)
  List.iter
    (fun seed ->
      let g = Gen.random_tree ~seed 24 in
      let w = seed mod 24 in
      let lam =
        Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
          (Sam.random_tuples ~seed g ~k:1 ~m:14)
      in
      let r = 1 in
      let local = L.solve ~radius:r g ~k:1 ~ell:1 ~q:1 lam in
      let global = global_best_single_param g ~q:1 ~r lam in
      let m = Sam.size lam in
      check_err
        (Printf.sprintf "seed %d: local = global optimum" seed)
        (float_of_int global /. float_of_int m)
        local.L.err)
    [ 1; 2; 3; 5; 8 ]

let test_sublinear_access () =
  (* few examples on a long path: touched vertices independent of n *)
  let touched_for n =
    let g = Gen.path n in
    let lam = [ ([| 3 |], true); ([| 7 |], false); ([| n / 2 |], true) ] in
    (L.solve ~radius:1 g ~k:1 ~ell:1 ~q:1 lam).L.vertices_touched
  in
  let t100 = touched_for 100 and t400 = touched_for 400 in
  check "touched equal across n" true (t100 = t400);
  check "touched far below n" true (t400 < 50)

let test_fuel_independent_of_n () =
  (* the same examples on ever longer paths: every ball the solver
     builds is the same, so under Gaifman locality the BFS, type and
     sweep fuel must not move with n *)
  let fuel_for n =
    let g = Gen.path n in
    let lam = [ ([| 3 |], true); ([| 7 |], false); ([| 40 |], true) ] in
    let budget = Guard.Budget.unlimited () in
    (match L.solve_budgeted ~budget ~radius:1 g ~k:1 ~ell:0 ~q:1 lam with
    | Guard.Complete _ -> ()
    | Guard.Exhausted _ -> Alcotest.fail "an unlimited budget must complete");
    (Guard.Budget.spent budget).Guard.fuel
  in
  let f100 = fuel_for 100 in
  Alcotest.(check int) "n = 400 spends what n = 100 does" f100 (fuel_for 400);
  Alcotest.(check int) "n = 10000 spends what n = 100 does" f100
    (fuel_for 10_000)

let composed_c = Obs.Metric.counter "modelcheck.types.ltp_composed"

let test_far_pairs_composed () =
  (* every vertex of path:30 an example, one parameter, radius 1: a pair
     is far when its vertices are more than 3 apart, which 702 of the
     30 x 30 (example, one-vertex candidate) pairs are.  Each is
     composed once, and the fuel does not depend on the number of
     domains. *)
  let g = Gen.path 30 in
  let lam =
    Sam.label_with g ~target:(fun v -> abs (v.(0) - 12) <= 1)
      (Sam.all_tuples g ~k:1)
  in
  let run jobs =
    let pool = Par.Pool.create ~jobs in
    Obs.enable ();
    let before = Obs.Metric.value composed_c in
    let budget = Guard.Budget.unlimited () in
    Fun.protect
      ~finally:(fun () ->
        Obs.disable ();
        Par.Pool.shutdown pool)
      (fun () ->
        match
          L.solve_budgeted ~budget ~pool ~radius:1 g ~k:1 ~ell:1 ~q:1 lam
        with
        | Guard.Complete r ->
            ( Obs.Metric.value composed_c - before,
              (Guard.Budget.spent budget).Guard.fuel,
              r.L.err )
        | Guard.Exhausted _ ->
            Alcotest.fail "an unlimited budget must complete")
  in
  let composed, fuel, err = run 1 in
  Alcotest.(check int) "far pairs composed" 702 composed;
  check_err "exact" 0.0 err;
  Alcotest.(check (triple int int (float 1e-9)))
    "jobs 4 composes and spends what jobs 1 does" (composed, fuel, err) (run 4)

let test_realisable_parameterised () =
  let g = Gen.caterpillar ~seed:4 ~spine:12 ~legs:2 in
  let w = 6 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) w || v.(0) = w)
      (Sam.all_tuples g ~k:1)
  in
  let r = L.solve ~radius:1 g ~k:1 ~ell:1 ~q:1 lam in
  check_err "exact" 0.0 r.L.err;
  (* witness formula round-trip *)
  let f = Hyp.formula r.L.hypothesis in
  let vars = Hyp.xvars 1 @ Hyp.yvars (Hyp.ell r.L.hypothesis) in
  List.iter
    (fun (v, _) ->
      check "formula agrees" true
        (Modelcheck.Eval.holds_tuple g ~vars
           (Graph.Tuple.append v (Hyp.params r.L.hypothesis))
           f
        = Hyp.predict r.L.hypothesis v))
    lam

let test_pool_contains_examples_neighbourhood () =
  let g = Gen.path 50 in
  let lam = [ ([| 25 |], true) ] in
  let r = L.solve ~radius:1 g ~k:1 ~ell:0 ~q:1 lam in
  (* pool = N_3(25) = 7 vertices on a path *)
  check "pool size" true (r.L.pool_size = 7);
  check "params tried = 1 for ell 0" true (r.L.params_tried = 1)

let test_empty_sample () =
  let g = Gen.path 5 in
  let r = L.solve ~radius:1 g ~k:1 ~ell:1 ~q:1 [] in
  check_err "no error on empty" 0.0 r.L.err

let test_noisy_matches_reference () =
  let g = Gen.random_bounded_degree ~seed:6 ~n:30 ~d:3 in
  let lam =
    Sam.flip_noise ~seed:2 ~p:0.2
      (Sam.label_with g ~target:(fun v -> Graph.degree g v.(0) >= 2)
         (Sam.random_tuples ~seed:3 g ~k:1 ~m:16))
  in
  let local = L.solve ~radius:1 g ~k:1 ~ell:1 ~q:1 lam in
  let global = global_best_single_param g ~q:1 ~r:1 lam in
  check_err "agnostic: local = global optimum"
    (float_of_int global /. float_of_int (Sam.size lam))
    local.L.err

let local_equals_global =
  QCheck.Test.make
    ~name:"pool-restricted search equals the full scan (random trees)"
    ~count:10
    QCheck.(int_range 0 300)
    (fun seed ->
      let g = Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed 18) in
      let lam =
        Sam.flip_noise ~seed ~p:0.15
          (Sam.label_with g
             ~target:(fun v -> Graph.has_color g "Red" v.(0))
             (Sam.random_tuples ~seed:(seed + 1) g ~k:1 ~m:10))
      in
      let local = L.solve ~radius:1 g ~k:1 ~ell:1 ~q:1 lam in
      let global = global_best_single_param g ~q:1 ~r:1 lam in
      Float.abs
        (local.L.err -. (float_of_int global /. float_of_int (Sam.size lam)))
      < 1e-9)

let test_pairs_k2 () =
  (* k = 2 tuples: learn "the two endpoints are adjacent" locally *)
  let g = Gen.random_tree ~seed:12 30 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) v.(1))
      (Sam.random_tuples ~seed:5 g ~k:2 ~m:20)
  in
  let r = L.solve ~radius:1 g ~k:2 ~ell:0 ~q:0 lam in
  check_err "adjacency is a local rank-0 pair property" 0.0 r.L.err

(* ------------------------------------------------------------------ *)
(* Preindex (preprocessing for repeated tasks)                         *)
(* ------------------------------------------------------------------ *)

module P = Folearn.Preindex

let test_preindex_classes () =
  let g = Gen.path 10 in
  let idx = P.build g ~q:2 ~r:1 in
  (* rank-2 radius-1 local vertex types on a path: endpoint vs inner
     (rank 1 cannot see the missing second neighbour) *)
  check "two classes" true (P.class_count idx = 2);
  check "endpoints same class" true
    (P.vertex_class idx 0 = P.vertex_class idx 9);
  check "endpoint differs from middle" true
    (P.vertex_class idx 0 <> P.vertex_class idx 5)

let test_preindex_erm_agrees () =
  (* the indexed ERM equals the local learner with no parameters *)
  List.iter
    (fun seed ->
      let g = Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed 20) in
      let idx = P.build g ~q:1 ~r:1 in
      let lam =
        Sam.flip_noise ~seed ~p:0.2
          (Sam.label_with g
             ~target:(fun v -> Graph.has_color g "Red" v.(0))
             (Sam.random_tuples ~seed:(seed + 1) g ~k:1 ~m:15))
      in
      let a = P.erm idx lam in
      let b = L.solve ~radius:1 g ~k:1 ~ell:0 ~q:1 lam in
      check_err
        (Printf.sprintf "indexed = direct (seed %d)" seed)
        b.L.err a.P.err;
      (* and the hypothesis classifies the training set identically *)
      List.iter
        (fun (v, _) ->
          check "same predictions" true
            (Hyp.predict a.P.hypothesis v = Hyp.predict b.L.hypothesis v))
        lam)
    [ 1; 2; 3 ]

let test_preindex_many_tasks () =
  (* amortisation: many tasks on one graph reuse the single build *)
  let g = Gen.random_bounded_degree ~seed:8 ~n:60 ~d:3 in
  let idx = P.build g ~q:1 ~r:1 in
  List.iter
    (fun task_seed ->
      let lam =
        Sam.label_with g
          ~target:(fun v -> Graph.degree g v.(0) >= (task_seed mod 3) + 1)
          (Sam.random_tuples ~seed:task_seed g ~k:1 ~m:12)
      in
      let a = P.erm idx lam in
      check "err bounded by 1" true (a.P.err <= 1.0))
    [ 1; 2; 3; 4; 5 ]

let test_preindex_guards () =
  let g = Gen.path 4 in
  let idx = P.build g ~q:0 ~r:1 in
  check "arity guard" true
    (try
       ignore (P.erm idx [ ([| 0; 1 |], true) ]);
       false
     with Invalid_argument _ -> true);
  check "vertex guard" true
    (try
       ignore (P.vertex_class idx 99);
       false
     with Graph.Invalid_vertex _ -> true)

let suite =
  [
    Alcotest.test_case "matches global optimum" `Quick test_matches_global_optimum;
    Alcotest.test_case "sublinear access" `Quick test_sublinear_access;
    Alcotest.test_case "fuel independent of n" `Quick test_fuel_independent_of_n;
    Alcotest.test_case "far pairs composed" `Quick test_far_pairs_composed;
    Alcotest.test_case "realisable parameterised" `Quick
      test_realisable_parameterised;
    Alcotest.test_case "pool sizing" `Quick test_pool_contains_examples_neighbourhood;
    Alcotest.test_case "empty sample" `Quick test_empty_sample;
    Alcotest.test_case "noisy matches reference" `Quick test_noisy_matches_reference;
    Alcotest.test_case "pairs k=2" `Quick test_pairs_k2;
    Alcotest.test_case "preindex classes" `Quick test_preindex_classes;
    Alcotest.test_case "preindex erm agrees" `Quick test_preindex_erm_agrees;
    Alcotest.test_case "preindex many tasks" `Quick test_preindex_many_tasks;
    Alcotest.test_case "preindex guards" `Quick test_preindex_guards;
    QCheck_alcotest.to_alcotest local_equals_global;
  ]
