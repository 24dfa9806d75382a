(* Tests for the three ERM solvers:
   - Erm_brute (Prop 11): exact optimality,
   - Erm_realizable (Prop 12): consistent parameter discovery for k = 1,
   - Erm_nd (Theorem 13): the (L,Q) guarantee err <= eps* + eps. *)

open Cgraph
module F = Fo.Formula
module Hyp = Folearn.Hypothesis
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Real = Folearn.Erm_realizable
module Nd = Folearn.Erm_nd

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_err = Alcotest.(check (float 1e-9))

let coloured_path n =
  Graph.with_colors (Gen.path n)
    [
      ("Red", List.filter (fun v -> v mod 3 = 0) (List.init n Fun.id));
      ("Blue", List.filter (fun v -> v mod 4 = 1) (List.init n Fun.id));
    ]

let coloured_tree ~seed n =
  Gen.colored ~seed ~colors:[ "Red"; "Blue" ] (Gen.random_tree ~seed n)

(* ------------------------------------------------------------------ *)
(* Erm_brute                                                           *)
(* ------------------------------------------------------------------ *)

let test_brute_realisable_parameterless () =
  let g = coloured_path 8 in
  let target = Fo.Parser.parse "exists z. E(x1, z) /\\ Red(z)" in
  let lam =
    Sam.label_with_query g ~formula:target ~xvars:[ "x1" ] (Sam.all_tuples g ~k:1)
  in
  let r = Brute.solve g ~k:1 ~ell:0 ~q:1 lam in
  check_err "zero training error" 0.0 r.Brute.err;
  check_err "hypothesis agrees" 0.0 (Hyp.training_error r.Brute.hypothesis lam);
  check_int "tried exactly one parameter tuple" 1 r.Brute.params_tried

(* Every type node is computed once per root: a brute learn over all n
   vertices at l = 1, q = 2 computes n^2 roots of n^2 + n + 1 nodes. *)
let test_brute_tp_misses () =
  let g = Gen.gnp ~seed:42 ~n:8 ~p:0.3 (* the CLI's gnp:8:0.3 *) in
  let target = Fo.Parser.parse "exists y. E(x1, y)" in
  let lam =
    Sam.label_with_query g ~formula:target ~xvars:[ "x1" ] (Sam.all_tuples g ~k:1)
  in
  let misses = Obs.Metric.counter "modelcheck.types.tp_misses" in
  Obs.enable ();
  let before = Obs.Metric.value misses in
  Fun.protect ~finally:Obs.disable (fun () ->
      ignore (Brute.solve g ~k:1 ~ell:1 ~q:2 lam));
  check_int "tp_misses = 8^4 + 8^3 + 8^2" (4096 + 512 + 64)
    (Obs.Metric.value misses - before)

let test_brute_needs_parameter () =
  (* target "adjacent to w" for a hidden w: not expressible without
     parameters at rank 0, perfectly expressible with ell = 1 *)
  let g = Gen.path 7 in
  let w = 3 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) w)
      (Sam.all_tuples g ~k:1)
  in
  let without = Brute.solve g ~k:1 ~ell:0 ~q:0 lam in
  let with_param = Brute.solve g ~k:1 ~ell:1 ~q:0 lam in
  check "parameterless must err" true (without.Brute.err > 0.0);
  check_err "parameter fixes it" 0.0 with_param.Brute.err;
  check_int "n^1 candidates" 7 with_param.Brute.params_tried

let test_brute_optimality_vs_all_hypotheses () =
  (* exhaustive check on a tiny instance: no (type-set, params) hypothesis
     beats the solver *)
  let g = coloured_path 5 in
  let lam =
    [ ([| 0 |], true); ([| 1 |], false); ([| 2 |], true);
      ([| 3 |], false); ([| 4 |], true) ]
  in
  let best = Brute.solve g ~k:1 ~ell:1 ~q:1 lam in
  let ctx = Modelcheck.Types.make_ctx g in
  (* all hypotheses: for each params w, each subset of realised types *)
  let beat = ref false in
  List.iter
    (fun w ->
      let params = [| w |] in
      let types =
        List.sort_uniq Modelcheck.Types.compare
          (List.map
             (fun (v, _) ->
               Modelcheck.Types.tp ctx ~q:1 (Graph.Tuple.append v params))
             lam)
      in
      let rec subsets = function
        | [] -> [ [] ]
        | t :: rest ->
            let s = subsets rest in
            s @ List.map (fun u -> t :: u) s
      in
      List.iter
        (fun chosen ->
          let h = Hyp.of_types g ~k:1 ~q:1 ~types:chosen ~params in
          if Hyp.training_error h lam < best.Brute.err -. 1e-9 then beat := true)
        (subsets types))
    (Graph.vertices g);
  check "no hypothesis beats the solver" false !beat

let test_brute_agnostic_contradiction () =
  (* the same tuple labelled both ways: best possible error is 1/2 *)
  let g = Gen.path 3 in
  let lam = [ ([| 1 |], true); ([| 1 |], false) ] in
  let r = Brute.solve g ~k:1 ~ell:1 ~q:1 lam in
  check_err "Bayes error 1/2" 0.5 r.Brute.err

let test_brute_pairs () =
  (* k = 2: learn "x1 and x2 are adjacent" *)
  let g = Gen.cycle 5 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) v.(1))
      (Sam.all_tuples g ~k:2)
  in
  let r = Brute.solve g ~k:2 ~ell:0 ~q:0 lam in
  check_err "adjacency is a rank-0 pair property" 0.0 r.Brute.err

let test_brute_empty_sample () =
  let g = Gen.path 3 in
  let r = Brute.solve g ~k:1 ~ell:0 ~q:0 [] in
  check_err "empty sample, zero error" 0.0 r.Brute.err

let test_brute_witness_formula_faithful () =
  (* the returned formula, evaluated from scratch, reproduces the
     classifier *)
  let g = coloured_path 6 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Sam.all_tuples g ~k:1)
  in
  let r = Brute.solve g ~k:1 ~ell:0 ~q:1 lam in
  let f = Hyp.formula r.Brute.hypothesis in
  List.iter
    (fun v ->
      check "formula = predictor" true
        (Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] v f
        = Hyp.predict r.Brute.hypothesis v))
    (Sam.all_tuples g ~k:1)

let brute_beats_any_query =
  QCheck.Test.make
    ~name:"erm_brute error <= error of every concrete query (random)"
    ~count:20
    QCheck.(int_range 0 500)
    (fun seed ->
      let g = coloured_tree ~seed:(seed + 21) 7 in
      let lam =
        Sam.flip_noise ~seed ~p:0.2
          (Sam.label_with g
             ~target:(fun v -> Graph.has_color g "Red" v.(0))
             (Sam.all_tuples g ~k:1))
      in
      let r = Brute.solve g ~k:1 ~ell:0 ~q:1 lam in
      let queries =
        [
          "Red(x1)";
          "Blue(x1)";
          "exists z. E(x1, z) /\\ Red(z)";
          "forall z. E(x1, z) -> Blue(z)";
          "true";
          "false";
        ]
      in
      List.for_all
        (fun src ->
          let f = Fo.Parser.parse src in
          let h = Hyp.of_formula g ~k:1 ~formula:f ~params:[||] in
          r.Brute.err <= Hyp.training_error h lam +. 1e-9)
        queries)

(* ------------------------------------------------------------------ *)
(* Erm_realizable (Algorithm 2)                                        *)
(* ------------------------------------------------------------------ *)

let ball_query = "exists z. E(x, z) /\\ E(z, y1)"
(* x within distance 2 of the parameter, via a midpoint *)

let test_realizable_finds_parameter () =
  let g = Gen.path 9 in
  let target = Fo.Parser.parse ball_query in
  (* hidden parameter w = 4 *)
  let lam =
    Sam.label_with g
      ~target:(fun v ->
        Modelcheck.Eval.holds g [ ("x", v.(0)); ("y1", 4) ] target)
      (Sam.all_tuples g ~k:1)
  in
  match Real.solve g ~ell:1 ~catalogue:[ target ] lam with
  | None -> Alcotest.fail "should find a consistent parameter"
  | Some r ->
      check_err "consistent" 0.0 (Hyp.training_error r.Real.hypothesis lam);
      check "called the model checker" true (r.Real.mc_calls >= 1)

let test_realizable_skips_bad_formula () =
  let g = coloured_path 7 in
  let bad = Fo.Parser.parse "Blue(x)" in
  let good = Fo.Parser.parse "Red(x)" in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Sam.all_tuples g ~k:1)
  in
  match Real.solve g ~ell:0 ~catalogue:[ bad; good ] lam with
  | None -> Alcotest.fail "second formula is consistent"
  | Some r ->
      check_int "tried two formulas" 2 r.Real.formulas_tried;
      check_err "consistent" 0.0 (Hyp.training_error r.Real.hypothesis lam)

let test_realizable_rejects () =
  let g = Gen.path 4 in
  (* contradictory labels: no hypothesis is consistent *)
  let lam = [ ([| 0 |], true); ([| 0 |], false) ] in
  check "reject" true
    (Real.solve g ~ell:1 ~catalogue:[ Fo.Parser.parse "E(x, y1)" ] lam = None)

let test_realizable_two_parameters () =
  let g = Gen.path 10 in
  let target = Fo.Parser.parse "E(x, y1) \\/ E(x, y2)" in
  let w1 = 2 and w2 = 7 in
  let lam =
    Sam.label_with g
      ~target:(fun v ->
        Graph.mem_edge g v.(0) w1 || Graph.mem_edge g v.(0) w2)
      (Sam.all_tuples g ~k:1)
  in
  match Real.solve g ~ell:2 ~catalogue:[ target ] lam with
  | None -> Alcotest.fail "two-parameter target is realisable"
  | Some r ->
      check_err "consistent" 0.0 (Hyp.training_error r.Real.hypothesis lam)

let test_realizable_guards () =
  let g = Gen.path 4 in
  check "stray variable" true
    (try
       ignore
         (Real.solve g ~ell:0 ~catalogue:[ Fo.Parser.parse "E(x, zz)" ]
            [ ([| 0 |], true) ]);
       false
     with Invalid_argument _ -> true);
  check "arity guard" true
    (try
       ignore (Real.solve g ~ell:0 ~catalogue:[ F.tru ] [ ([| 0; 1 |], true) ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Catalogue generation for Algorithm 2                                *)
(* ------------------------------------------------------------------ *)

module Cat = Folearn.Catalogue

let test_catalogue_shapes () =
  let g = Graph.with_colors (Gen.path 6) [ ("Red", [ 2 ]) ] in
  let singles = Cat.positive_types_only g ~ell:0 ~q:1 ~r:1 in
  check "one formula per realised class" true (List.length singles >= 2);
  List.iter
    (fun f ->
      check "free variable is x" true (Fo.Formula.free_vars f = [ "x" ]))
    singles;
  let cat = Cat.of_local_types g ~ell:1 ~q:0 ~r:1 ~max_size:40 () in
  check "capped" true (List.length cat <= 40);
  List.iter
    (fun f ->
      check "free vars among x,y1" true
        (List.for_all (fun v -> List.mem v [ "x"; "y1" ]) (Fo.Formula.free_vars f)))
    cat

let test_catalogue_singletons_partition () =
  (* the singleton catalogue formulas are mutually exclusive and jointly
     exhaustive over vertices *)
  let g = Graph.with_colors (Gen.path 6) [ ("Red", [ 2 ]) ] in
  let singles = Cat.positive_types_only g ~ell:0 ~q:1 ~r:1 in
  List.iter
    (fun v ->
      let hits =
        List.length
          (List.filter
             (fun f -> Modelcheck.Eval.holds g [ ("x", v) ] f)
             singles)
      in
      check_int (Printf.sprintf "exactly one class at %d" v) 1 hits)
    (Graph.vertices g)

let test_catalogue_drives_algorithm2 () =
  (* fully automatic Prop 12: realisable one-parameter target, catalogue
     generated from the graph's own realised types *)
  let g = Graph.with_colors (Gen.path 8) [ ("Red", [ 2; 5 ]) ] in
  let w = 5 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) w || v.(0) = w)
      (Sam.all_tuples g ~k:1)
  in
  let catalogue = Cat.of_local_types g ~ell:1 ~q:1 ~r:1 () in
  match Real.solve g ~ell:1 ~catalogue lam with
  | None -> Alcotest.fail "auto-catalogue should contain a consistent formula"
  | Some r ->
      check_err "consistent" 0.0 (Hyp.training_error r.Real.hypothesis lam)

(* ------------------------------------------------------------------ *)
(* Erm_nd (Theorem 13)                                                 *)
(* ------------------------------------------------------------------ *)

let nd_config ?(epsilon = 0.125) ?(ell_star = 1) ?(q_star = 1) ?(radius = 1) k =
  Nd.default_config ~epsilon ~radius ~branch_width:12 ~k ~ell_star ~q_star
    Splitter.Nowhere_dense.forests

let test_nd_no_conflicts_zero_rounds () =
  (* colour-determined labels: no conflicts, no parameters needed *)
  let g = coloured_path 8 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Sam.all_tuples g ~k:1)
  in
  let rep = Nd.solve (nd_config 1) g lam in
  check_err "err 0" 0.0 rep.Nd.err;
  check_int "no parameters used" 0 rep.Nd.ell_used

let test_nd_learns_parameterised_target () =
  (* "adjacent to w" needs a parameter; conflicts force a splitter round *)
  let g = Gen.path 11 in
  let w = 5 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) w)
      (Sam.all_tuples g ~k:1)
  in
  let rep = Nd.solve (nd_config 1) g lam in
  let eps_star = (Brute.solve g ~k:1 ~ell:1 ~q:1 lam).Brute.err in
  check_err "comparison class is realisable" 0.0 eps_star;
  check "theorem 13 guarantee" true (rep.Nd.err <= eps_star +. 0.125 +. 1e-9);
  check "used parameters" true (rep.Nd.ell_used >= 1)

let test_nd_conflicts_detected () =
  let g = Gen.path 11 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) 5)
      (Sam.all_tuples g ~k:1)
  in
  let cs = Nd.conflicts g ~q:1 ~r:1 lam in
  check "conflicts exist" true (cs <> []);
  (* each conflict pair has equal local types *)
  let ctx = Modelcheck.Types.make_ctx g in
  List.iter
    (fun (p, n) ->
      check "equal ltp" true
        (Modelcheck.Types.equal
           (Modelcheck.Types.ltp ctx ~q:1 ~r:1 p)
           (Modelcheck.Types.ltp ctx ~q:1 ~r:1 n)))
    cs

let test_nd_guarantee_on_trees () =
  (* the headline property: err <= eps* + eps across random trees with a
     hidden one-parameter target *)
  List.iter
    (fun seed ->
      let g = Gen.random_tree ~seed 14 in
      let w = seed mod 14 in
      let lam =
        Sam.label_with g
          ~target:(fun v -> v.(0) = w || Graph.mem_edge g v.(0) w)
          (Sam.all_tuples g ~k:1)
      in
      let rep = Nd.solve (nd_config 1) g lam in
      let eps_star = (Brute.solve g ~k:1 ~ell:1 ~q:1 lam).Brute.err in
      if rep.Nd.err > eps_star +. 0.125 +. 1e-9 then
        Alcotest.failf "guarantee violated on seed %d: %.3f > %.3f + 0.125"
          seed rep.Nd.err eps_star)
    [ 1; 2; 3; 4; 5 ]

let test_nd_noisy_labels () =
  (* agnostic setting: noisy labels; guarantee is relative to eps* *)
  let g = Gen.random_tree ~seed:11 12 in
  let lam =
    Sam.flip_noise ~seed:3 ~p:0.15
      (Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) 4)
         (Sam.all_tuples g ~k:1))
  in
  let rep = Nd.solve (nd_config 1) g lam in
  let eps_star = (Brute.solve g ~k:1 ~ell:1 ~q:1 lam).Brute.err in
  check "agnostic guarantee" true (rep.Nd.err <= eps_star +. 0.125 +. 1e-9)

let test_nd_pairs () =
  (* k = 2 on a grid: learn "both endpoints near the hidden centre" *)
  let g = Gen.grid 4 3 in
  let cfg =
    Nd.default_config ~epsilon:0.25 ~radius:1 ~branch_width:12 ~k:2 ~ell_star:1
      ~q_star:1 Splitter.Nowhere_dense.planar_like
  in
  let w = 5 in
  let near v = Bfs.dist g v w <= 1 in
  let lam =
    Sam.label_with g ~target:(fun v -> near v.(0) && near v.(1))
      (Sam.random_tuples ~seed:4 g ~k:2 ~m:60)
  in
  let rep = Nd.solve cfg g lam in
  let eps_star = (Brute.solve g ~k:2 ~ell:1 ~q:1 lam).Brute.err in
  check "k=2 guarantee" true (rep.Nd.err <= eps_star +. 0.25 +. 1e-9)

let test_nd_rejects_bad_epsilon () =
  let g = Gen.path 3 in
  check "epsilon 0 rejected" true
    (try
       ignore (Nd.solve (nd_config ~epsilon:0.0 1) g []);
       false
     with Invalid_argument _ -> true)

let test_nd_hypothesis_formula_faithful () =
  let g = Gen.path 9 in
  let lam =
    Sam.label_with g ~target:(fun v -> Graph.mem_edge g v.(0) 4)
      (Sam.all_tuples g ~k:1)
  in
  let rep = Nd.solve (nd_config 1) g lam in
  let f = Hyp.formula rep.Nd.hypothesis in
  let vars =
    Hyp.xvars 1 @ Hyp.yvars (Hyp.ell rep.Nd.hypothesis)
  in
  List.iter
    (fun v ->
      check "materialised formula agrees" true
        (Modelcheck.Eval.holds_tuple g ~vars
           (Graph.Tuple.append v (Hyp.params rep.Nd.hypothesis))
           f
        = Hyp.predict rep.Nd.hypothesis v))
    (Sam.all_tuples g ~k:1)

let test_nd_two_parameters () =
  (* ell* = 2: target is the union of two hidden balls *)
  List.iter
    (fun seed ->
      let g = Gen.random_tree ~seed 16 in
      let w1 = seed mod 16 and w2 = ((seed * 7) + 3) mod 16 in
      let lam =
        Sam.label_with g
          ~target:(fun v ->
            Bfs.dist g v.(0) w1 <= 1 || Bfs.dist g v.(0) w2 <= 1)
          (Sam.all_tuples g ~k:1)
      in
      let cfg =
        Nd.default_config ~epsilon:0.2 ~radius:1 ~branch_width:16 ~k:1
          ~ell_star:2 ~q_star:1 Splitter.Nowhere_dense.forests
      in
      let rep = Nd.solve cfg g lam in
      let eps_star = (Brute.solve g ~k:1 ~ell:2 ~q:1 lam).Brute.err in
      if rep.Nd.err > eps_star +. 0.2 +. 1e-9 then
        Alcotest.failf "two-parameter guarantee violated on seed %d" seed)
    [ 1; 2; 3; 6 ]

let test_nd_radius2_rank0 () =
  (* q* = 0 with a wider locality radius and colours *)
  List.iter
    (fun seed ->
      let g = Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed 14) in
      let w = seed mod 14 in
      let lam =
        Sam.label_with g
          ~target:(fun v ->
            Bfs.dist g v.(0) w <= 2 && Graph.has_color g "Red" v.(0))
          (Sam.all_tuples g ~k:1)
      in
      let cfg =
        Nd.default_config ~epsilon:0.2 ~radius:2 ~branch_width:16 ~k:1
          ~ell_star:1 ~q_star:0 Splitter.Nowhere_dense.forests
      in
      let rep = Nd.solve cfg g lam in
      let eps_star = (Brute.solve g ~k:1 ~ell:1 ~q:0 lam).Brute.err in
      if rep.Nd.err > eps_star +. 0.2 +. 1e-9 then
        Alcotest.failf "radius-2 guarantee violated on seed %d" seed)
    [ 1; 2; 3; 5 ]

let test_nd_counting_mode () =
  (* the FOC variant (conclusion §6): counting local types fit a degree
     target at rank 1 where plain local types cannot *)
  List.iter
    (fun seed ->
      let g = Gen.caterpillar ~seed ~spine:10 ~legs:3 in
      let lam =
        Sam.label_with g ~target:(fun v -> Graph.degree g v.(0) >= 3)
          (Sam.all_tuples g ~k:1)
      in
      let cls = Splitter.Nowhere_dense.forests in
      let plain =
        Nd.solve
          (Nd.default_config ~epsilon:0.125 ~radius:1 ~branch_width:8 ~k:1
             ~ell_star:0 ~q_star:1 cls)
          g lam
      in
      let counting =
        Nd.solve
          (Nd.default_config ~epsilon:0.125 ~radius:1 ~branch_width:8
             ~counting:3 ~k:1 ~ell_star:0 ~q_star:1 cls)
          g lam
      in
      check "plain rank-1 local types must err" true (plain.Nd.err > 0.0);
      check_err
        (Printf.sprintf "counting exact on seed %d" seed)
        0.0 counting.Nd.err;
      (* the counting hypothesis round-trips through its witness formula *)
      let h = counting.Nd.hypothesis in
      let f = Hyp.formula h in
      let vars = Hyp.xvars 1 @ Hyp.yvars (Hyp.ell h) in
      List.iter
        (fun (v, _) ->
          check "counting witness formula agrees" true
            (Modelcheck.Eval.holds_tuple g ~vars
               (Graph.Tuple.append v (Hyp.params h))
               f
            = Hyp.predict h v))
        lam)
    [ 1; 2 ]

let nd_guarantee_random =
  QCheck.Test.make
    ~name:"Theorem 13 guarantee err <= eps* + eps (random trees)" ~count:8
    QCheck.(int_range 0 200)
    (fun seed ->
      let g = Gen.random_tree ~seed:(seed + 31) 12 in
      let w = seed mod 12 in
      let lam =
        Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
          (Sam.all_tuples g ~k:1)
      in
      let rep = Nd.solve (nd_config 1) g lam in
      let eps_star = (Brute.solve g ~k:1 ~ell:1 ~q:1 lam).Brute.err in
      rep.Nd.err <= eps_star +. 0.125 +. 1e-9)

let suite =
  [
    Alcotest.test_case "brute realisable" `Quick test_brute_realisable_parameterless;
    Alcotest.test_case "brute needs parameter" `Quick test_brute_needs_parameter;
    Alcotest.test_case "brute optimality" `Quick test_brute_optimality_vs_all_hypotheses;
    Alcotest.test_case "brute contradiction" `Quick test_brute_agnostic_contradiction;
    Alcotest.test_case "brute pairs" `Quick test_brute_pairs;
    Alcotest.test_case "brute empty sample" `Quick test_brute_empty_sample;
    Alcotest.test_case "brute witness formula" `Quick test_brute_witness_formula_faithful;
    Alcotest.test_case "realizable finds parameter" `Quick test_realizable_finds_parameter;
    Alcotest.test_case "realizable skips bad formula" `Quick test_realizable_skips_bad_formula;
    Alcotest.test_case "realizable rejects" `Quick test_realizable_rejects;
    Alcotest.test_case "realizable two parameters" `Quick test_realizable_two_parameters;
    Alcotest.test_case "realizable guards" `Quick test_realizable_guards;
    Alcotest.test_case "catalogue shapes" `Quick test_catalogue_shapes;
    Alcotest.test_case "catalogue partitions" `Quick test_catalogue_singletons_partition;
    Alcotest.test_case "auto-catalogue drives Alg 2" `Slow test_catalogue_drives_algorithm2;
    Alcotest.test_case "nd no conflicts" `Quick test_nd_no_conflicts_zero_rounds;
    Alcotest.test_case "nd parameterised target" `Quick test_nd_learns_parameterised_target;
    Alcotest.test_case "nd conflicts detected" `Quick test_nd_conflicts_detected;
    Alcotest.test_case "nd guarantee on trees" `Quick test_nd_guarantee_on_trees;
    Alcotest.test_case "nd noisy labels" `Quick test_nd_noisy_labels;
    Alcotest.test_case "nd pairs on grid" `Slow test_nd_pairs;
    Alcotest.test_case "nd epsilon guard" `Quick test_nd_rejects_bad_epsilon;
    Alcotest.test_case "nd formula faithful" `Quick test_nd_hypothesis_formula_faithful;
    Alcotest.test_case "nd two parameters" `Slow test_nd_two_parameters;
    Alcotest.test_case "nd radius 2, rank 0" `Slow test_nd_radius2_rank0;
    Alcotest.test_case "nd counting mode (FOC)" `Slow test_nd_counting_mode;
    QCheck_alcotest.to_alcotest nd_guarantee_random;
    QCheck_alcotest.to_alcotest brute_beats_any_query;
    Alcotest.test_case "brute computes each type node once" `Quick
      test_brute_tp_misses;
  ]
