(* Tests for the Theorem 1 hardness reduction: model checking through an
   ERM oracle must agree with direct model checking. *)

open Cgraph
module Red = Folearn.Reduction
module E = Modelcheck.Eval

let check = Alcotest.(check bool)

let corpus_graphs =
  [
    ("P7", Gen.path 7);
    ("C6", Gen.cycle 6);
    ("K4", Gen.clique 4);
    ("star6", Gen.star 6);
    ( "coloured-path",
      Graph.with_colors (Gen.path 6) [ ("Red", [ 0; 2 ]); ("Blue", [ 4 ]) ] );
    ("tree", Gen.random_tree ~seed:8 8);
  ]

let corpus_sentences =
  [
    "exists x. exists y. E(x, y)";
    "forall x. exists y. E(x, y)";
    "exists x. forall y. ~ E(x, y)";
    "exists x. exists y. exists z. E(x, y) /\\ E(y, z) /\\ E(x, z)";
    "forall x. forall y. E(x, y) \\/ x = y";
    "exists x. Red(x) /\\ exists y. E(x, y) /\\ Blue(y)";
    "exists x. forall y. E(x, y) -> exists z. E(y, z) /\\ ~ z = x";
    "true";
    "exists x. x = x";
  ]

let test_agrees_with_direct () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun src ->
          let phi = Fo.Parser.parse src in
          let expected = E.sentence g phi in
          let got, _ = Red.model_check ~oracle:Red.exact_oracle g phi in
          if got <> expected then
            Alcotest.failf "reduction wrong on %s |= %s (expected %b)" gname
              src expected)
        corpus_sentences)
    corpus_graphs

let test_stats_populated () =
  let g = Gen.path 6 in
  let phi = Fo.Parser.parse "exists x. forall y. E(x, y) -> ~ Red(y)" in
  let _, stats = Red.model_check ~oracle:Red.exact_oracle g phi in
  check "oracle consulted" true (stats.Red.oracle_calls > 0);
  check "pairs bounded" true (stats.Red.oracle_calls <= 6 * 5 / 2 * 10);
  check "representative sets recorded" true
    (stats.Red.representative_sets <> []);
  (* representative sets are genuinely smaller than the graph on paths *)
  check "compression happened" true
    (List.for_all (fun t -> t <= 6) stats.Red.representative_sets)

let test_representatives_cover_types () =
  (* on a long path the reduction should keep roughly the distinct
     rank-q types, far fewer than n *)
  let g = Gen.path 12 in
  let phi = Fo.Parser.parse "exists x. forall y. ~ E(x, y)" in
  let got, stats = Red.model_check ~oracle:Red.exact_oracle g phi in
  check "no isolated vertex on a path" false got;
  match stats.Red.representative_sets with
  | t :: _ -> check "top-level T small" true (t <= 6)
  | [] -> Alcotest.fail "no representative set recorded"

let test_sentence_guard () =
  check "free variables rejected" true
    (try
       ignore
         (Red.model_check ~oracle:Red.exact_oracle (Gen.path 3)
            (Fo.Parser.parse "E(x, y)"));
       false
     with Invalid_argument _ -> true)

let test_boolean_glue () =
  let g = Gen.cycle 5 in
  let t = Fo.Parser.parse "exists x. exists y. E(x, y)" in
  let f = Fo.Parser.parse "exists x. forall y. E(x, y)" in
  let and_phi = Fo.Formula.and_ [ t; Fo.Formula.not_ f ] in
  let got, _ = Red.model_check ~oracle:Red.exact_oracle g and_phi in
  check "boolean combination" true got

let test_general_l_small () =
  (* the disjoint-copies construction, on tiny instances *)
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun src ->
          let phi = Fo.Parser.parse src in
          let expected = E.sentence g phi in
          let got, _ =
            Red.model_check ~general_l:true ~oracle_ell:1 ~locality_radius:2
              ~oracle:Red.exact_oracle g phi
          in
          if got <> expected then
            Alcotest.failf "general-L reduction wrong on %s |= %s" gname src)
        [
          "exists x. exists y. E(x, y)";
          "exists x. forall y. ~ E(x, y)";
          "exists x. Red(x)";
        ])
    [
      ("P4", Gen.path 4);
      ("K3", Gen.clique 3);
      ( "coloured-P4",
        Graph.with_colors (Gen.path 4) [ ("Red", [ 2 ]) ] );
      ("P2+P1", Graph.create ~n:3 ~edges:[ (0, 1) ] ~colors:[]);
    ]

let test_oracle_respects_ell_zero () =
  (* with ell = 0 the exact oracle must return a parameterless
     hypothesis, as Claim 8 requires *)
  let g = Gen.path 5 in
  let h =
    Red.exact_oracle g [ ([| 0 |], false); ([| 2 |], true) ] ~ell:0 ~q:1
      ~eps:0.25
  in
  check "no parameters" true (Folearn.Hypothesis.ell h = 0)

let test_claim8_separation () =
  (* Claim 8: when the types differ, the oracle's answer separates the
     two vertices *)
  let g = Graph.with_colors (Gen.path 6) [ ("Red", [ 0 ]) ] in
  (* vertices 0 (red endpoint) and 3 (plain middle) differ at rank 0 *)
  let h =
    Red.exact_oracle g [ ([| 0 |], false); ([| 3 |], true) ] ~ell:0 ~q:0
      ~eps:0.25
  in
  check "separates" true
    ((not (Folearn.Hypothesis.predict h [| 0 |]))
    && Folearn.Hypothesis.predict h [| 3 |])

let test_gamma_general_separates () =
  (* the general form of Claim 8: when rank-q types differ, the
     disjoint-copies construction yields a separator with gamma(u) = 0,
     gamma(v) = 1, even though the oracle may use a parameter *)
  let g = Graph.with_colors (Gen.path 6) [ ("Red", [ 0 ]) ] in
  let cases = [ (0, 3, 0); (0, 5, 0); (1, 3, 1) ] in
  List.iter
    (fun (u, v, q) ->
      (* ensure the premise: types really differ at rank q *)
      check "premise" true (not (Oracle.Ef.equiv ~q g [| u |] g [| v |]));
      let gamma =
        Red.gamma_general ~oracle:Red.exact_oracle ~oracle_ell:1 ~radius:2 ~q
          g u v ()
      in
      check "gamma(u) = 0" false (gamma.Red.g_holds u);
      check "gamma(v) = 1" true (gamma.Red.g_holds v))
    cases

let test_gamma_general_counts_calls () =
  let counter = ref 0 in
  let g = Gen.path 4 in
  ignore
    (Red.gamma_general ~counter ~oracle:Red.exact_oracle ~oracle_ell:1
       ~radius:2 ~q:1 g 0 1 ());
  check "one oracle call" true (!counter = 1)

(* Theorem 1 composed with Theorem 2: model checking on a nowhere dense
   graph using the Theorem 13 learner itself as the ERM oracle.  The
   reduction only needs the oracle to be correct when a consistent
   hypothesis exists (Remark 10), which the nd guarantee with
   eps = 1/4 < 1/2 delivers. *)
let nd_oracle ?budget:_ g lam ~ell ~q ~eps =
  let cls = Splitter.Nowhere_dense.of_graph "oracle" g in
  let cfg =
    {
      (Folearn.Erm_nd.default_config ~epsilon:(max eps 0.01) ~radius:1
         ~branch_width:8 ~k:1 ~ell_star:(max ell 1) ~q_star:q cls)
      with
      Folearn.Erm_nd.max_rounds = Some (if ell = 0 then 0 else 4);
    }
  in
  (Folearn.Erm_nd.solve cfg g lam).Folearn.Erm_nd.hypothesis

let test_full_stack_composition () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun src ->
          let phi = Fo.Parser.parse src in
          let direct = E.sentence g phi in
          let via, _ = Red.model_check ~oracle:nd_oracle g phi in
          if via <> direct then
            Alcotest.failf "Theorem1∘Theorem2 wrong on %s |= %s" gname src)
        [
          "exists x. Red(x) /\\ exists y. E(x, y)";
          "forall x. exists y. E(x, y)";
          "exists x. forall y. ~ E(x, y)";
        ])
    [
      ( "tree10",
        Graph.with_colors (Gen.random_tree ~seed:4 10) [ ("Red", [ 2; 7 ]) ] );
      ("P8", Graph.with_colors (Gen.path 8) [ ("Red", [ 0 ]) ]);
    ]

(* Remark 10: the reduction only uses oracle answers when a consistent
   hypothesis exists (the realisable case).  A sloppy oracle that returns
   garbage whenever eps* > 0 must not change any answer. *)
let sloppy_oracle ?budget g lam ~ell ~q ~eps =
  let exact = Red.exact_oracle ?budget g lam ~ell ~q ~eps in
  if Folearn.Hypothesis.training_error exact lam > 0.0 then
    (* garbage: reject everything *)
    Folearn.Hypothesis.constantly g ~k:1 false
  else exact

let test_remark10_realisable_only () =
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun src ->
          let phi = Fo.Parser.parse src in
          let expected = E.sentence g phi in
          let got, _ = Red.model_check ~oracle:sloppy_oracle g phi in
          if got <> expected then
            Alcotest.failf "Remark 10 violated on %s |= %s" gname src)
        corpus_sentences)
    corpus_graphs

let reduction_random_agreement =
  QCheck.Test.make ~name:"reduction agrees with direct MC (random graphs)"
    ~count:12
    QCheck.(int_range 0 400)
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red" ]
          (Gen.gnp ~seed:(seed + 9) ~n:6 ~p:0.35)
      in
      let st = Random.State.make [| seed; 0xbd |] in
      (* random sentence of rank <= 2: close a random rank-2 formula *)
      let body = Test_formula.gen_formula [ "x" ] 2 st in
      let phi = Fo.Formula.forall "x" body in
      let expected = E.sentence g phi in
      let got, _ = Red.model_check ~oracle:Red.exact_oracle g phi in
      got = expected)

let suite =
  [
    Alcotest.test_case "agrees with direct MC" `Quick test_agrees_with_direct;
    Alcotest.test_case "stats populated" `Quick test_stats_populated;
    Alcotest.test_case "representatives compress" `Quick
      test_representatives_cover_types;
    Alcotest.test_case "sentence guard" `Quick test_sentence_guard;
    Alcotest.test_case "boolean glue" `Quick test_boolean_glue;
    Alcotest.test_case "general-L construction" `Slow test_general_l_small;
    Alcotest.test_case "oracle honours ell=0" `Quick test_oracle_respects_ell_zero;
    Alcotest.test_case "Claim 8 separation" `Quick test_claim8_separation;
    Alcotest.test_case "Claim 8 general form" `Quick test_gamma_general_separates;
    Alcotest.test_case "gamma counts calls" `Quick test_gamma_general_counts_calls;
    Alcotest.test_case "Theorem 1 with the Theorem 13 oracle" `Slow
      test_full_stack_composition;
    Alcotest.test_case "Remark 10: realisable-only oracle suffices" `Quick
      test_remark10_realisable_only;
    QCheck_alcotest.to_alcotest reduction_random_agreement;
  ]
