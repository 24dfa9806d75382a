(* Aggregated alcotest runner for the whole reproduction. *)

let () =
  Alcotest.run "folearn"
    [
      ("graph", Test_graph.suite);
      ("formula", Test_formula.suite);
      ("eval", Test_eval.suite);
      ("types", Test_types.suite);
      ("splitter", Test_splitter.suite);
      ("hypothesis", Test_hypothesis.suite);
      ("erm", Test_erm.suite);
      ("pac", Test_pac.suite);
      ("reduction", Test_reduction.suite);
      ("counting", Test_counting.suite);
      ("local", Test_local.suite);
      ("toolkit", Test_toolkit.suite);
      ("relational", Test_relational.suite);
      ("analysis", Test_analysis.suite);
      ("plan", Test_plan.suite);
      ("mso", Test_mso.suite);
      ("trees", Test_trees.suite);
      ("mso core", Test_mso_core.suite);
      ("obs", Test_obs.suite);
      ("guard", Test_guard.suite);
      ("par", Test_par.suite);
      ("resil", Test_resil.suite);
      ("framed", Test_framed.suite);
      ("pulse", Test_pulse.suite);
      ("hotpath", Test_hotpath.suite);
      ("serve", Test_serve.suite);
    ]
