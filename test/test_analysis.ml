(* Unit tests for the folint static-analysis library: one test per rule
   id, plus qcheck properties tying Genform-produced formulas to the
   budget rules. *)

open Analysis
module F = Fo.Formula

let has rule ds = List.exists (fun d -> d.Diagnostic.rule = rule) ds
let rules ds = List.map (fun d -> d.Diagnostic.rule) ds

let check_has name rule ds =
  Alcotest.(check bool)
    (Printf.sprintf "%s flags %s (got [%s])" name rule
       (String.concat "; " (rules ds)))
    true (has rule ds)

let check_clean name ds =
  Alcotest.(check (list string))
    (Printf.sprintf "%s is clean" name)
    [] (rules (Diagnostic.errors ds))

let vocab = Vocab.graph [ "Red"; "Blue" ]

(* ------------------------------------------------------------------ *)
(* Signature conformance                                               *)
(* ------------------------------------------------------------------ *)

let test_unknown_relation () =
  check_has "Green(x)" "unknown-relation"
    (Fo_check.check ~vocab (F.color "Green" "x"));
  check_clean "Red(x)" (Fo_check.check ~vocab (F.color "Red" "x"));
  (* no vocabulary declared: signature checks are skipped *)
  check_clean "Green(x), no vocab" (Fo_check.check (F.color "Green" "x"))

let test_arity_mismatch () =
  let v = Vocab.declare Vocab.empty "Red" 2 in
  check_has "Red/2 used unary" "arity-mismatch"
    (Fo_check.check ~vocab:v (F.color "Red" "x"));
  let v = Vocab.declare (Vocab.graph []) "E" 3 in
  check_has "E/3 used binary" "arity-mismatch"
    (Fo_check.check ~vocab:v (F.edge "x" "y"));
  check_has "E undeclared" "unknown-relation"
    (Fo_check.check ~vocab:Vocab.empty (F.edge "x" "y"))

let test_vocab_parse () =
  (match Vocab.of_string "E/2, Red/1, Blue" with
  | Ok v ->
      Alcotest.(check (option int)) "E arity" (Some 2) (Vocab.arity v "E");
      Alcotest.(check (option int)) "bare name is unary" (Some 1)
        (Vocab.arity v "Blue")
  | Error m -> Alcotest.fail m);
  match Vocab.of_string "Red/x" with
  | Ok _ -> Alcotest.fail "Red/x should not parse"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Scope analysis                                                      *)
(* ------------------------------------------------------------------ *)

let test_unbound_variable () =
  check_has "E(x, y) as phi(x)" "unbound-variable"
    (Fo_check.check ~allowed_free:[ "x" ] (F.edge "x" "y"));
  check_clean "E(x, y) as phi(x, y)"
    (Fo_check.check ~allowed_free:[ "x"; "y" ] (F.edge "x" "y"));
  check_clean "bound use"
    (Fo_check.check ~allowed_free:[ "x" ] (F.exists "y" (F.edge "x" "y")));
  (* without a declared interface every free variable is fine *)
  check_clean "no interface" (Fo_check.check (F.edge "x" "y"))

let test_shadowed_binder () =
  let f = F.Exists ("x", F.Exists ("x", F.edge "x" "x")) in
  check_has "exists x. exists x" "shadowed-binder" (Fo_check.check f);
  let g = F.Exists ("x", F.edge "x" "y") in
  check_has "binder over interface var" "shadowed-binder"
    (Fo_check.check ~allowed_free:[ "x"; "y" ] g);
  check_clean "distinct binders"
    (Fo_check.check
       (F.Exists ("u", F.Exists ("v", F.edge "u" "v"))))

let test_vacuous_quantifier () =
  let f = F.Exists ("z", F.edge "x" "y") in
  check_has "exists z unused" "vacuous-quantifier" (Fo_check.check f);
  check_clean "exists used"
    (Fo_check.check (F.Exists ("z", F.edge "x" "z")))

(* ------------------------------------------------------------------ *)
(* Budgets                                                             *)
(* ------------------------------------------------------------------ *)

let test_rank_over_budget () =
  let f = F.Exists ("u", F.Exists ("v", F.edge "u" "v")) in
  check_has "rank 2 at q=1" "rank-over-budget"
    (Fo_check.check ~budget:(Fo_check.budget ~max_rank:1 ()) f);
  check_clean "rank 2 at q=2"
    (Fo_check.check ~budget:(Fo_check.budget ~max_rank:2 ()) f)

let test_free_over_budget () =
  let f = F.edge "x" "y" in
  check_has "2 free at budget 1" "free-over-budget"
    (Fo_check.check ~budget:(Fo_check.budget ~max_free:1 ()) f);
  check_clean "2 free at budget 2"
    (Fo_check.check ~budget:(Fo_check.budget ~max_free:2 ()) f)

let test_invalid_parameter () =
  check_has "k = 0" "invalid-parameter" (Precondition.budgets ~k:0 ());
  check_has "ell < 0" "invalid-parameter"
    (Precondition.budgets ~k:1 ~ell:(-1) ());
  Alcotest.(check (list string))
    "legal budgets" []
    (rules (Precondition.budgets ~k:2 ~ell:1 ~q:3 ~tmax:2 ~radius:0 ()))

(* ------------------------------------------------------------------ *)
(* Locality                                                            *)
(* ------------------------------------------------------------------ *)

let test_dist_recognizer () =
  List.iter
    (fun d ->
      match Fo_check.as_dist_le (Fo.Localize.dist_le ~d "x" "y") with
      | Some ("x", "y", d') ->
          Alcotest.(check int) (Printf.sprintf "dist_le %d" d) d d'
      | _ -> Alcotest.fail (Printf.sprintf "dist_le %d not recognised" d))
    [ 0; 1; 2; 3; 4; 7; 24 ]

let test_non_local () =
  let unguarded = F.exists "y" (F.edge "x" "y") in
  check_has "unguarded quantifier" "non-local"
    (Fo_check.check ~allowed_free:[ "x" ]
       ~budget:(Fo_check.budget ~radius:3 ())
       unguarded);
  (* relativize makes it syntactically r-local: clean at radius r ... *)
  let local = Fo.Localize.relativize ~r:2 ~around:[ "x" ] unguarded in
  check_clean "relativized at r=2"
    (Fo_check.check ~allowed_free:[ "x" ]
       ~budget:(Fo_check.budget ~radius:2 ())
       local);
  (* ... and over budget one radius down *)
  check_has "relativized at r=2, budget 1" "non-local"
    (Fo_check.check ~allowed_free:[ "x" ]
       ~budget:(Fo_check.budget ~radius:1 ())
       local);
  Alcotest.(check (option int))
    "inferred radius" (Some 2)
    (Fo_check.inferred_radius ~around:[ "x" ] local);
  Alcotest.(check (option int))
    "unguarded has no radius" None
    (Fo_check.inferred_radius ~around:[ "x" ] unguarded)

let test_nested_locality () =
  (* nested quantifiers are all guarded to the SAME centres by
     relativize, so the inferred radius stays r *)
  let f =
    F.exists "u" (F.and_ [ F.edge "x" "u"; F.forall "v" (F.implies (F.edge "u" "v") (F.color "Red" "v")) ])
  in
  let local = Fo.Localize.relativize ~r:3 ~around:[ "x" ] f in
  Alcotest.(check (option int))
    "nested inferred radius" (Some 3)
    (Fo_check.inferred_radius ~around:[ "x" ] local);
  (* quantifier-free formulas are 0-local *)
  Alcotest.(check (option int))
    "atom radius" (Some 0)
    (Fo_check.inferred_radius ~around:[ "x"; "y" ] (F.edge "x" "y"))

(* ------------------------------------------------------------------ *)
(* Hints                                                               *)
(* ------------------------------------------------------------------ *)

let test_hints () =
  check_has "~~phi" "double-negation"
    (Fo_check.check (F.Not (F.Not (F.edge "x" "y"))));
  check_has "x = x" "trivial-atom" (Fo_check.check (F.eq "x" "x"));
  check_has "E(x, x)" "trivial-atom" (Fo_check.check (F.edge "x" "x"));
  check_has "duplicate conjunct" "duplicate-junct"
    (Fo_check.check (F.And [ F.edge "x" "y"; F.edge "x" "y" ]));
  check_has "false conjunct" "constant-junct"
    (Fo_check.check (F.And [ F.edge "x" "y"; F.False ]));
  check_has "true disjunct" "constant-junct"
    (Fo_check.check (F.Or [ F.edge "x" "y"; F.True ]));
  (* hints never make a formula erroneous *)
  check_clean "hints are not errors"
    (Fo_check.check (F.Not (F.Not (F.eq "x" "x"))))

(* ------------------------------------------------------------------ *)
(* MSO                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mso_rules () =
  let open Mso.Formula in
  check_has "kind clash" "kind-clash"
    (Mso_check.check (And [ Mem ("x", "X"); Less ("X", "y") ]));
  check_has "unknown letter" "unknown-letter"
    (Mso_check.check ~sigma:2 (Letter (5, "x")));
  check_clean "known letter"
    (Mso_check.check ~sigma:2 ~allowed_free:[ "x" ] (Letter (1, "x")));
  check_has "mso unbound" "unbound-variable"
    (Mso_check.check ~allowed_free:[ "x" ] (Less ("x", "y")));
  check_has "mso shadowed" "shadowed-binder"
    (Mso_check.check
       (ExistsPos ("x", ExistsPos ("x", Less ("x", "x")))));
  check_has "mso vacuous" "vacuous-quantifier"
    (Mso_check.check (ExistsSet ("X", Less ("x", "y"))));
  check_has "mso rank budget" "rank-over-budget"
    (Mso_check.check ~max_rank:1
       (ExistsPos ("x", ExistsSet ("X", Mem ("x", "X")))));
  check_clean "mso sentence"
    (Mso_check.check ~sigma:2 ~allowed_free:[]
       (ExistsPos ("x", Letter (0, "x"))))

let test_mso_trees () =
  let open Mso.Formula in
  check_has "tree kind clash" "kind-clash"
    (Mso_check.check (And [ Mem ("x", "X"); Child1 ("X", "y") ]));
  check_has "tree unknown label" "unknown-letter"
    (Mso_check.check ~sigma:2 (Letter (3, "x")));
  check_clean "tree sentence"
    (Mso_check.check ~sigma:2 ~allowed_free:[]
       (ExistsPos ("x", Letter (1, "x"))))

(* ------------------------------------------------------------------ *)
(* Diagnostics plumbing                                                *)
(* ------------------------------------------------------------------ *)

let test_diagnostic_plumbing () =
  let ds =
    Fo_check.check ~vocab ~allowed_free:[ "x" ]
      (F.And [ F.color "Green" "z"; F.Not (F.Not F.True) ])
  in
  (match Diagnostic.worst ds with
  | Some Diagnostic.Error -> ()
  | _ -> Alcotest.fail "worst should be Error");
  (* sorted: errors first *)
  (match Diagnostic.sort ds with
  | d :: _ ->
      Alcotest.(check string) "errors first" "error"
        (Diagnostic.severity_to_string d.Diagnostic.severity)
  | [] -> Alcotest.fail "expected diagnostics");
  let json = Diagnostic.list_to_json ds in
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "json mentions rule" true
    (contains "unknown-relation" json)

let test_guard_require () =
  (try
     Precondition.require ~what:"test" (Precondition.budgets ~k:0 ());
     Alcotest.fail "expected Invalid_argument"
   with Invalid_argument m ->
     Alcotest.(check bool) "message names the rule" true
       (String.length m > 0));
  (* warnings alone do not trip the guard *)
  Precondition.require ~what:"test"
    (Fo_check.check (F.Exists ("z", F.edge "x" "y")))

(* The library entry points reject bad inputs with rendered
   diagnostics in the Invalid_argument payload. *)
let test_core_guards () =
  let contains needle hay =
    let n = String.length needle and h = String.length hay in
    let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
    go 0
  in
  let expect_rule name rule thunk =
    try
      thunk ();
      Alcotest.failf "%s: expected Invalid_argument" name
    with Invalid_argument m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s names %s (got %S)" name rule m)
        true (contains rule m)
  in
  let g = Cgraph.Gen.path 4 in
  expect_rule "Erm_brute.solve k=0" "invalid-parameter" (fun () ->
      ignore (Folearn.Erm_brute.solve g ~k:0 ~ell:0 ~q:0 []));
  expect_rule "Erm_brute.solve bad arity" "arity-mismatch" (fun () ->
      ignore (Folearn.Erm_brute.solve g ~k:1 ~ell:0 ~q:0 [ ([| 0; 1 |], true) ]));
  expect_rule "Erm_counting.solve tmax=0" "invalid-parameter" (fun () ->
      ignore (Folearn.Erm_counting.solve g ~k:1 ~ell:0 ~q:0 ~tmax:0 []));
  expect_rule "Hypothesis.of_formula stray free var" "unbound-variable"
    (fun () ->
      ignore
        (Folearn.Hypothesis.of_formula g ~k:1 ~formula:(F.edge "x1" "z")
           ~params:[||]));
  expect_rule "Reduction.model_check non-sentence" "unbound-variable"
    (fun () ->
      ignore
        (Folearn.Reduction.model_check
           ~oracle:Folearn.Reduction.exact_oracle g (F.edge "x" "y")));
  expect_rule "Sample.label_with_query stray free var" "unbound-variable"
    (fun () ->
      ignore
        (Folearn.Sample.label_with_query g ~formula:(F.edge "x1" "z")
           ~xvars:[ "x1" ] [ [| 0 |] ]))

(* ------------------------------------------------------------------ *)
(* QCheck: Genform formulas against the budget rules                   *)
(* ------------------------------------------------------------------ *)

let qcheck_budget_clean =
  QCheck.Test.make ~name:"genform formulas are clean at their own budgets"
    ~count:200 QCheck.small_int (fun seed ->
      let cfg =
        { Oracle.Genform.default with allow_counting = seed mod 2 = 0 }
      in
      let f = Oracle.Genform.formula ~config:cfg ~seed () in
      let q = F.quantifier_rank f in
      let frees = F.free_vars f in
      let ds =
        Fo_check.check
          ~vocab:(Vocab.graph cfg.Oracle.Genform.colors)
          ~allowed_free:frees
          ~budget:
            (Fo_check.budget ~max_rank:q ~max_free:(List.length frees) ())
          f
      in
      Diagnostic.errors ds = [])

let qcheck_budget_violation =
  QCheck.Test.make
    ~name:"genform formulas violate the budget rules one notch down"
    ~count:200 QCheck.small_int (fun seed ->
      let f = Oracle.Genform.formula ~seed () in
      let q = F.quantifier_rank f in
      let frees = F.free_vars f in
      let rank_violated =
        q = 0
        || has "rank-over-budget"
             (Fo_check.check ~budget:(Fo_check.budget ~max_rank:(q - 1) ()) f)
      in
      let free_violated =
        frees = []
        || has "free-over-budget"
             (Fo_check.check
                ~budget:
                  (Fo_check.budget ~max_free:(List.length frees - 1) ())
                f)
      in
      rank_violated && free_violated)

let qcheck_relativize_local =
  QCheck.Test.make
    ~name:"relativized genform formulas are syntactically r-local"
    ~count:100
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, r) ->
      let f = Oracle.Genform.formula ~seed () in
      let around =
        match F.free_vars f with [] -> [ "x" ] | vs -> vs
      in
      let local = Fo.Localize.relativize ~r ~around f in
      match Fo_check.inferred_radius ~around local with
      | Some r' -> r' <= r
      | None -> false)

let suite =
  [
    Alcotest.test_case "unknown-relation" `Quick test_unknown_relation;
    Alcotest.test_case "arity-mismatch" `Quick test_arity_mismatch;
    Alcotest.test_case "vocab parsing" `Quick test_vocab_parse;
    Alcotest.test_case "unbound-variable" `Quick test_unbound_variable;
    Alcotest.test_case "shadowed-binder" `Quick test_shadowed_binder;
    Alcotest.test_case "vacuous-quantifier" `Quick test_vacuous_quantifier;
    Alcotest.test_case "rank-over-budget" `Quick test_rank_over_budget;
    Alcotest.test_case "free-over-budget" `Quick test_free_over_budget;
    Alcotest.test_case "invalid-parameter" `Quick test_invalid_parameter;
    Alcotest.test_case "dist_le recognizer" `Quick test_dist_recognizer;
    Alcotest.test_case "non-local" `Quick test_non_local;
    Alcotest.test_case "nested locality" `Quick test_nested_locality;
    Alcotest.test_case "simplification hints" `Quick test_hints;
    Alcotest.test_case "mso word rules" `Quick test_mso_rules;
    Alcotest.test_case "mso tree rules" `Quick test_mso_trees;
    Alcotest.test_case "diagnostic plumbing" `Quick test_diagnostic_plumbing;
    Alcotest.test_case "guard require" `Quick test_guard_require;
    Alcotest.test_case "core entry-point guards" `Quick test_core_guards;
    QCheck_alcotest.to_alcotest qcheck_budget_clean;
    QCheck_alcotest.to_alcotest qcheck_budget_violation;
    QCheck_alcotest.to_alcotest qcheck_relativize_local;
  ]
