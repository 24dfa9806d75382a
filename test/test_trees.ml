(* Tests for the tree side of the MSO subsystem: trees, bottom-up tree
   automata, MSO-on-trees compilation (cross-checked against direct
   semantics), and the per-node preprocessing oracle of [19]. *)

module T = Mso.Tree
module Ta = Mso.Automaton
module F = Mso.Formula
module Tf = Mso.Tree_formula
module L = Mso.Learner
module Tl = Mso.Tree_learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a fixed small tree over sigma = 2:
         1
        / \
       0   1
       |  / \
       1 0   0        preorder: 0:1  1:0  2:1  3:1  4:0  5:0        *)
let t0 =
  T.Binary (1, T.Unary (0, T.Leaf 1), T.Binary (1, T.Leaf 0, T.Leaf 0))

let all_trees_up_to sigma max_size =
  (* all trees with <= max_size nodes (small sigma/size only) *)
  let rec of_size s =
    if s <= 0 then []
    else if s = 1 then List.init sigma (fun a -> T.Leaf a)
    else begin
      let unaries =
        List.concat_map
          (fun c -> List.init sigma (fun a -> T.Unary (a, c)))
          (of_size (s - 1))
      in
      let binaries =
        List.concat_map
          (fun left_size ->
            List.concat_map
              (fun l ->
                List.concat_map
                  (fun r -> List.init sigma (fun a -> T.Binary (a, l, r)))
                  (of_size (s - 1 - left_size)))
              (of_size left_size))
          (List.init (s - 2) (fun i -> i + 1))
      in
      unaries @ binaries
    end
  in
  List.concat_map of_size (List.init max_size (fun i -> i + 1))

(* ------------------------------------------------------------------ *)
(* Trees                                                               *)
(* ------------------------------------------------------------------ *)

let test_tree_basics () =
  check_int "size" 6 (T.size t0);
  check_int "depth" 3 (T.depth t0);
  check_int "root label" 1 (T.label t0);
  Alcotest.(check (list (pair int int)))
    "preorder nodes"
    [ (0, 1); (1, 0); (2, 1); (3, 1); (4, 0); (5, 0) ]
    (T.nodes t0)

let test_tree_navigation () =
  check "parent of root" true (T.parent t0 0 = None);
  check "parent of 2" true (T.parent t0 2 = Some 1);
  check "parent of 4" true (T.parent t0 4 = Some 3);
  Alcotest.(check (list int)) "children of root" [ 1; 3 ] (T.children t0 0);
  Alcotest.(check (list int)) "children of leaf" [] (T.children t0 5);
  check "subtree at 3" true (T.subtree t0 3 = T.Binary (1, T.Leaf 0, T.Leaf 0))

let test_tree_relabel () =
  let t = T.relabel t0 2 (fun a -> a + 10) in
  check "only node 2 changed" true
    (T.nodes t = [ (0, 1); (1, 0); (2, 11); (3, 1); (4, 0); (5, 0) ])

let test_tree_random () =
  List.iter
    (fun s ->
      let t = T.random ~seed:s ~sigma:3 ~size:17 in
      check_int "exact size" 17 (T.size t);
      T.check_labels ~sigma:3 t)
    [ 1; 2; 3 ]

let test_tree_parse () =
  check "roundtrip fixed" true (T.of_string (T.to_string t0) = t0);
  check "leaf" true (T.of_string "7" = T.Leaf 7);
  check "unary" true (T.of_string "1(0)" = T.Unary (1, T.Leaf 0));
  check "whitespace ok" true
    (T.of_string " 1( 0 , 2 ) " = T.Binary (1, T.Leaf 0, T.Leaf 2));
  List.iter
    (fun bad ->
      check (Printf.sprintf "rejects %S" bad) true
        (try
           ignore (T.of_string bad);
           false
         with T.Parse_error _ -> true))
    [ ""; "1("; "1(0,)"; "1(0,1,2)"; "x"; "1)2" ]

let tree_parse_roundtrip =
  QCheck.Test.make ~name:"tree term syntax round-trips" ~count:50
    QCheck.(int_range 0 2000)
    (fun seed ->
      let t = T.random ~seed ~sigma:4 ~size:(1 + (seed mod 25)) in
      T.of_string (T.to_string t) = t)

(* ------------------------------------------------------------------ *)
(* Tree automata                                                       *)
(* ------------------------------------------------------------------ *)

(* parity of the number of 1-labelled nodes *)
let parity_ta =
  Ta.create ~states:2 ~alphabet:2
    ~leaf:[| 0; 1 |]
    ~unary:[| [| 0; 1 |]; [| 1; 0 |] |]
    ~binary:
      [|
        [| [| 0; 1 |]; [| 1; 0 |] |];
        [| [| 1; 0 |]; [| 0; 1 |] |];
      |]
    ~accept:[| true; false |]

let count_ones t =
  List.length (List.filter (fun (_, a) -> a = 1) (T.nodes t))

let test_ta_run () =
  check "t0 has 3 ones -> odd" false (Ta.accepts_tree parity_ta t0);
  check "leaf 0 even" true (Ta.accepts_tree parity_ta (T.Leaf 0));
  List.iter
    (fun t ->
      check "parity semantics" true
        (Ta.accepts_tree parity_ta t = (count_ones t mod 2 = 0)))
    (all_trees_up_to 2 4)

let test_ta_boolean () =
  (* root label is 1 *)
  let root1 =
    Ta.create ~states:2 ~alphabet:2 ~leaf:[| 0; 1 |]
      ~unary:[| [| 0; 1 |]; [| 0; 1 |] |]
      ~binary:
        [|
          [| [| 0; 1 |]; [| 0; 1 |] |];
          [| [| 0; 1 |]; [| 0; 1 |] |];
        |]
      ~accept:[| false; true |]
  in
  List.iter
    (fun t ->
      check "complement" true
        (Ta.accepts_tree (Ta.complement parity_ta) t = not (Ta.accepts_tree parity_ta t));
      check "intersection" true
        (Ta.accepts_tree (Ta.product parity_ta root1 ~mode:`Inter) t
        = (Ta.accepts_tree parity_ta t && Ta.accepts_tree root1 t));
      check "union" true
        (Ta.accepts_tree (Ta.product parity_ta root1 ~mode:`Union) t
        = (Ta.accepts_tree parity_ta t || Ta.accepts_tree root1 t)))
    (all_trees_up_to 2 4)

let test_ta_minimize () =
  let bloated = Ta.product parity_ta parity_ta ~mode:`Inter in
  let m = Ta.minimize bloated in
  check_int "minimal states" 2 m.Ta.states;
  check "language preserved" true (Ta.equal_language m parity_ta);
  check "emptiness" true
    (Ta.is_empty (Ta.product parity_ta (Ta.complement parity_ta) ~mode:`Inter))

(* ------------------------------------------------------------------ *)
(* MSO on trees                                                        *)
(* ------------------------------------------------------------------ *)

let tree_sentences =
  [
    ( "some node labelled 1",
      F.ExistsPos ("x", F.Letter (1, "x")),
      fun t -> List.exists (fun (_, a) -> a = 1) (T.nodes t) );
    ( "all nodes labelled 1",
      F.ForallPos ("x", F.Letter (1, "x")),
      fun t -> List.for_all (fun (_, a) -> a = 1) (T.nodes t) );
    ( "a 0-node with a 1-first-child",
      F.ExistsPos
        ( "x",
          F.ExistsPos
            ( "y",
              F.And
                [ F.Child1 ("x", "y"); F.Letter (0, "x"); F.Letter (1, "y") ]
            ) ),
      fun t ->
        List.exists
          (fun (id, a) ->
            a = 0
            && match T.children t id with
               | c :: _ -> List.assoc c (T.nodes t) = 1
               | [] -> false)
          (T.nodes t) );
    ( "some leaf",
      F.ExistsPos ("x", F.Not (F.ExistsPos ("y", F.Child1 ("x", "y")))),
      fun _ -> true );
    ( "root is binary with equal-labelled children",
      F.ExistsPos
        ( "r",
          F.And
            [
              F.Not (F.ExistsPos ("p", F.Or [ F.Child1 ("p", "r"); F.Child2 ("p", "r") ]));
              F.ExistsPos
                ( "l",
                  F.ExistsPos
                    ( "rr",
                      F.And
                        [
                          F.Child1 ("r", "l");
                          F.Child2 ("r", "rr");
                          F.Or
                            [
                              F.And [ F.Letter (0, "l"); F.Letter (0, "rr") ];
                              F.And [ F.Letter (1, "l"); F.Letter (1, "rr") ];
                            ];
                        ] ) );
            ] ),
      fun t ->
        match t with
        | T.Binary (_, l, r) -> T.label l = T.label r
        | _ -> false );
  ]

let test_tree_mso_sentences () =
  List.iter
    (fun (name, phi, semantics) ->
      let ta = Tf.compile ~sigma:2 ~scope:[] phi in
      List.iter
        (fun t ->
          let direct = Tf.eval ~tree:t F.empty_assignment phi in
          let via = Ta.accepts_tree ta t in
          let expected = semantics t in
          if direct <> expected then
            Alcotest.failf "%s: direct semantics wrong (tree %s)" name
              (Format.asprintf "%a" T.pp t);
          if via <> expected then
            Alcotest.failf "%s: compiled automaton wrong (tree %s)" name
              (Format.asprintf "%a" T.pp t))
        (all_trees_up_to 2 4))
    tree_sentences

let test_tree_mso_free_var () =
  (* phi(x) = "x is labelled 1 and has a first child labelled 0" *)
  let phi =
    F.And
      [
        F.Letter (1, "x");
        F.ExistsPos ("y", F.And [ F.Child1 ("x", "y"); F.Letter (0, "y") ]);
      ]
  in
  let scope = [ ("x", F.Pos) ] in
  let ta = Tf.compile ~sigma:2 ~scope phi in
  List.iter
    (fun t ->
      List.iter
        (fun (id, _) ->
          let asg = { F.pos = [ ("x", id) ]; sets = [] } in
          if
            Tf.eval ~tree:t asg phi
            <> Tf.holds_compiled ~sigma:2 ~scope ta t asg
          then Alcotest.failf "free-var mismatch at node %d" id)
        (T.nodes t))
    (all_trees_up_to 2 4)

let test_tree_shadowing () =
  let phi =
    F.And
      [ F.Letter (1, "x");
        F.ExistsPos ("p", F.ForallPos ("p", F.Not (F.EqPos ("x", "p")))) ]
  in
  let scope = [ ("x", F.Pos) ] in
  let ta = Tf.compile ~sigma:2 ~scope phi in
  List.iter
    (fun t ->
      List.iter
        (fun (id, _) ->
          let asg = { F.pos = [ ("x", id) ]; sets = [] } in
          if
            Tf.eval ~tree:t asg phi
            <> Tf.holds_compiled ~sigma:2 ~scope ta t asg
          then Alcotest.failf "tree shadowing broken at node %d" id)
        (T.nodes t))
    (all_trees_up_to 2 3)

let test_tree_mso_sets () =
  (* "there is a set containing the root and closed under first children"
     - trivially true (take all nodes); and its negation false *)
  let phi =
    F.ExistsSet
      ( "X",
        F.And
          [
            F.ExistsPos
              ( "r",
                F.And
                  [
                    F.Not
                      (F.ExistsPos
                         ("p", F.Or [ F.Child1 ("p", "r"); F.Child2 ("p", "r") ]));
                    F.Mem ("r", "X");
                  ] );
            F.ForallPos
              ( "u",
                F.ForallPos
                  ( "v",
                    F.Or
                      [
                        F.Not (F.And [ F.Mem ("u", "X"); F.Child1 ("u", "v") ]);
                        F.Mem ("v", "X");
                      ] ) );
          ] )
  in
  let ta = Tf.compile ~sigma:2 ~scope:[] phi in
  List.iter
    (fun t ->
      check "set sentence holds everywhere" true (Ta.accepts_tree ta t);
      check "direct agrees" true (Tf.eval ~tree:t F.empty_assignment phi))
    (all_trees_up_to 2 3)

(* ------------------------------------------------------------------ *)
(* Concrete syntax for tree formulas                                   *)
(* ------------------------------------------------------------------ *)

module P = Mso.Parser

let test_tree_formula_parser () =
  let labels = [ "a"; "b" ] in
  check "label atom" true (P.parse ~structure:`Trees ~letters:labels "b(x)" = F.Letter (1, "x"));
  check "child1" true (P.parse ~structure:`Trees ~letters:labels "child1(x, y)" = F.Child1 ("x", "y"));
  check "membership" true (P.parse ~structure:`Trees ~letters:labels "x in X" = F.Mem ("x", "X"));
  check "quantifiers" true
    (P.parse ~structure:`Trees ~letters:labels "exists x. forall y. x = y"
    = F.ExistsPos ("x", F.ForallPos ("y", F.EqPos ("x", "y"))));
  check "unknown label" true (P.parse_opt ~structure:`Trees ~letters:labels "z(x)" = None);
  (* parse-compile-run round trip *)
  let phi = P.parse ~structure:`Trees ~letters:labels "exists x. b(x) /\\ ~ exists y. child1(x, y)" in
  let ta = Tf.compile ~sigma:2 ~scope:[] phi in
  check "b-leaf exists in t0" true (Ta.accepts_tree ta t0);
  check "no b-leaf in all-a tree" false
    (Ta.accepts_tree ta (T.Binary (0, T.Leaf 0, T.Leaf 0)))

(* ------------------------------------------------------------------ *)
(* Node oracle ([19] preprocessing)                                    *)
(* ------------------------------------------------------------------ *)

let unary_phi =
  (* x is labelled 1 and some strict ancestor is labelled 0: expressible
     via "exists p. (Child1(p,x) \/ Child2(p,x)) /\ ..."?  ancestors need
     transitive closure; keep it local instead: parent is labelled 0 *)
  F.And
    [
      F.Letter (1, "x");
      F.ExistsPos
        ( "p",
          F.And
            [ F.Or [ F.Child1 ("p", "x"); F.Child2 ("p", "x") ];
              F.Letter (0, "p") ] );
    ]

let test_node_oracle_agrees () =
  List.iter
    (fun seed ->
      let t = T.random ~seed ~sigma:2 ~size:25 in
      let oracle = Tl.Node_oracle.make ~sigma:2 unary_phi t in
      List.iter
        (fun (id, _) ->
          let direct =
            Tf.eval ~tree:t { F.pos = [ ("x", id) ]; sets = [] } unary_phi
          in
          if Tl.Node_oracle.holds oracle id <> direct then
            Alcotest.failf "oracle mismatch at node %d (seed %d)" id seed)
        (T.nodes t))
    [ 1; 2; 3; 4; 5 ]

(* a left comb with [k] binary nodes: each left child is the next comb,
   each right child a leaf *)
let comb k =
  let rec go i =
    if i = 0 then T.Leaf 0
    else T.Binary (i mod 2, go (i - 1), T.Leaf (i / 2 mod 2))
  in
  go k

let test_node_oracle_combs () =
  let concepts =
    [
      unary_phi;
      F.ExistsPos ("c", F.And [ F.Child2 ("x", "c"); F.Letter (1, "c") ]);
      F.ExistsPos ("p", F.And [ F.Child1 ("p", "x"); F.Letter (0, "p") ]);
    ]
  in
  let scope = [ ("x", F.Pos) ] in
  let trees =
    List.init 12 (fun k -> comb (3 * k))
    @ List.map
        (fun seed -> T.random ~seed ~sigma:2 ~size:(10 + seed))
        [ 1; 7; 13; 29; 41 ]
  in
  List.iter
    (fun phi ->
      let ta = Tf.compile ~sigma:2 ~scope phi in
      List.iter
        (fun t ->
          let oracle = Tl.Node_oracle.make ~sigma:2 phi t in
          List.iter
            (fun (id, _) ->
              let asg = { F.pos = [ ("x", id) ]; sets = [] } in
              if
                Tl.Node_oracle.holds oracle id
                <> Tf.holds_compiled ~sigma:2 ~scope ta t asg
              then
                Alcotest.failf "oracle mismatch at node %d of a %d-node tree"
                  id (T.size t))
            (T.nodes t))
        trees)
    concepts

let test_node_oracle_guards () =
  check "non-unary rejected" true
    (try
       ignore
         (Tl.Node_oracle.make ~sigma:2
            (F.Child1 ("x", "y"))
            (T.Leaf 0));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Tree learner                                                        *)
(* ------------------------------------------------------------------ *)

let tree_catalogue =
  [
    { L.name = "labelled 1"; phi = F.Letter (1, "x"); xvars = [ "x" ]; yvars = [] };
    {
      L.name = "child of the parameter";
      phi = F.Or [ F.Child1 ("y1", "x"); F.Child2 ("y1", "x") ];
      xvars = [ "x" ];
      yvars = [ "y1" ];
    };
    {
      L.name = "same label as the parameter";
      phi =
        F.Or
          [ F.And [ F.Letter (0, "x"); F.Letter (0, "y1") ];
            F.And [ F.Letter (1, "x"); F.Letter (1, "y1") ] ];
      xvars = [ "x" ];
      yvars = [ "y1" ];
    };
  ]

let test_tree_learner () =
  let t = T.random ~seed:9 ~sigma:2 ~size:14 in
  (* hidden concept: children of node 3 *)
  let target = T.children t 3 in
  let examples =
    List.map (fun (id, _) -> ([| id |], List.mem id target)) (T.nodes t)
  in
  match Tl.solve ~sigma:2 ~tree:t ~catalogue:tree_catalogue examples with
  | None -> Alcotest.fail "catalogue should fit"
  | Some r ->
      Alcotest.(check (float 1e-9)) "err 0" 0.0 r.L.err;
      check "found the child concept" true
        (r.L.entry.L.name = "child of the parameter");
      check_int "parameter is node 3" 3 r.L.params.(0);
      check "predict fresh" true
        (List.for_all
           (fun (id, _) ->
             Tl.predict ~sigma:2 ~tree:t r [| id |] = List.mem id target)
           (T.nodes t))

let test_tree_learner_agnostic () =
  let t = t0 in
  (* noisy labels for "labelled 1": flip node 5 *)
  let examples =
    [ ([| 0 |], true); ([| 1 |], false); ([| 2 |], true); ([| 3 |], true);
      ([| 4 |], false); ([| 5 |], true) ]
  in
  match Tl.solve ~sigma:2 ~tree:t ~catalogue:tree_catalogue examples with
  | None -> Alcotest.fail "nonempty catalogue"
  | Some r -> check "one error in six" true (abs_float (r.L.err -. (1.0 /. 6.0)) < 1e-9)

let suite =
  [
    Alcotest.test_case "tree basics" `Quick test_tree_basics;
    Alcotest.test_case "tree navigation" `Quick test_tree_navigation;
    Alcotest.test_case "tree relabel" `Quick test_tree_relabel;
    Alcotest.test_case "tree random" `Quick test_tree_random;
    Alcotest.test_case "tree parse" `Quick test_tree_parse;
    QCheck_alcotest.to_alcotest tree_parse_roundtrip;
    Alcotest.test_case "ta run" `Quick test_ta_run;
    Alcotest.test_case "ta boolean" `Quick test_ta_boolean;
    Alcotest.test_case "ta minimize" `Quick test_ta_minimize;
    Alcotest.test_case "tree MSO sentences" `Quick test_tree_mso_sentences;
    Alcotest.test_case "tree MSO free var" `Quick test_tree_mso_free_var;
    Alcotest.test_case "tree MSO shadowing" `Quick test_tree_shadowing;
    Alcotest.test_case "tree MSO sets" `Quick test_tree_mso_sets;
    Alcotest.test_case "tree formula parser" `Quick test_tree_formula_parser;
    Alcotest.test_case "node oracle agrees" `Quick test_node_oracle_agrees;
    Alcotest.test_case "node oracle = compiled run on combs" `Quick
      test_node_oracle_combs;
    Alcotest.test_case "node oracle guards" `Quick test_node_oracle_guards;
    Alcotest.test_case "tree learner" `Quick test_tree_learner;
    Alcotest.test_case "tree learner agnostic" `Quick test_tree_learner_agnostic;
  ]
