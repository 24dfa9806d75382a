(* Tests for what words and trees share in the MSO subsystem: one AST,
   one parser, one validation ([Formula.free]) and one compilation
   skeleton instantiated with DFAs and with bottom-up tree automata. *)

module F = Mso.Formula
module P = Mso.Parser
module T = Mso.Tree
module Ta = Mso.Tree_automaton
module Tf = Mso.Tree_formula

let check = Alcotest.(check bool)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* random formulas with free position variable x; [tree_atoms] adds
   child1/child2, otherwise only the atoms both structures have *)
let random_formula ~tree_atoms seed =
  let st = Random.State.make [| seed; 0x7e3 |] in
  let rec go pos_vars set_vars depth =
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    if depth = 0 || Random.State.int st 3 = 0 then
      match (set_vars, Random.State.int st (if tree_atoms then 5 else 3)) with
      | _, 0 -> F.Letter (Random.State.int st 2, pick pos_vars)
      | _ :: _, 1 -> F.Mem (pick pos_vars, pick set_vars)
      | _, 3 -> F.Child1 (pick pos_vars, pick pos_vars)
      | _, 4 -> F.Child2 (pick pos_vars, pick pos_vars)
      | _ -> F.EqPos (pick pos_vars, pick pos_vars)
    else
      match Random.State.int st 6 with
      | 0 -> F.Not (go pos_vars set_vars (depth - 1))
      | 1 -> F.And [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 2 -> F.Or [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 3 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          F.ExistsPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | 4 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          F.ForallPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | _ ->
          let v = Printf.sprintf "S%d" (Random.State.int st 2) in
          F.ExistsSet (v, go pos_vars (v :: set_vars) (depth - 1))
  in
  go [ "x" ] [] 3

let scope = [ ("x", F.Pos) ]
let letters = [ "a"; "b" ]

let tree_roundtrip =
  QCheck.Test.make ~name:"MSO pp/parse round-trip on trees" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~tree_atoms:true seed in
      match
        P.parse_opt ~structure:`Trees ~letters (F.to_string ~letters phi)
      with
      | None -> false
      | Some phi' ->
          Ta.equal_language
            (Tf.compile ~sigma:2 ~scope phi)
            (Tf.compile ~sigma:2 ~scope phi'))

(* a word as the tree whose preorder is the word: each position is the
   only child of the one before *)
let unary_tree word =
  let n = Array.length word in
  let rec go i = if i = n - 1 then T.Leaf word.(i) else T.Unary (word.(i), go (i + 1)) in
  go 0

(* every non-empty word over {a, b} of length at most [len] *)
let words_up_to len =
  let rec of_length n =
    if n = 0 then [ [||] ]
    else
      List.concat_map
        (fun w -> [ Array.append w [| 0 |]; Array.append w [| 1 |] ])
        (of_length (n - 1))
  in
  List.concat_map of_length (List.init len (fun i -> i + 1))

let shared_atoms_agree =
  QCheck.Test.make
    ~name:"shared atoms: a word and its unary tree agree (eval and compile)"
    ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~tree_atoms:false seed in
      let dfa = F.compile ~sigma:2 ~scope phi in
      let ta = Tf.compile ~sigma:2 ~scope phi in
      List.for_all
        (fun w ->
          let tree = unary_tree w in
          List.for_all
            (fun p ->
              let asg = { F.pos = [ ("x", p) ]; sets = [] } in
              let expected = F.eval ~word:w asg phi in
              Tf.eval ~tree asg phi = expected
              && F.holds_compiled ~sigma:2 ~scope dfa w asg = expected
              && Tf.holds_compiled ~sigma:2 ~scope ta tree asg = expected)
            (List.init (Array.length w) Fun.id))
        (words_up_to 4))

let test_tree_iff_sugar () =
  let a = F.Letter (0, "x") and c = F.Child1 ("x", "y") in
  check "<-> on trees expands" true
    (P.parse ~structure:`Trees ~letters "a(x) <-> child1(x, y)"
    = F.Or [ F.And [ a; c ]; F.And [ F.Not a; F.Not c ] ]);
  let phi = P.parse ~structure:`Trees ~letters "exists x. a(x) <-> b(x)" in
  check "compiles" false (Ta.accepts (Tf.compile ~sigma:2 ~scope:[] phi) (T.Leaf 0))

let test_structure_keywords () =
  check "'<' is not a tree atom" true
    (P.parse_opt ~structure:`Trees ~letters "x < y" = None);
  check "child1 is not a word atom" true
    (P.parse_opt ~letters "child1(x, y)" = None);
  check "child1 may name a letter of a word" true
    (P.parse ~letters:[ "child1" ] "child1(x)" = F.Letter (0, "x"));
  check "succ may name a label of a tree" true
    (P.parse ~structure:`Trees ~letters:[ "succ" ] "succ(x)" = F.Letter (0, "x"))

let test_foreign_atoms () =
  let sc = [ ("x", F.Pos); ("y", F.Pos) ] in
  let asg = { F.pos = [ ("x", 0); ("y", 0) ]; sets = [] } in
  check "child1 does not compile on words" true
    (raises_invalid (fun () -> F.compile ~sigma:2 ~scope:sc (F.Child1 ("x", "y"))));
  check "'<' does not compile on trees" true
    (raises_invalid (fun () -> Tf.compile ~sigma:2 ~scope:sc (F.Less ("x", "y"))));
  check "child2 does not evaluate on words" true
    (raises_invalid (fun () -> F.eval ~word:[| 0 |] asg (F.Child2 ("x", "y"))));
  check "succ does not evaluate on trees" true
    (raises_invalid (fun () -> Tf.eval ~tree:(T.Leaf 0) asg (F.Succ ("x", "y"))))

let test_free_rejects_bound_kind () =
  check "position binder used as a set" true
    (raises_invalid (fun () -> F.free (F.ExistsPos ("X", F.Mem ("x", "X")))));
  check "set binder used as a position" true
    (raises_invalid (fun () -> F.free (F.ExistsSet ("x", F.Mem ("x", "x")))));
  check "a binder may reuse a free name at the other kind" true
    (F.free (F.And [ F.Mem ("y", "x"); F.ExistsPos ("x", F.EqPos ("x", "y")) ])
    = [ ("x", F.Set); ("y", F.Pos) ]);
  (* what [free] accepts compiles *)
  let phi = F.And [ F.Mem ("y", "x"); F.ExistsPos ("x", F.EqPos ("x", "y")) ] in
  let sc = [ ("x", F.Set); ("y", F.Pos) ] in
  let dfa = F.compile ~sigma:2 ~scope:sc phi in
  check "shadowing across kinds compiles" true
    (F.holds_compiled ~sigma:2 ~scope:sc dfa [| 0; 1 |]
       { F.pos = [ ("y", 1) ]; sets = [ ("x", [ 1 ]) ] })

let suite =
  [
    QCheck_alcotest.to_alcotest tree_roundtrip;
    QCheck_alcotest.to_alcotest shared_atoms_agree;
    Alcotest.test_case "<-> on trees is sugar" `Quick test_tree_iff_sugar;
    Alcotest.test_case "structure keywords" `Quick test_structure_keywords;
    Alcotest.test_case "foreign atoms" `Quick test_foreign_atoms;
    Alcotest.test_case "free rejects bound kind clashes" `Quick
      test_free_rejects_bound_kind;
  ]
