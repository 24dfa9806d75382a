(* Tests for the MSO-on-strings subsystem: DFA algebra, the
   Büchi-Elgot-Trakhtenbrot compilation (cross-checked against direct
   evaluation), the sparse-table oracle, and the string learner. *)

module D = Mso.Automaton
module M = Mso.Formula
module O = Mso.Oracle
module W = Mso.Word
module L = Mso.Learner

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* a DFA: one unlabelled rank-0 symbol (its start state), letters at
   rank 1 and no rank-2 table *)
let dfa ~states ~alphabet ~start ~delta ~accept =
  D.create ~states ~alphabet ~leaf:[| start |] ~unary:delta ~binary:[||] ~accept

(* even number of 1s over {0,1} *)
let even_ones =
  dfa ~states:2 ~alphabet:2 ~start:0
    ~delta:[| [| 0; 1 |]; [| 1; 0 |] |]
    ~accept:[| true; false |]

(* contains the factor "01" *)
let has_01 =
  dfa ~states:3 ~alphabet:2 ~start:0
    ~delta:[| [| 1; 0 |]; [| 1; 2 |]; [| 2; 2 |] |]
    ~accept:[| false; false; true |]

let words_up_to sigma len =
  let rec go l = if l = 0 then [ [] ] else begin
    let shorter = go (l - 1) in
    shorter
    @ List.concat_map
        (fun w -> List.init sigma (fun a -> a :: w))
        (List.filter (fun w -> List.length w = l - 1) shorter)
  end in
  List.map Array.of_list (go len)

(* ------------------------------------------------------------------ *)
(* DFA algebra                                                         *)
(* ------------------------------------------------------------------ *)

let test_dfa_run () =
  check "even ones accepts empty" true (D.accepts_word even_ones [||]);
  check "rejects single 1" false (D.accepts_word even_ones [| 1 |]);
  check "accepts 1 0 1" true (D.accepts_word even_ones [| 1; 0; 1 |]);
  check "01 found" true (D.accepts_word has_01 [| 1; 1; 0; 1 |]);
  check "01 not found" false (D.accepts_word has_01 [| 1; 1; 0 |])

let test_dfa_create_guards () =
  check "bad start" true
    (try
       ignore
         (dfa ~states:1 ~alphabet:1 ~start:3 ~delta:[| [| 0 |] |]
            ~accept:[| true |]);
       false
     with Invalid_argument _ -> true);
  check "bad target" true
    (try
       ignore
         (dfa ~states:1 ~alphabet:1 ~start:0 ~delta:[| [| 7 |] |]
            ~accept:[| true |]);
       false
     with Invalid_argument _ -> true)

let test_dfa_boolean_ops () =
  List.iter
    (fun w ->
      check "complement" true
        (D.accepts_word (D.complement even_ones) w = not (D.accepts_word even_ones w));
      check "intersection" true
        (D.accepts_word (D.product even_ones has_01 ~mode:`Inter) w
        = (D.accepts_word even_ones w && D.accepts_word has_01 w));
      check "union" true
        (D.accepts_word (D.product even_ones has_01 ~mode:`Union) w
        = (D.accepts_word even_ones w || D.accepts_word has_01 w)))
    (words_up_to 2 5)

let test_dfa_minimize () =
  (* duplicate the even-ones automaton wastefully, then minimise *)
  let bloated = D.product even_ones even_ones ~mode:`Inter in
  let m = D.minimize bloated in
  check_int "back to 2 states" 2 m.D.states;
  check "language preserved" true (D.equal_language m even_ones);
  (* minimize is idempotent *)
  check_int "idempotent" 2 (D.minimize m).D.states

let test_dfa_emptiness_equivalence () =
  check "empty lang" true (D.is_empty (D.empty D.Words ~alphabet:2));
  check "total not empty" false (D.is_empty (D.total D.Words ~alphabet:2));
  check "self equivalent" true (D.equal_language has_01 has_01);
  check "different" false (D.equal_language has_01 even_ones);
  (* L \ L = empty *)
  check "L inter co-L empty" true
    (D.is_empty (D.product even_ones (D.complement even_ones) ~mode:`Inter))

let test_nfa_determinize () =
  (* NFA for "third letter from the end is 1" over {0,1}, in the
     nondeterministic form: a set of start states at rank 0 *)
  let n =
    {
      D.states = 4;
      alphabet = 2;
      leaf = [| [ 0 ] |];
      unary =
        [|
          [| [ 0 ]; [ 0; 1 ] |];
          [| [ 2 ]; [ 2 ] |];
          [| [ 3 ]; [ 3 ] |];
          [| []; [] |];
        |];
      binary = [||];
      accept = [| false; false; false; true |];
    }
  in
  (* the NFA run on state sets *)
  let nfa_accepts (n : int list D.ranked) w =
    let step set l =
      List.sort_uniq compare (List.concat_map (fun q -> n.unary.(q).(l)) set)
    in
    List.exists (fun q -> n.accept.(q)) (Array.fold_left step n.leaf.(0) w)
  in
  let d = D.minimize (D.determinize n) in
  check_int "classic 2^3 states" 8 d.D.states;
  List.iter
    (fun w ->
      let expected =
        Array.length w >= 3 && w.(Array.length w - 3) = 1
      in
      check "agrees with NFA semantics" true (D.accepts_word d w = expected);
      check "nfa accepts directly" true (nfa_accepts n w = expected))
    (words_up_to 2 6)

(* ------------------------------------------------------------------ *)
(* MSO compilation                                                     *)
(* ------------------------------------------------------------------ *)

(* some named MSO sentences over {0,1} with hand semantics *)
let mso_sentences =
  [
    ( "some 1",
      M.ExistsPos ("x", M.Letter (1, "x")),
      fun w -> Array.exists (fun a -> a = 1) w );
    ( "all 1",
      M.ForallPos ("x", M.Letter (1, "x")),
      fun w -> Array.for_all (fun a -> a = 1) w );
    ( "factor 01",
      M.ExistsPos
        ( "x",
          M.ExistsPos
            ( "y",
              M.And [ M.Succ ("x", "y"); M.Letter (0, "x"); M.Letter (1, "y") ]
            ) ),
      fun w ->
        let ok = ref false in
        Array.iteri
          (fun i a ->
            if i + 1 < Array.length w && a = 0 && w.(i + 1) = 1 then ok := true)
          w;
        !ok );
    ( "last letter 1",
      M.ExistsPos
        ("x", M.And [ M.Letter (1, "x"); M.Not (M.ExistsPos ("y", M.Less ("x", "y"))) ]),
      fun w -> Array.length w > 0 && w.(Array.length w - 1) = 1 );
    ( "even length (via MSO set)",
      (* exists X containing exactly the even positions (0th, 2nd, ...)
         such that: 0 in X, membership alternates along Succ, and the
         last position is odd (not in X) *)
      M.ExistsSet
        ( "X",
          M.And
            [
              M.ForallPos
                ( "x",
                  M.Or
                    [ M.ExistsPos ("p", M.Succ ("p", "x"));
                      M.Mem ("x", "X") ] );
              M.ForallPos
                ( "x",
                  M.ForallPos
                    ( "y",
                      M.Or
                        [
                          M.Not (M.Succ ("x", "y"));
                          M.And
                            [ M.Mem ("x", "X");
                              M.Not (M.Mem ("y", "X")) ]
                          |> fun a ->
                          M.Or
                            [ a;
                              M.And
                                [ M.Not (M.Mem ("x", "X")); M.Mem ("y", "X") ]
                            ];
                        ] ) );
              M.ForallPos
                ( "z",
                  M.Or
                    [ M.ExistsPos ("s", M.Succ ("z", "s"));
                      M.Not (M.Mem ("z", "X")) ] );
            ] ),
      fun w -> Array.length w mod 2 = 0 );
  ]

let test_mso_compile_sentences () =
  List.iter
    (fun (name, phi, semantics) ->
      let dfa = M.language ~sigma:2 phi in
      List.iter
        (fun w ->
          let direct = M.eval ~word:w M.empty_assignment phi in
          let via_dfa = D.accepts_word dfa w in
          let expected = semantics w in
          if direct <> expected then
            Alcotest.failf "%s: direct eval wrong on a word of length %d" name
              (Array.length w);
          if via_dfa <> expected then
            Alcotest.failf "%s: compiled automaton wrong on length %d" name
              (Array.length w))
        (words_up_to 2 6))
    mso_sentences

let test_mso_shadowing () =
  (* regression: an inner quantifier re-binding a name must win over the
     outer binding (track resolution picks the innermost scope entry) *)
  let phi =
    M.And
      [ M.Letter (1, "x");
        M.ExistsPos ("p", M.ForallPos ("p", M.Less ("x", "p"))) ]
  in
  let scope = [ ("x", M.Pos) ] in
  let dfa = M.compile ~sigma:2 ~scope phi in
  List.iter
    (fun w ->
      Array.iteri
        (fun p _ ->
          let asg = { M.pos = [ ("x", p) ]; sets = [] } in
          if
            M.eval ~word:w asg phi
            <> M.holds_compiled ~sigma:2 ~scope dfa w asg
          then Alcotest.failf "shadowing broken at position %d" p)
        w)
    (words_up_to 2 4)

let test_mso_free_variables () =
  let phi = M.And [ M.Letter (1, "x"); M.Mem ("x", "X") ] in
  check "free vars" true (M.free phi = [ ("X", M.Set); ("x", M.Pos) ]);
  check "kind clash detected" true
    (try
       ignore (M.free (M.And [ M.Letter (0, "x"); M.Mem ("p", "x") ]));
       false
     with Invalid_argument _ -> true)

let test_mso_compile_with_free_vars () =
  (* phi(x) = "x carries 1 and some later position carries 0" *)
  let phi =
    M.And
      [ M.Letter (1, "x");
        M.ExistsPos ("y", M.And [ M.Less ("x", "y"); M.Letter (0, "y") ]) ]
  in
  let scope = [ ("x", M.Pos) ] in
  let dfa = M.compile ~sigma:2 ~scope phi in
  List.iter
    (fun w ->
      Array.iteri
        (fun p _ ->
          let asg = { M.pos = [ ("x", p) ]; sets = [] } in
          let direct = M.eval ~word:w asg phi in
          let via = M.holds_compiled ~sigma:2 ~scope dfa w asg in
          if direct <> via then
            Alcotest.failf "free-var compile mismatch at position %d" p)
        w)
    (words_up_to 2 5)

let mso_random_formula seed =
  let st = Random.State.make [| seed; 0x350 |] in
  let rec go pos_vars set_vars depth =
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    if depth = 0 || Random.State.int st 3 = 0 then begin
      match (pos_vars, set_vars, Random.State.int st 5) with
      | _ :: _, _, 0 -> M.Letter (Random.State.int st 2, pick pos_vars)
      | _ :: _, _, 1 -> M.Less (pick pos_vars, pick pos_vars)
      | _ :: _, _, 2 -> M.Succ (pick pos_vars, pick pos_vars)
      | _ :: _, _ :: _, 3 -> M.Mem (pick pos_vars, pick set_vars)
      | _ :: _, _, _ -> M.EqPos (pick pos_vars, pick pos_vars)
      | [], _, _ -> M.MTrue
    end
    else begin
      match Random.State.int st 6 with
      | 0 -> M.Not (go pos_vars set_vars (depth - 1))
      | 1 -> M.And [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 2 -> M.Or [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 3 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          M.ExistsPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | 4 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          M.ForallPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | _ ->
          let v = Printf.sprintf "S%d" (Random.State.int st 2) in
          M.ExistsSet (v, go pos_vars (v :: set_vars) (depth - 1))
    end
  in
  go [ "x" ] [] 3

let mso_compile_matches_eval =
  QCheck.Test.make
    ~name:"compiled automaton = direct MSO evaluation (random formulas)"
    ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = mso_random_formula seed in
      let scope = [ ("x", M.Pos) ] in
      let dfa = M.compile ~sigma:2 ~scope phi in
      List.for_all
        (fun w ->
          Array.length w = 0
          || List.for_all
               (fun p ->
                 let asg = { M.pos = [ ("x", p) ]; sets = [] } in
                 M.eval ~word:w asg phi
                 = M.holds_compiled ~sigma:2 ~scope dfa w asg)
               [ 0; Array.length w - 1; Array.length w / 2 ])
        (words_up_to 2 5))

(* ------------------------------------------------------------------ *)
(* Regular expressions (Glushkov)                                      *)
(* ------------------------------------------------------------------ *)

module R = Mso.Regex

let ab_star_ab =
  (* (a|b)* a b (a|b)*  — contains the factor "ab" *)
  R.seq [ R.all ~sigma:2; R.letter 0; R.letter 1; R.all ~sigma:2 ]

let test_regex_matches () =
  check "factor found" true (R.matches ab_star_ab [| 1; 0; 1; 1 |]);
  check "factor missing" false (R.matches ab_star_ab [| 1; 1; 0 |]);
  check "eps in star" true (R.matches (R.star (R.letter 0)) [||]);
  check "plus needs one" false (R.matches (R.plus (R.letter 0)) [||]);
  check "opt" true (R.matches (R.opt (R.letter 1)) [||]);
  check "empty language" false (R.matches R.Empty [||])

let test_regex_simplifiers () =
  check "seq unit" true (R.seq [ R.Eps; R.letter 0 ] = R.letter 0);
  check "seq zero" true (R.seq [ R.letter 0; R.Empty ] = R.Empty);
  check "alt unit" true (R.alt [ R.Empty; R.letter 1 ] = R.letter 1);
  check "star idempotent" true (R.star (R.star (R.letter 0)) = R.star (R.letter 0));
  check "star of eps" true (R.star R.Eps = R.Eps)

let test_regex_to_dfa () =
  (* the Glushkov DFA for "contains ab" equals the handwritten has_01
     automaton (letters 0=a, 1=b)... note has_01 looks for factor 01 *)
  let d = R.to_dfa ~sigma:2 ab_star_ab in
  check "equals handwritten automaton" true (D.equal_language d has_01);
  (* and equals the MSO compilation of the factor sentence *)
  let mso_factor =
    M.ExistsPos
      ( "x",
        M.ExistsPos
          ("y", M.And [ M.Succ ("x", "y"); M.Letter (0, "x"); M.Letter (1, "y") ])
      )
  in
  check "equals the MSO sentence (BET triangle)" true
    (D.equal_language d (M.language ~sigma:2 mso_factor))

let test_regex_even_ones () =
  (* (0*10*1)*0*  — even number of 1s *)
  let zeros = R.star (R.letter 0) in
  let r = R.seq [ R.star (R.seq [ zeros; R.letter 1; zeros; R.letter 1 ]); zeros ] in
  check "equals even-ones" true (D.equal_language (R.to_dfa ~sigma:2 r) even_ones)

let regex_glushkov_matches_derivatives =
  QCheck.Test.make ~name:"Glushkov automaton = derivative matching" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x4e6 |] in
      let rec gen depth =
        if depth = 0 || Random.State.int st 3 = 0 then
          match Random.State.int st 4 with
          | 0 -> R.letter (Random.State.int st 2)
          | 1 -> R.Eps
          | 2 -> R.letter (Random.State.int st 2)
          | _ -> R.Empty
        else begin
          match Random.State.int st 3 with
          | 0 -> R.seq [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> R.alt [ gen (depth - 1); gen (depth - 1) ]
          | _ -> R.star (gen (depth - 1))
        end
      in
      let r = gen 4 in
      let d = R.to_dfa ~sigma:2 r in
      List.for_all
        (fun w -> D.accepts_word d w = R.matches r w)
        (words_up_to 2 5))

let test_regex_parse () =
  let letters = [ "a"; "b" ] in
  check "roundtrip factor regex (same language)" true
    (D.equal_language
       (R.to_dfa ~sigma:2 (R.of_string ~letters "(a|b)*ab(a|b)*"))
       (R.to_dfa ~sigma:2 ab_star_ab));
  check "postfix plus" true (R.of_string ~letters "a+" = R.plus (R.letter 0));
  check "postfix opt" true (R.of_string ~letters "b?" = R.opt (R.letter 1));
  check "empty word" true (R.of_string ~letters "1" = R.Eps);
  check "empty language" true (R.of_string ~letters "0" = R.Empty);
  check "empty input is eps" true (R.of_string ~letters "" = R.Eps);
  List.iter
    (fun bad ->
      check (Printf.sprintf "rejects %S" bad) true
        (try
           ignore (R.of_string ~letters bad);
           false
         with R.Parse_error _ -> true))
    [ "("; "a)"; "c"; "a**)" ]

let regex_parse_pp_roundtrip =
  QCheck.Test.make ~name:"regex pp/parse round-trip (language equality)"
    ~count:50
    QCheck.(int_range 0 5000)
    (fun seed ->
      let st = Random.State.make [| seed; 0x4e7 |] in
      let rec gen depth =
        if depth = 0 || Random.State.int st 3 = 0 then
          R.letter (Random.State.int st 2)
        else begin
          match Random.State.int st 3 with
          | 0 -> R.seq [ gen (depth - 1); gen (depth - 1) ]
          | 1 -> R.alt [ gen (depth - 1); gen (depth - 1) ]
          | _ -> R.star (gen (depth - 1))
        end
      in
      let r = gen 4 in
      let letters = [ "a"; "b" ] in
      let r' = R.of_string ~letters (Format.asprintf "%a" (R.pp ~letters) r) in
      D.equal_language (R.to_dfa ~sigma:2 r) (R.to_dfa ~sigma:2 r'))

let test_regex_pp () =
  Alcotest.(check string)
    "printing" "(a|b)*ab(a|b)*"
    (Format.asprintf "%a" (R.pp ~letters:[ "a"; "b" ]) ab_star_ab)

(* ------------------------------------------------------------------ *)
(* Concrete syntax                                                     *)
(* ------------------------------------------------------------------ *)

module P = Mso.Parser

let test_parser_atoms () =
  let letters = [ "a"; "b" ] in
  check "letter" true (P.parse ~letters "a(x)" = M.Letter (0, "x"));
  check "second letter" true (P.parse ~letters "b(x)" = M.Letter (1, "x"));
  check "less" true (P.parse ~letters "x < y" = M.Less ("x", "y"));
  check "eq" true (P.parse ~letters "x = y" = M.EqPos ("x", "y"));
  check "succ" true (P.parse ~letters "succ(x, y)" = M.Succ ("x", "y"));
  check "mem" true (P.parse ~letters "x in X" = M.Mem ("x", "X"))

let test_parser_quantifiers () =
  let letters = [ "a"; "b" ] in
  check "positions" true
    (P.parse ~letters "exists x y. x < y"
    = M.ExistsPos ("x", M.ExistsPos ("y", M.Less ("x", "y"))));
  check "sets" true
    (P.parse ~letters "existsset X. forall x. x in X"
    = M.ExistsSet ("X", M.ForallPos ("x", M.Mem ("x", "X"))));
  check "implication desugars" true
    (P.parse ~letters "a(x) -> b(x)"
    = M.Or [ M.Not (M.Letter (0, "x")); M.Letter (1, "x") ])

let test_parser_errors () =
  let letters = [ "a" ] in
  check "unknown letter" true (P.parse_opt ~letters "z(x)" = None);
  check "keyword letter rejected" true
    (try
       ignore (P.parse ~letters:[ "succ" ] "true");
       false
     with P.Parse_error _ -> true);
  check "dangling" true (P.parse_opt ~letters "x <" = None)

let printer_roundtrip =
  QCheck.Test.make ~name:"MSO pp/parse round-trip" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = mso_random_formula seed in
      let letters = [ "a"; "b" ] in
      match P.parse_opt ~letters (M.to_string ~letters phi) with
      | None -> false
      | Some phi' ->
          (* parsing may normalise through derived forms; compare
             semantically via compiled automata *)
          let scope = [ ("x", M.Pos) ] in
          let d1 = M.compile ~sigma:2 ~scope phi in
          let d2 = M.compile ~sigma:2 ~scope phi' in
          D.equal_language d1 d2)

let test_parser_end_to_end () =
  (* parse, compile, run: "every a is eventually followed by a b" *)
  let letters = [ "a"; "b" ] in
  let phi =
    P.parse ~letters "forall x. a(x) -> exists y. x < y /\\ b(y)"
  in
  let dfa = M.language ~sigma:2 phi in
  check "abab ok" true (D.accepts_word dfa [| 0; 1; 0; 1 |]);
  check "aba fails" false (D.accepts_word dfa [| 0; 1; 0 |]);
  check "empty ok" true (D.accepts_word dfa [||])

(* ------------------------------------------------------------------ *)
(* Words                                                               *)
(* ------------------------------------------------------------------ *)

let test_word_strings () =
  let w = W.of_string ~alphabet:"ab" "abba" in
  check "parse" true (w = [| 0; 1; 1; 0 |]);
  Alcotest.(check string) "print" "abba" (W.to_string ~alphabet:"ab" w);
  check "bad char" true
    (try
       ignore (W.of_string ~alphabet:"ab" "abc");
       false
     with Invalid_argument _ -> true)

let test_word_graph () =
  let g = W.to_graph ~sigma:2 [| 0; 1; 1 |] in
  check_int "path order" 3 (Cgraph.Graph.order g);
  check "first marked" true (Cgraph.Graph.has_color g "First" 0);
  check "letters coloured" true
    (Cgraph.Graph.has_color g "L1" 1 && Cgraph.Graph.has_color g "L0" 0);
  check "path edges" true (Cgraph.Graph.mem_edge g 0 1 && Cgraph.Graph.mem_edge g 1 2)

(* ------------------------------------------------------------------ *)
(* Bridge: FO on word-graphs = MSO on words                            *)
(* ------------------------------------------------------------------ *)

let test_bridge_atoms () =
  let w = W.of_string ~alphabet:"ab" "abba" in
  let g = W.to_graph ~sigma:2 w in
  let checks =
    [
      ("E(x, y)", [ ("x", 1); ("y", 2) ], true);
      ("E(x, y)", [ ("x", 0); ("y", 2) ], false);
      ("L1(x)", [ ("x", 1) ], true);
      ("First(x)", [ ("x", 0) ], true);
      ("First(x)", [ ("x", 2) ], false);
    ]
  in
  List.iter
    (fun (src, env, expected) ->
      let fo = Fo.Parser.parse src in
      let mso = Mso.Bridge.mso_of_fo ~sigma:2 fo in
      check (src ^ " on the graph") true
        (Modelcheck.Eval.holds g env fo = expected);
      check (src ^ " on the word") true
        (M.eval ~word:w { M.pos = env; sets = [] } mso = expected))
    checks

let test_bridge_guards () =
  check "counting rejected" true
    (try
       ignore
         (Mso.Bridge.mso_of_fo ~sigma:2 (Fo.Formula.count_ge 2 "y" (Fo.Formula.edge "x" "y")));
       false
     with Mso.Bridge.Unsupported _ -> true);
  check "foreign colour rejected" true
    (try
       ignore (Mso.Bridge.mso_of_fo ~sigma:2 (Fo.Formula.color "Zeta" "x"));
       false
     with Mso.Bridge.Unsupported _ -> true)

let bridge_correspondence =
  QCheck.Test.make
    ~name:"FO on the word-graph = translated MSO on the word" ~count:60
    QCheck.(int_range 0 5000)
    (fun seed ->
      let cfg =
        {
          Fo.Genform.default with
          Fo.Genform.free_vars = [ "x" ];
          colors = [ "L0"; "L1"; "First" ];
          max_depth = 3;
        }
      in
      let fo = Fo.Genform.formula ~config:cfg ~seed () in
      let mso = Mso.Bridge.mso_of_fo ~sigma:2 fo in
      let w = W.random ~seed:(seed + 1) ~sigma:2 ~len:(1 + (seed mod 6)) in
      let g = W.to_graph ~sigma:2 w in
      List.for_all
        (fun p ->
          Modelcheck.Eval.holds g [ ("x", p) ] fo
          = M.eval ~word:w { M.pos = [ ("x", p) ]; sets = [] } mso)
        (List.init (Array.length w) Fun.id))

(* ------------------------------------------------------------------ *)
(* Oracle                                                              *)
(* ------------------------------------------------------------------ *)

let oracle_matches_naive =
  QCheck.Test.make ~name:"sparse-table oracle = naive run" ~count:60
    QCheck.(pair (int_range 0 2000) (int_range 1 40))
    (fun (seed, len) ->
      let phi =
        M.And
          [ M.Letter (1, "x");
            M.ExistsPos ("y", M.And [ M.Less ("y", "x"); M.Letter (0, "y") ]) ]
      in
      let scope = [ ("x", M.Pos) ] in
      let dfa = M.compile ~sigma:2 ~scope phi in
      let w = W.random ~seed ~sigma:2 ~len in
      let o = O.make ~sigma:2 dfa w in
      let st = Random.State.make [| seed; 9 |] in
      List.for_all
        (fun _ ->
          let p = Random.State.int st len in
          O.eval_with_marks o ~marks:[ (p, 1) ]
          = O.eval_naive o ~marks:[ (p, 1) ])
        (List.init 8 Fun.id))

let test_oracle_multi_marks () =
  let phi =
    M.And [ M.Less ("x", "y"); M.Letter (1, "x"); M.Letter (1, "y") ]
  in
  let scope = [ ("x", M.Pos); ("y", M.Pos) ] in
  let dfa = M.compile ~sigma:2 ~scope phi in
  let w = [| 1; 0; 1; 1; 0 |] in
  let o = O.make ~sigma:2 dfa w in
  List.iter
    (fun (px, py) ->
      let marks = [ (px, 1); (py, 2) ] in
      check "two marks agree with naive" true
        (O.eval_with_marks o ~marks = O.eval_naive o ~marks);
      let expected = px < py && w.(px) = 1 && w.(py) = 1 in
      check "semantics" true (O.eval_with_marks o ~marks = expected))
    [ (0, 2); (2, 0); (0, 3); (3, 2); (1, 2); (2, 3) ]

let test_oracle_same_position_marks () =
  (* x and y on the same position: masks merge *)
  let phi = M.EqPos ("x", "y") in
  let scope = [ ("x", M.Pos); ("y", M.Pos) ] in
  let dfa = M.compile ~sigma:2 ~scope phi in
  let o = O.make ~sigma:2 dfa [| 0; 1; 0 |] in
  check "merged marks" true (O.eval_with_marks o ~marks:[ (1, 1); (1, 2) ]);
  check "split marks" false (O.eval_with_marks o ~marks:[ (1, 1); (2, 2) ])

(* ------------------------------------------------------------------ *)
(* Learner                                                             *)
(* ------------------------------------------------------------------ *)

let catalogue =
  [
    {
      L.name = "letter is 1";
      phi = M.Letter (1, "x");
      xvars = [ "x" ];
      yvars = [];
    };
    {
      L.name = "right of the parameter";
      phi = M.Less ("y1", "x");
      xvars = [ "x" ];
      yvars = [ "y1" ];
    };
    {
      L.name = "same letter as the parameter";
      phi =
        M.Or
          [ M.And [ M.Letter (0, "x"); M.Letter (0, "y1") ];
            M.And [ M.Letter (1, "x"); M.Letter (1, "y1") ] ];
      xvars = [ "x" ];
      yvars = [ "y1" ];
    };
  ]

let test_learner_simple_concept () =
  let word = W.of_string ~alphabet:"ab" "abbabaab" in
  let examples =
    List.init 8 (fun p -> ([| p |], word.(p) = 1))
  in
  match L.solve ~sigma:2 ~word ~catalogue examples with
  | None -> Alcotest.fail "catalogue should fit"
  | Some r ->
      Alcotest.(check (float 1e-9)) "err 0" 0.0 r.L.err;
      check "picked the letter concept" true (r.L.entry.L.name = "letter is 1")

let test_learner_parameterised_concept () =
  (* hidden threshold position: everything right of position 5 *)
  let word = W.random ~seed:3 ~sigma:2 ~len:12 in
  let examples = List.init 12 (fun p -> ([| p |], p > 5)) in
  match L.solve ~sigma:2 ~word ~catalogue examples with
  | None -> Alcotest.fail "catalogue should fit"
  | Some r ->
      Alcotest.(check (float 1e-9)) "err 0" 0.0 r.L.err;
      check "picked the threshold concept" true
        (r.L.entry.L.name = "right of the parameter");
      check_int "threshold parameter" 5 r.L.params.(0);
      (* fresh position classified correctly *)
      check "predict" true (L.predict ~sigma:2 ~word r [| 7 |]);
      check "predict negative" false (L.predict ~sigma:2 ~word r [| 2 |])

let test_learner_agnostic () =
  (* noisy labels: best catalogue entry minimises, err > 0 *)
  let word = W.of_string ~alphabet:"ab" "aaaabbbb" in
  let examples =
    [ ([| 0 |], false); ([| 1 |], false); ([| 4 |], true); ([| 5 |], true);
      ([| 6 |], false) (* the noise *) ]
  in
  match L.solve ~sigma:2 ~word ~catalogue examples with
  | None -> Alcotest.fail "nonempty catalogue"
  | Some r -> check "one error out of five" true (abs_float (r.L.err -. 0.2) < 1e-9)

let test_learner_guards () =
  check "stray free variable" true
    (try
       ignore
         (L.solve ~sigma:2 ~word:[| 0 |]
            ~catalogue:
              [ { L.name = "bad"; phi = M.Letter (0, "zz"); xvars = [ "x" ]; yvars = [] } ]
            [ ([| 0 |], true) ]);
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Parser robustness                                                   *)
(* ------------------------------------------------------------------ *)

(* Corpus formulas (examples/corpus) with one to four edits: a byte
   replaced, deleted or inserted, or a token of the three grammars
   inserted.  Every parser must answer, never raise: Fo.Parser with a
   structured [Error], the MSO parsers with [None]. *)
let parser_corpus =
  [
    "exists x. Red(x) /\\ exists y. E(x, y) /\\ Blue(y)";
    "forall x. exists y. exists z. E(x, y) /\\ E(x, z) /\\ ~ y = z";
    "exists x. forall y. ~ x = y -> E(x, y)";
    "atleast 3 y. E(x1, y)";
    "Urgent(x1) \\/ (exists z. E(x1, z) /\\ Urgent(z))";
    "exists p. Paper(p) /\\ E(x1, p) /\\ E(x2, p) /\\ ~ x1 = x2";
    "exists e. e < x /\\ c(e)";
    "existsset X. forall x. (x in X <-> a(x)) /\\ succ(x, y)";
    "forall x. a(x) \\/ b(x)";
    "exists x. exists y. child1(x, y) /\\ b(y)";
    "forallset S. exists x. x in S -> child2(x, x)";
  ]

let mutated_formula =
  let open QCheck.Gen in
  let tokens =
    [| "("; ")"; "."; ","; "~"; "/\\"; "\\/"; "->"; "<->"; "<"; "=";
       "exists "; "forall "; "existsset "; "forallset "; "atleast ";
       "in"; "succ"; "child1"; "true"; "false"; "E"; "a"; "x"; "X"; "7";
       "-1"; "99999999999999999999" |]
  in
  let mutate s =
    let len = String.length s in
    let* at = int_bound len and* op = int_bound 3 and* c = char
    and* tok = oneofa tokens in
    let keep i = String.sub s 0 i and from i = String.sub s i (len - i) in
    return
      (match op with
      | 0 when at < len -> keep at ^ String.make 1 c ^ from (at + 1)
      | 1 when at < len -> keep at ^ from (at + 1)
      | 2 -> keep at ^ tok ^ from at
      | _ -> keep at ^ String.make 1 c ^ from at)
  in
  let* s = oneofl parser_corpus and* steps = int_range 1 4 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go steps s

let parsers_never_raise =
  QCheck.Test.make ~count:3000
    ~name:"mutated formulas: FO/MSO parsers answer, never raise"
    (QCheck.make ~print:String.escaped mutated_formula)
    (fun text ->
      (match Fo.Parser.parse_result text with Ok _ | Error _ -> ());
      ignore (P.parse_opt ~letters:[ "a"; "b"; "c" ] text);
      ignore (P.parse_opt ~structure:`Trees ~letters:[ "a"; "b" ] text);
      true)

let suite =
  [
    Alcotest.test_case "dfa run" `Quick test_dfa_run;
    Alcotest.test_case "dfa guards" `Quick test_dfa_create_guards;
    Alcotest.test_case "dfa boolean ops" `Quick test_dfa_boolean_ops;
    Alcotest.test_case "dfa minimize" `Quick test_dfa_minimize;
    Alcotest.test_case "dfa emptiness/equivalence" `Quick
      test_dfa_emptiness_equivalence;
    Alcotest.test_case "nfa determinize" `Quick test_nfa_determinize;
    Alcotest.test_case "mso sentences compile" `Quick test_mso_compile_sentences;
    Alcotest.test_case "mso shadowing" `Quick test_mso_shadowing;
    Alcotest.test_case "mso free variables" `Quick test_mso_free_variables;
    Alcotest.test_case "mso free-var compile" `Quick test_mso_compile_with_free_vars;
    Alcotest.test_case "regex matches" `Quick test_regex_matches;
    Alcotest.test_case "regex simplifiers" `Quick test_regex_simplifiers;
    Alcotest.test_case "regex = DFA = MSO (BET)" `Quick test_regex_to_dfa;
    Alcotest.test_case "regex even ones" `Quick test_regex_even_ones;
    Alcotest.test_case "regex printing" `Quick test_regex_pp;
    Alcotest.test_case "regex parsing" `Quick test_regex_parse;
    QCheck_alcotest.to_alcotest regex_parse_pp_roundtrip;
    QCheck_alcotest.to_alcotest regex_glushkov_matches_derivatives;
    Alcotest.test_case "parser atoms" `Quick test_parser_atoms;
    Alcotest.test_case "parser quantifiers" `Quick test_parser_quantifiers;
    Alcotest.test_case "parser errors" `Quick test_parser_errors;
    Alcotest.test_case "parser end-to-end" `Quick test_parser_end_to_end;
    QCheck_alcotest.to_alcotest printer_roundtrip;
    Alcotest.test_case "word strings" `Quick test_word_strings;
    Alcotest.test_case "word graph" `Quick test_word_graph;
    Alcotest.test_case "bridge atoms" `Quick test_bridge_atoms;
    Alcotest.test_case "bridge guards" `Quick test_bridge_guards;
    QCheck_alcotest.to_alcotest bridge_correspondence;
    Alcotest.test_case "oracle multi marks" `Quick test_oracle_multi_marks;
    Alcotest.test_case "oracle same-position marks" `Quick
      test_oracle_same_position_marks;
    Alcotest.test_case "learner simple concept" `Quick test_learner_simple_concept;
    Alcotest.test_case "learner parameterised" `Quick test_learner_parameterised_concept;
    Alcotest.test_case "learner agnostic" `Quick test_learner_agnostic;
    Alcotest.test_case "learner guards" `Quick test_learner_guards;
    QCheck_alcotest.to_alcotest mso_compile_matches_eval;
    QCheck_alcotest.to_alcotest oracle_matches_naive;
    QCheck_alcotest.to_alcotest parsers_never_raise;
  ]
