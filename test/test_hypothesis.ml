(* Tests for hypotheses and training sequences. *)

open Cgraph
module F = Fo.Formula
module Hyp = Folearn.Hypothesis
module Sam = Folearn.Sample
module T = Modelcheck.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let g =
  Graph.with_colors (Gen.path 6) [ ("Red", [ 0; 3 ]); ("Blue", [ 5 ]) ]

(* target: x1 is Red or adjacent to a Red vertex *)
let near_red =
  Fo.Parser.parse "Red(x1) \\/ (exists z. E(x1, z) /\\ Red(z))"

(* ------------------------------------------------------------------ *)
(* Samples                                                             *)
(* ------------------------------------------------------------------ *)

let test_sample_basics () =
  let lam = [ ([| 0 |], true); ([| 1 |], false); ([| 2 |], true) ] in
  check_int "size" 3 (Sam.size lam);
  check_int "positives" 2 (List.length (Sam.positives lam));
  check_int "negatives" 1 (List.length (Sam.negatives lam));
  check "arity" true (Sam.arity lam = Some 1);
  check "empty arity" true (Sam.arity [] = None)

let test_sample_mixed_arity () =
  check "mixed arity rejected" true
    (try
       ignore (Sam.arity [ ([| 0 |], true); ([| 1; 2 |], false) ]);
       false
     with Invalid_argument _ -> true)

let test_error_of () =
  let lam = [ ([| 0 |], true); ([| 1 |], false) ] in
  Alcotest.(check (float 1e-9)) "half wrong" 0.5 (Sam.error_of (fun _ -> true) lam);
  check_int "errors_of" 1 (Sam.errors_of (fun _ -> true) lam);
  Alcotest.(check (float 1e-9)) "empty sample" 0.0 (Sam.error_of (fun _ -> true) [])

let test_label_with_query () =
  let lam = Sam.label_with_query g ~formula:near_red ~xvars:[ "x1" ] (Sam.all_tuples g ~k:1) in
  (* Red or adjacent to red: 0,1,2,3,4 yes; 5 no (nbr 4 is not red) *)
  check "labels" true
    (List.map snd lam = [ true; true; true; true; true; false ])

let test_label_with_params () =
  let f = Fo.Parser.parse "E(x1, y1)" in
  let lam =
    Sam.label_with_query g ~formula:f ~xvars:[ "x1" ] ~yvars:[ "y1" ]
      ~params:[| 2 |] (Sam.all_tuples g ~k:1)
  in
  check "neighbours of 2" true
    (List.map snd lam = [ false; true; false; true; false; false ])

let test_flip_noise () =
  let lam = Sam.label_with g ~target:(fun _ -> true) (Sam.all_tuples g ~k:1) in
  check "p=0 identity" true (Sam.flip_noise ~seed:1 ~p:0.0 lam = lam);
  let flipped = Sam.flip_noise ~seed:1 ~p:1.0 lam in
  check "p=1 flips all" true (List.for_all (fun (_, b) -> not b) flipped)

let test_random_tuples_deterministic () =
  check "determinism" true
    (Sam.random_tuples ~seed:9 g ~k:2 ~m:5 = Sam.random_tuples ~seed:9 g ~k:2 ~m:5)

(* ------------------------------------------------------------------ *)
(* Syntactic hypotheses                                                *)
(* ------------------------------------------------------------------ *)

let test_of_formula_predict () =
  let h = Hyp.of_formula g ~k:1 ~formula:near_red ~params:[||] in
  check "predicts positive" true (Hyp.predict h [| 1 |]);
  check "predicts negative" false (Hyp.predict h [| 5 |]);
  check_int "k" 1 (Hyp.k h);
  check_int "ell" 0 (Hyp.ell h);
  check_int "rank" 1 (Hyp.quantifier_rank h)

let test_of_formula_with_params () =
  let f = Fo.Parser.parse "E(x1, y1)" in
  let h = Hyp.of_formula g ~k:1 ~formula:f ~params:[| 2 |] in
  check "nbr of 2" true (Hyp.predict h [| 3 |]);
  check "non-nbr" false (Hyp.predict h [| 0 |])

let test_of_formula_guards () =
  check "stray variable rejected" true
    (try
       ignore (Hyp.of_formula g ~k:1 ~formula:(F.eq "x1" "zz") ~params:[||]);
       false
     with Invalid_argument _ -> true);
  check "bad parameter vertex rejected" true
    (try
       ignore (Hyp.of_formula g ~k:1 ~formula:F.tru ~params:[| 99 |]);
       false
     with Graph.Invalid_vertex _ -> true)

let test_predict_arity_guard () =
  let h = Hyp.of_formula g ~k:2 ~formula:(F.edge "x1" "x2") ~params:[||] in
  check "arity guard" true
    (try
       ignore (Hyp.predict h [| 0 |]);
       false
     with Invalid_argument _ -> true)

let test_training_error () =
  let h = Hyp.of_formula g ~k:1 ~formula:near_red ~params:[||] in
  let lam = Sam.label_with_query g ~formula:near_red ~xvars:[ "x1" ] (Sam.all_tuples g ~k:1) in
  Alcotest.(check (float 1e-9)) "consistent" 0.0 (Hyp.training_error h lam)

let test_constantly () =
  let h = Hyp.constantly g ~k:2 true in
  check "always true" true (Hyp.predict h [| 0; 5 |]);
  check "formula is true" true (Hyp.formula h = F.tru)

(* ------------------------------------------------------------------ *)
(* Semantic (type-set) hypotheses                                      *)
(* ------------------------------------------------------------------ *)

let test_of_types_agrees_with_formula () =
  (* pick the rank-1 types of the positives of near_red, then check the
     materialised Hintikka formula agrees with the type-based predictor *)
  let ctx = T.make_ctx g in
  let q = 2 in
  let pos_types =
    List.sort_uniq T.compare
      (List.filter_map
         (fun v ->
           if Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] v near_red then
             Some (T.tp ctx ~q v)
           else None)
         (Sam.all_tuples g ~k:1))
  in
  let h = Hyp.of_types g ~k:1 ~q ~types:pos_types ~params:[||] in
  let f = Hyp.formula h in
  List.iter
    (fun v ->
      let via_types = Hyp.predict h v in
      let via_formula = Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] v f in
      if via_types <> via_formula then
        Alcotest.failf "type/formula disagreement at %d" v.(0))
    (Sam.all_tuples g ~k:1)

let test_of_types_with_params () =
  (* hypothesis "x1 is adjacent to y1" via rank-0 pair types *)
  let ctx = T.make_ctx g in
  let adj_types =
    List.sort_uniq T.compare
      (List.filter_map
         (fun v ->
           if Graph.mem_edge g v.(0) 2 then Some (T.tp ctx ~q:0 [| v.(0); 2 |])
           else None)
         (Sam.all_tuples g ~k:1))
  in
  let h = Hyp.of_types g ~k:1 ~q:0 ~types:adj_types ~params:[| 2 |] in
  check "nbr" true (Hyp.predict h [| 1 |]);
  check "non-nbr" false (Hyp.predict h [| 4 |]);
  (* the materialised formula must agree too, with y1 bound to 2 *)
  let f = Hyp.formula h in
  check "formula free vars use the x/y split" true
    (List.for_all
       (fun v -> List.mem v [ "x1"; "y1" ])
       (F.free_vars f));
  List.iter
    (fun v ->
      check "formula agrees" true
        (Modelcheck.Eval.holds_tuple g ~vars:[ "x1"; "y1" ] [| v; 2 |] f
        = Hyp.predict h [| v |]))
    [ 0; 1; 2; 3; 4; 5 ]

let test_of_local_types_agrees () =
  let ctx = T.make_ctx g in
  let q = 1 and r = 2 in
  let pos_types =
    List.sort_uniq T.compare
      (List.filter_map
         (fun v ->
           if Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] v near_red then
             Some (T.ltp ctx ~q ~r v)
           else None)
         (Sam.all_tuples g ~k:1))
  in
  let h = Hyp.of_local_types g ~k:1 ~q ~r ~types:pos_types ~params:[||] in
  let f = Hyp.formula h in
  List.iter
    (fun v ->
      let via_types = Hyp.predict h v in
      let via_formula = Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] v f in
      if via_types <> via_formula then
        Alcotest.failf "local type/formula disagreement at %d" v.(0))
    (Sam.all_tuples g ~k:1)

let test_split_kfold () =
  let lam = List.init 20 (fun i -> ([| i mod 6 |], i mod 2 = 0)) in
  let train, test = Sam.split ~seed:4 ~ratio:0.7 lam in
  check "sizes add" true (Sam.size train + Sam.size test = 20);
  check "ratio respected" true (Sam.size train = 14);
  let folds = Sam.kfold ~seed:4 ~k:5 lam in
  check "five folds" true (List.length folds = 5);
  List.iter
    (fun (tr, va) ->
      check "fold sizes add" true (Sam.size tr + Sam.size va = 20))
    folds;
  (* validation folds partition the sample *)
  let total_val =
    List.fold_left (fun acc (_, va) -> acc + Sam.size va) 0 folds
  in
  check "validation covers everything once" true (total_val = 20);
  check "bad k rejected" true
    (try
       ignore (Sam.kfold ~seed:1 ~k:0 lam);
       false
     with Invalid_argument _ -> true)

let test_cross_validate () =
  let lam =
    Folearn.Sample.label_with g
      ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Folearn.Sample.all_tuples g ~k:1)
  in
  (* enlarge by repetition so every fold sees both classes *)
  let lam = lam @ lam @ lam in
  let solver l = (Folearn.Erm_brute.solve g ~k:1 ~ell:0 ~q:1 l).Folearn.Erm_brute.hypothesis in
  let cv = Folearn.Pac.cross_validate ~solver ~seed:3 ~k:3 lam in
  check "realisable target cross-validates near zero" true (cv <= 0.2)

let test_combinators () =
  let red = Hyp.of_formula g ~k:1 ~formula:(Fo.Parser.parse "Red(x1)") ~params:[||] in
  let nbr2 = Hyp.of_formula g ~k:1 ~formula:(Fo.Parser.parse "E(x1, y1)") ~params:[| 2 |] in
  let both = Hyp.conj red nbr2 in
  let either = Hyp.disj red nbr2 in
  let not_red = Hyp.negate red in
  List.iter
    (fun v ->
      let t = [| v |] in
      check "conj" true
        (Hyp.predict both t = (Hyp.predict red t && Hyp.predict nbr2 t));
      check "disj" true
        (Hyp.predict either t = (Hyp.predict red t || Hyp.predict nbr2 t));
      check "negate" true (Hyp.predict not_red t = not (Hyp.predict red t)))
    [ 0; 1; 2; 3; 4; 5 ];
  (* the combined formula evaluates consistently with the predictor *)
  let f = Hyp.formula both in
  let vars = Hyp.xvars 1 @ Hyp.yvars (Hyp.ell both) in
  List.iter
    (fun v ->
      check "conj formula faithful" true
        (Modelcheck.Eval.holds_tuple g ~vars
           (Graph.Tuple.append [| v |] (Hyp.params both))
           f
        = Hyp.predict both [| v |]))
    [ 0; 2; 5 ];
  check "arity mismatch rejected" true
    (try
       ignore (Hyp.conj red (Hyp.constantly g ~k:2 true));
       false
     with Invalid_argument _ -> true)

let test_signatures () =
  let ctx = T.make_ctx g in
  let t = T.tp ctx ~q:1 [| 0 |] in
  let h1 = Hyp.of_types g ~k:1 ~q:1 ~types:[ t ] ~params:[||] in
  let h2 = Hyp.of_types g ~k:1 ~q:1 ~types:[ t ] ~params:[||] in
  check "equal signatures" true (Hyp.signature h1 = Hyp.signature h2);
  let h3 = Hyp.of_types g ~k:1 ~q:1 ~types:[] ~params:[||] in
  check "different signatures" true (Hyp.signature h1 <> Hyp.signature h3)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* [Hyp.pp] as a Format layout over [F.pp]: the reference for the
   layout [Hyp.pp] writes itself *)
let reference_pp ppf h =
  Format.fprintf ppf "@[<v>phi(x1..x%d; y1..y%d) =@;<1 2>@[%a@]@,w = %a@]"
    (Hyp.k h) (Hyp.ell h) F.pp (Hyp.formula h) Graph.Tuple.pp (Hyp.params h)

let render ~margin pp h =
  let b = Buffer.create 4096 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf margin;
  Format.fprintf ppf "training error: 0.0000@.%a@.after@." pp h;
  Buffer.contents b

(* brute and counting learns of random labels on small random graphs,
   every k, l, q <= 2 *)
let test_pp_matches_reference () =
  List.iter
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 3 in
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.gnp ~seed ~n ~p:0.4)
      in
      List.iter
        (fun (k, ell, q) ->
          let lam =
            Sam.label_with g
              ~target:(fun _ -> Random.State.bool st)
              (Sam.all_tuples g ~k)
          in
          let learned =
            [
              (Folearn.Erm_brute.solve g ~k ~ell ~q lam).hypothesis;
              (Folearn.Erm_counting.solve g ~k ~ell ~q ~tmax:2 lam).hypothesis;
            ]
          in
          List.iter
            (fun h ->
              List.iter
                (fun margin ->
                  Alcotest.(check string)
                    (Printf.sprintf "seed %d k=%d l=%d q=%d margin %d" seed k
                       ell q margin)
                    (render ~margin reference_pp h)
                    (render ~margin Hyp.pp h))
                [ 78; 40; 12 ])
            learned)
        [ (1, 0, 1); (1, 1, 2); (2, 1, 1); (1, 2, 1); (2, 0, 2) ])
    [ 1; 2; 3 ]

(* Hintikka DAGs at q = 2, plain and counting: a type node's formula
   is one value wherever it recurs, so [Fo.Formula.output] replays its
   layout; the bytes must stay Format's *)
let pp_shared_hintikka =
  QCheck.Test.make ~name:"pp = reference layout on q = 2 Hintikka DAGs"
    ~count:30
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let n = 3 + Random.State.int st 3 in
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.gnp ~seed:(seed + 1) ~n ~p:0.4)
      in
      let k = 1 + Random.State.int st 2 in
      let ell = if k = 1 then Random.State.int st 2 else 0 in
      let params = Array.init ell (fun i -> i) in
      List.for_all
        (fun cap ->
          let ctx = T.make_ctx ~cap g in
          let types =
            List.sort_uniq T.compare
              (List.map (T.tp ctx ~q:2) (Graph.Tuple.all ~n ~k:(k + ell)))
            |> List.filter (fun _ -> Random.State.int st 3 > 0)
          in
          let h = Hyp.of_types ~cap g ~k ~q:2 ~types ~params in
          List.for_all
            (fun margin ->
              render ~margin reference_pp h = render ~margin Hyp.pp h)
            [ 78; 40; 12 ])
        [ 1; 2 ])

(* the answer streams out: no [out_string] call longer than 1 KiB *)
let test_pp_chunks () =
  let g = Gen.colored ~seed:5 ~colors:[ "Red" ] (Gen.gnp ~seed:5 ~n:8 ~p:0.4) in
  let st = Random.State.make [| 5 |] in
  let lam =
    Sam.label_with g ~target:(fun _ -> Random.State.bool st)
      (Sam.all_tuples g ~k:1)
  in
  let h = (Folearn.Erm_brute.solve g ~k:1 ~ell:1 ~q:2 lam).hypothesis in
  let b = Buffer.create 4096 and longest = ref 0 in
  let ppf =
    Format.make_formatter
      (fun s pos len ->
        longest := max !longest len;
        Buffer.add_substring b s pos len)
      ignore
  in
  Format.fprintf ppf "%a@." Hyp.pp h;
  let text = Buffer.contents b in
  check "several KiB" true (String.length text > 8192);
  check "bytes" true (text = Format.asprintf "%a@." reference_pp h);
  check "chunks of at most 1 KiB" true (!longest <= 1024)

let suite =
  [
    Alcotest.test_case "sample basics" `Quick test_sample_basics;
    Alcotest.test_case "mixed arity" `Quick test_sample_mixed_arity;
    Alcotest.test_case "error_of" `Quick test_error_of;
    Alcotest.test_case "label with query" `Quick test_label_with_query;
    Alcotest.test_case "label with params" `Quick test_label_with_params;
    Alcotest.test_case "flip noise" `Quick test_flip_noise;
    Alcotest.test_case "random tuples deterministic" `Quick
      test_random_tuples_deterministic;
    Alcotest.test_case "of_formula predict" `Quick test_of_formula_predict;
    Alcotest.test_case "of_formula params" `Quick test_of_formula_with_params;
    Alcotest.test_case "of_formula guards" `Quick test_of_formula_guards;
    Alcotest.test_case "predict arity guard" `Quick test_predict_arity_guard;
    Alcotest.test_case "training error" `Quick test_training_error;
    Alcotest.test_case "constant hypothesis" `Quick test_constantly;
    Alcotest.test_case "of_types = formula" `Quick test_of_types_agrees_with_formula;
    Alcotest.test_case "of_types with params" `Quick test_of_types_with_params;
    Alcotest.test_case "of_local_types = formula" `Quick test_of_local_types_agrees;
    Alcotest.test_case "split and kfold" `Quick test_split_kfold;
    Alcotest.test_case "cross validate" `Quick test_cross_validate;
    Alcotest.test_case "hypothesis combinators" `Quick test_combinators;
    Alcotest.test_case "signatures" `Quick test_signatures;
    Alcotest.test_case "pp = reference layout" `Quick test_pp_matches_reference;
    Alcotest.test_case "pp chunks" `Quick test_pp_chunks;
    QCheck_alcotest.to_alcotest pp_shared_hintikka;
  ]
