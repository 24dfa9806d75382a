(* The counting extension (FOC) at work.

   The paper's conclusion proposes extending its results to first-order
   logic with counting.  This demo shows why: at a fixed quantifier rank,
   counting quantifiers are strictly more expressive, so the ERM learner
   reaches zero error where plain FO of the same rank provably cannot.

   Scenario: a load-balancer "hot node" detector.  A node is overloaded
   iff it serves at least 3 clients.  "Degree >= 3" is a single counting
   quantifier (atleast 3 y. E(x, y)), rank 1 — but expressing it uniformly
   in plain FO takes three nested quantifiers (three distinct neighbours).
   At rank 1 plain FO provably cannot fit the data; on a fixed finite
   graph rank-2 type unions may happen to fit, as the table shows.

   Run with:  dune exec examples/degree_counting.exe *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Hyp = Folearn.Hypothesis

let () =
  (* a caterpillar: spine servers with a few clients each *)
  let g = Gen.caterpillar ~seed:11 ~spine:10 ~legs:4 in
  Format.printf "Network: %d nodes, %d links, max degree %d@.@."
    (Graph.order g) (Graph.size g) (Graph.max_degree g);

  let overloaded v = Graph.degree g v.(0) >= 3 in
  let lam = Sam.label_with g ~target:overloaded (Sam.all_tuples g ~k:1) in
  Format.printf "%d nodes, %d of them overloaded (degree >= 3)@.@."
    (Sam.size lam)
    (List.length (Sam.positives lam));

  (* plain FO at increasing rank *)
  Format.printf "%-28s %12s@." "hypothesis class" "train err";
  List.iter
    (fun q ->
      let r = Brute.solve g ~k:1 ~ell:0 ~q lam in
      Format.printf "%-28s %12.3f@."
        (Printf.sprintf "plain FO, rank %d" q)
        r.Brute.err)
    [ 0; 1; 2 ];

  (* counting at rank 1 with growing threshold caps (t<=1 is plain FO) *)
  List.iter
    (fun tmax ->
      let r = Brute.solve ~tmax g ~k:1 ~ell:0 ~q:1 lam in
      Format.printf "%-28s %12.3f@."
        (Printf.sprintf "counting FO, rank 1, t<=%d" tmax)
        r.Brute.err)
    [ 1; 2; 3 ];

  (* show the witness formula the exact counting learner produces *)
  let r = Brute.solve ~tmax:3 g ~k:1 ~ell:0 ~q:1 lam in
  Format.printf "@.Learned counting hypothesis (err %.3f):@.%a@." r.Brute.err
    Fo.Formula.pp
    (Hyp.formula r.Brute.hypothesis);

  (* the concise equivalent a human would write *)
  let concise = Fo.Parser.parse "atleast 3 y. E(x1, y)" in
  let h = Hyp.of_formula g ~k:1 ~formula:concise ~params:[||] in
  Format.printf
    "@.The concise target 'atleast 3 y. E(x1, y)' has training error %.3f@."
    (Hyp.training_error h lam)
