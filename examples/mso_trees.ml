(* Learning MSO-definable hypotheses on trees (related work [19]).

   An XML-ish document tree where some nodes are "sections" (label 1)
   and some are "text" (label 0).  We learn node concepts from labelled
   nodes, and show the per-node preprocessing oracle: two passes over the
   tree, then O(1) classification of every node.

   Run with:  dune exec examples/mso_trees.exe *)

module T = Mso.Tree
module Tf = Mso.Formula
module L = Mso.Learner
module Tl = Mso.Tree_learner

let () =
  let tree = T.random ~seed:2024 ~sigma:2 ~size:400 in
  Format.printf "document tree: %d nodes, depth %d@.@." (T.size tree)
    (T.depth tree);

  (* hidden concept: "text node directly under a section" *)
  let phi =
    Tf.And
      [
        Tf.Letter (0, "x");
        Tf.ExistsPos
          ( "p",
            Tf.And
              [ Tf.Or [ Tf.Child1 ("p", "x"); Tf.Child2 ("p", "x") ];
                Tf.Letter (1, "p") ] );
      ]
  in
  Format.printf
    "concept: text node whose parent is a section (an MSO formula phi(x))@.";

  (* the [19]-style preprocessing: bottom-up states + top-down contexts *)
  let t0 = Unix.gettimeofday () in
  let oracle = Tl.Node_oracle.make ~sigma:2 phi tree in
  let t1 = Unix.gettimeofday () in
  let positives =
    List.filter (fun (id, _) -> Tl.Node_oracle.holds oracle id) (T.nodes tree)
  in
  let t2 = Unix.gettimeofday () in
  Format.printf
    "preprocessing: %.2f ms (%d-state automaton); classifying all %d nodes \
     afterwards: %.2f ms@."
    ((t1 -. t0) *. 1e3)
    (Tl.Node_oracle.states oracle)
    (T.size tree)
    ((t2 -. t1) *. 1e3);
  Format.printf "%d nodes satisfy the concept@.@." (List.length positives);

  (* learn the concept back from a handful of labelled nodes *)
  let catalogue =
    [
      { L.name = "is text"; phi = Tf.Letter (0, "x"); xvars = [ "x" ]; yvars = [] };
      { L.name = "is section"; phi = Tf.Letter (1, "x"); xvars = [ "x" ]; yvars = [] };
      { L.name = "text under a section"; phi; xvars = [ "x" ]; yvars = [] };
    ]
  in
  let examples =
    List.filteri (fun i _ -> i mod 23 = 0) (T.nodes tree)
    |> List.map (fun (id, _) -> ([| id |], Tl.Node_oracle.holds oracle id))
  in
  Format.printf "training on %d labelled nodes...@." (List.length examples);
  match Tl.solve ~sigma:2 ~tree ~catalogue examples with
  | None -> Format.printf "no hypothesis found@."
  | Some r ->
      Format.printf "learned %S with training error %.3f@." r.L.entry.L.name
        r.L.err
