(** Preprocessing for repeated learning tasks over one background graph.

    The paper's conclusion asks whether sublinear-time learning on
    nowhere dense classes becomes possible "after a polynomial-time
    preprocessing phase (similar to the results of [21, 19] for monadic
    second-order logic on strings and trees)".  This module instantiates
    that regime for unary, parameterless local-type hypotheses: one pass
    computes the canonical local type of every vertex; afterwards every
    ERM task on the same graph costs [O(m)] — independent of [n].

    (The string and tree counterparts live in {!Mso.Oracle} and
    {!Mso.Tree_learner.Node_oracle}.) *)

open Cgraph

type t

val build : Graph.t -> q:int -> r:int -> t
(** One preprocessing pass: [ltp_{q,r}(G, v)] for every vertex, then
    dense class ids in vertex order. *)

val graph : t -> Graph.t
val class_count : t -> int
(** Number of distinct local-type classes realised. *)

val vertex_class : t -> Graph.vertex -> int
(** Dense class id of a vertex, [O(1)]. *)

type answer = {
  hypothesis : Hypothesis.t;
  err : float;
}

val erm : t -> Sample.t -> answer
(** Exact ERM over parameterless unary local-type hypotheses: majority
    vote per precomputed class, [O(m)] after the build.
    @raise Invalid_argument if an example is not a 1-tuple. *)
