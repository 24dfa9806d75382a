(** Descriptors of (effectively) nowhere dense graph classes.

    An effectively nowhere dense class comes with a computable function
    [s(r)] bounding the number of rounds Splitter needs (Fact 4).  A
    descriptor bundles a Splitter strategy with such a bound; the
    Theorem 13 learner consumes descriptors.  For classes where no proven
    bound is wired in, {!of_graph} builds a descriptor empirically — the
    substitution recorded in DESIGN.md §5 (the learner verifies every game
    it plays, so an under-estimate surfaces as a reported failure, never a
    silent wrong answer). *)

open Cgraph

type t = {
  name : string;
  splitter : Game.splitter_strategy;
  s_bound : ?budget:Guard.Budget.t -> Graph.t -> r:int -> int;
      (** rounds budget for the (r, s)-splitter game on a member graph;
          the games an empirical bound plays are charged to [budget] *)
}

val forests : t
(** Forests: Splitter wins the radius-[r] game in at most [2r + 2] rounds
    with the top-of-ball strategy (checked by the test suite on the random
    tree corpus; the GKS proof gives a bound depending only on [r]). *)

val bounded_degree : d:int -> t
(** Max-degree-[d] classes (uses the heuristic strategy with an empirical
    budget; balls have at most [1 + d^{r+1}] vertices). *)

val planar_like : t
(** Grids and other planar workloads (empirical budget). *)

val of_graph : ?slack:int -> string -> Graph.t -> t
(** Build a descriptor for "the class of graphs like this one" by
    measuring the heuristic strategy against the adversarial Connector
    battery on the given graph. *)
