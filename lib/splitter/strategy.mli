(** Strategies for both players of the splitter game.

    Theorem 13 consumes a Splitter strategy as an oracle: any strategy
    that wins the [(R, s)]-game yields the learning guarantee with
    parameter-number [ℓ* · s].  We provide heuristic strategies (verified
    empirically by the game engine), an exact minimax solver for small
    arenas as ground truth, and adversarial Connector strategies for
    stress-testing (experiment E7). *)

open Cgraph

(** {1 Splitter strategies} *)

val center : Game.splitter_strategy
(** Answer with Connector's own vertex.  Optimal on stars; weak in
    general. *)

val top_of_ball : Game.splitter_strategy
(** Answer with the vertex of the ball closest to the arena's canonical
    root (the minimum-id vertex of Connector's component).  Mirrors the
    tree strategy from the proof of Fact 4 for forests. *)

val min_max_component : Game.splitter_strategy
(** Answer with the ball vertex whose removal minimises the largest
    remaining component of the ball; among equal scores, the first in
    {!Bfs.ball} order (increasing vertex id).  One articulation pass
    scores every vertex: [O(|B| + e)] for a ball [B] whose vertices have
    [e] incident edges, after the one {!Bfs.ball}, whose ticks are the
    only fuel it spends. *)

val best_heuristic : Game.splitter_strategy
(** {!min_max_component} on balls of at most 160 vertices, {!top_of_ball}
    on larger ones.  Its size test is a {!Bfs.ball} of its own, so on
    small balls it spends the fuel of two. *)

(** {1 Connector strategies} *)

val connector_random : seed:int -> Game.connector_strategy
(** Uniform random vertex (deterministic per seed; draws advance an
    internal state). *)

val connector_max_ball : r:int -> Game.connector_strategy
(** Pick the vertex whose [r]-ball is largest, the first such in
    vertex order (keeps the arena big).  One {!Cgraph.Bfs.ball_sizes}
    sizes every ball, at the fuel of one [Bfs.ball] per vertex. *)

val connector_max_ecc : Game.connector_strategy
(** Pick a vertex of maximum eccentricity. *)

(** {1 Game values} *)

val minimax_rounds : ?cap:int -> ?budget:Guard.Budget.t -> Graph.t -> r:int -> int option
(** Exact optimal number of rounds Splitter needs on this graph
    ([None] if above [cap], default 6).  Exponential: order <= ~12 only. *)

val minimax_move :
  ?cap:int -> ?budget:Guard.Budget.t -> Graph.t -> r:int -> connector:Graph.vertex ->
  Graph.vertex option
(** Splitter's {e optimal} answer to [connector] (the ball vertex
    minimising the remaining optimal round count), or [None] if no answer
    wins within [cap] (default 6) rounds.  Exponential — tiny arenas
    only. *)

val optimal : cap:int -> Game.splitter_strategy
(** The exact minimax strategy where it can decide within [cap] rounds,
    falling back to {!best_heuristic} beyond — ground truth for the
    ablation experiments. *)

val empirical_rounds :
  ?max_rounds:int -> ?seeds:int list -> ?budget:Guard.Budget.t -> Graph.t ->
  r:int -> splitter:Game.splitter_strategy -> int option
(** Max number of rounds the strategy needed against the adversarial
    Connector battery ({!connector_max_ball}, {!connector_max_ecc}, and
    random Connectors for each seed); [None] if it ever failed to win
    within [max_rounds] (default 64).  Every game's balls are charged
    to [budget]. *)

val estimate_s :
  ?slack:int -> ?budget:Guard.Budget.t -> Graph.t -> r:int ->
  splitter:Game.splitter_strategy -> int
(** Round budget for the Theorem 13 learner: {!empirical_rounds} plus
    [slack] (default 1); falls back to [order g] when the strategy lost —
    Splitter trivially wins in [order g] rounds only on graphs of radius
    [>= 1] balls covering everything, so treat that value as "give up". *)
