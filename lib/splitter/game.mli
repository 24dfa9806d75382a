(** The (r, s)-splitter game of Grohe, Kreutzer and Siebertz (Fact 4).

    Starting from [G_0 = G], in round [i+1] Connector picks a vertex
    [v ∈ V(G_i)] (in the modified game also a radius [r' <= r]), Splitter
    answers with [w ∈ N_{r'}^{G_i}(v)], and the game continues on
    [G_{i+1} = G_i\[N_{r'}^{G_i}(v) \ {w}\]].  Splitter wins when the arena
    becomes empty.  A class is nowhere dense iff for every [r] Splitter has
    a winning strategy in some bounded number [s] of rounds, uniformly over
    the class.

    The state tracks the embedding of the shrinking arena back into the
    original graph: Theorem 13 uses Splitter's answers, {e as vertices of
    the original graph}, as the learned query parameters. *)

open Cgraph

type state

exception Illegal_move of string

val start : Graph.t -> r:int -> state
(** Initial state with arena [G_0 = G]. *)

val radius : state -> int
(** The game radius [r]. *)

val arena : state -> Graph.t
(** The current arena [G_i] (vertices renumbered from 0). *)

val rounds_played : state -> int

val to_original : state -> Graph.vertex -> Graph.vertex
(** Map an arena vertex to the corresponding vertex of the original
    graph. *)

val is_won : state -> bool
(** Splitter has won: the arena is empty. *)

val play : ?radius':int -> ?budget:Guard.Budget.t -> state -> connector:Graph.vertex -> splitter:Graph.vertex -> state
(** One round; both vertices are arena vertices, [radius'] (default: the
    game radius) is Connector's radius in the modified game.
    @raise Illegal_move if the game is over, [radius' > r], or Splitter's
    answer lies outside [N_{radius'}(connector)]. *)

type connector_strategy = ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex
(** Chooses Connector's vertex in the current arena (arena ids),
    charging its balls to [budget]. *)

type splitter_strategy =
  ?budget:Guard.Budget.t -> Graph.t -> radius:int -> connector:Graph.vertex -> Graph.vertex
(** Chooses Splitter's answer within [N_radius(connector)] (arena ids),
    charging its balls to [budget]. *)

val play_out :
  ?max_rounds:int ->
  ?budget:Guard.Budget.t ->
  Graph.t ->
  r:int ->
  connector:connector_strategy ->
  splitter:splitter_strategy ->
  int option
(** Run the game to completion; [Some rounds] if Splitter wins within
    [max_rounds] (default 64), [None] otherwise. *)

val trace :
  ?max_rounds:int ->
  ?budget:Guard.Budget.t ->
  Graph.t ->
  r:int ->
  connector:connector_strategy ->
  splitter:splitter_strategy ->
  (Graph.vertex * Graph.vertex * int) list
(** Like {!play_out} but returns per-round
    [(connector, splitter, arena size after)] in original-graph ids. *)
