(** Breadth-first search: distances and [r]-neighbourhoods.

    Distances follow Section 2 of the paper: [dist(u, v)] is the length of a
    shortest path; the distance from a vertex to a tuple (or set) is the
    minimum over its entries; the distance between two unreachable vertices
    is {!infinity}.

    A traversal charges its [Bfs_frontier] ticks to [budget] (default:
    none). *)

val infinity : int
(** Sentinel distance for unreachable vertices (larger than any real
    distance in any graph). *)

val distances : ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex -> int array
(** [distances g src] gives the distance from [src] to every vertex
    ({!infinity} for unreachable ones). *)

val distances_multi : ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex list -> int array
(** Multi-source distances: [dist(v, S)] for every [v] (all {!infinity}
    when [S] is empty).  Walks the sources' whole components: [O(n + m)]
    time and memory, one [Bfs_frontier] tick per reachable vertex.
    @raise Graph.Invalid_vertex on a source outside the graph. *)

val dist : ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex -> Graph.vertex -> int
(** Pairwise distance, by a search from the lower-degree endpoint that
    stops when it finds the other: one [Bfs_frontier] tick per dequeued
    vertex, memory sized by the explored ball. *)

val dist_tuple : ?budget:Guard.Budget.t -> Graph.t -> Graph.Tuple.t -> Graph.Tuple.t -> int
(** [dist(ū, v̄) = min over entries] (paper, Section 2).  {!infinity} if
    either tuple is empty or they lie in different components. *)

val ball : ?budget:Guard.Budget.t -> Graph.t -> r:int -> Graph.vertex list -> Graph.vertex list
(** [ball g ~r srcs] is the [r]-neighbourhood [N_r(srcs)]: all vertices at
    distance at most [r] from some source, sorted increasingly.  Includes
    the sources themselves (distance 0).

    The search stops at depth [r], so a ball costs
    [O(|N_r(srcs)| · Δ + |N_r| log |N_r|)] time and [O(|N_r|)] memory,
    independent of [Graph.order g] (Gaifman locality).  Its fuel is
    exactly [|N_r(srcs)|] [Bfs_frontier] ticks, one per ball vertex,
    plus the one tick of [Guard.note_ball].
    @raise Graph.Invalid_vertex on a source outside the graph.
    @raise Invalid_argument on a negative radius. *)

val ball_tuple : ?budget:Guard.Budget.t -> Graph.t -> r:int -> Graph.Tuple.t -> Graph.vertex list
(** [N_r(ū)] for a tuple; same cost and fuel as {!ball}. *)

val ball_sizes : ?budget:Guard.Budget.t -> Graph.t -> r:int -> int array
(** [ball_sizes g ~r] gives [|N_r(v)|] for every vertex [v].  It runs
    {!ball}'s traversal from each vertex in turn, reusing one stamp
    array and one queue, so it needs [O(n)] scratch in all; its time,
    fuel, [cgraph.bfs.calls] and histograms are those of [n] calls
    [ball g ~r [v]], [v] ascending, less the sorting.
    @raise Invalid_argument on a negative radius. *)

val visit_ball :
  Graph.t ->
  r:int ->
  visit:(Graph.vertex -> unit) ->
  level:(int -> unit) ->
  Graph.vertex list ->
  Graph.vertex array
(** The bounded traversal behind {!ball} and [Stats.ball_size]:
    [visit] sees every vertex of [N_r(srcs)] once, in BFS order, and
    [level] the number of vertices at each non-empty depth, nearest
    first.
    Returns [N_r(srcs)] in BFS order.  Tick-free and unrecorded, in
    the time and memory bounds of {!ball}.
    @raise Graph.Invalid_vertex on a source outside the graph.
    @raise Invalid_argument on a negative radius. *)

val eccentricity : ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex -> int
(** Largest finite distance from the vertex. *)

val within : ?budget:Guard.Budget.t -> Graph.t -> r:int -> Graph.vertex -> Graph.vertex -> bool
(** [within g ~r u v] iff [dist(u,v) <= r]: {!dist}'s search from [u],
    cut at the first vertex of depth [r] (which is ticked). *)
