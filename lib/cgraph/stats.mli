(** Cheap structure statistics for static cost planning.

    The static analyzer ([Analysis.Cost_model] / [Analysis.Plan])
    instantiates the paper's parameterized cost bounds against a handful
    of measured quantities of the input structure: order, size, the
    degree histogram, colour-class cardinalities, and (optionally) exact
    ball sizes around the example roots.

    Everything in this module is deliberately {e tick-free}: unlike
    {!Bfs}, the traversals here never call [Guard.tick]/[note_ball], so
    probing a structure for planning purposes cannot consume fuel or
    trip a cap.  {!probe} runs in [O(n + m)];
    {!ball_size} in [O(|N_r| · Δ)], independent of [n]. *)

type t = {
  order : int;  (** [n = |V(G)|] *)
  size : int;  (** [m = |E(G)|] *)
  max_degree : int;  (** [Δ(G)]; bounded-degree ball envelopes use this *)
  degree_histogram : (int * int) list;
      (** [(d, count)] pairs, increasing in [d], counts summing to [n] *)
  color_counts : (string * int) list;
      (** cardinality of every colour class, sorted by colour name *)
  component_count : int;  (** number of connected components *)
  largest_component : int;  (** order of the largest component ([0] iff [n = 0]) *)
  smallest_component : int;  (** order of the smallest component ([0] iff [n = 0]) *)
}

val probe : Graph.t -> t
(** Measure the whole structure in [O(n + m)]. *)

val ball_size : Graph.t -> r:int -> Graph.vertex list -> int
(** [ball_size g ~r srcs = |N_r(srcs)|], the exact size of the
    [r]-neighbourhood, by the same bounded traversal as {!Bfs.ball} —
    tick-free, where [Bfs.ball] spends exactly [|N_r(srcs)|] ticks plus
    one for [Guard.note_ball], which is what makes ball fuel statically
    predictable.
    @raise Graph.Invalid_vertex on a source outside the graph. *)

val to_json : t -> Obs.Json.t
