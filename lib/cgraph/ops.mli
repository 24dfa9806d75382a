(** Graph surgery: induced subgraphs, disjoint unions, neighbourhood graphs.

    These are the structure-building operations used throughout the paper:
    induced subgraphs [G\[S\]], the neighbourhood graphs [N_r^G(ū)]
    (Section 2) and disjoint unions (hardness proof, Lemma 7).  The
    Lemma 16 projection builds its stage graphs itself ([Erm_nd]). *)

type embedding = {
  graph : Graph.t;  (** the derived graph *)
  to_sub : Graph.vertex -> Graph.vertex option;
      (** partial map from the original graph into the derived one *)
  of_sub : Graph.vertex -> Graph.vertex;
      (** total map from the derived graph back to the original *)
}
(** An induced subgraph together with its vertex correspondences. *)

val induced : Graph.t -> Graph.vertex list -> embedding
(** [induced g s] is [G\[S\]] (edges and colours restricted to [S]).
    Duplicates in [s] are merged; vertex order is preserved.  Costs
    [O(|S| · (log |S| + Δ + c))] for [c] colours, however large [g] and
    its colour classes are.
    @raise Graph.Invalid_vertex on a member outside the graph. *)

val disjoint_union : Graph.t list -> Graph.t * (int -> Graph.vertex -> Graph.vertex)
(** [disjoint_union gs] is the disjoint union; the returned function maps
    (index of component, vertex in that component) to the vertex in the
    union.  Colour classes with equal names are merged (their union is
    taken), as required by the copies construction in Lemma 7. *)

val copies : Graph.t -> int -> Graph.t * (int -> Graph.vertex -> Graph.vertex)
(** [copies g c] is the disjoint union of [c] copies of [g];
    the map sends (copy index, original vertex) to the union vertex. *)

val subgraph_of : Graph.t -> Graph.t -> bool
(** [subgraph_of h g]: is [h] a subgraph of [g] under the identity map
    (paper, Section 2: [V ⊆ V], [E ⊆ E], [P ⊆ P])? *)
