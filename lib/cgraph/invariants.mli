(** Graph invariants used to characterise workload classes. *)

val components : Graph.t -> Graph.vertex list list
(** Connected components, each sorted, ordered by smallest member. *)

val is_connected : Graph.t -> bool
(** True for graphs with at most one component. *)

val isolated_vertices : Graph.t -> Graph.vertex list
(** Vertices of degree 0. *)

val degeneracy : Graph.t -> int
(** The degeneracy (smallest [d] such that every subgraph has a vertex of
    degree at most [d]); a standard sparseness measure — nowhere dense
    classes of bounded degeneracy include all our sparse generators. *)

val is_forest : Graph.t -> bool
(** True iff the graph is acyclic. *)

val diameter : ?budget:Guard.Budget.t -> Graph.t -> int
(** Largest finite eccentricity (0 for the empty graph). *)

val treewidth_exact : ?cap:int -> Graph.t -> int option
(** Exact treewidth by the Bodlaender–Fomin–Koster subset dynamic program
    over elimination orderings ([O(2^n poly)]): [None] if the order
    exceeds [cap] (default 16).  Ground truth for the generator tests
    ([Gen.ktree ~k] has treewidth exactly [k]). *)

val treedepth_upper_bound : Graph.t -> int
(** A cheap upper bound on treedepth: for forests the exact centroid-based
    recursion; otherwise [order].  Used to seed splitter-game budgets. *)
