(** Vertex-coloured graphs: the relational structures of the paper.

    A graph is a finite relational structure
    [G = (V(G), E(G), P_1(G), ..., P_c(G))] over a vocabulary
    [tau = {E, P_1, ..., P_c}] with [E] binary (symmetric, irreflexive) and
    the [P_i] unary ("colours").  Vertices are the integers
    [0 .. order g - 1].  Values of type {!t} are immutable; all operations
    that "modify" a graph return a new value (cheaply sharing adjacency
    arrays where possible). *)

type t
(** A vertex-coloured graph, stored in compressed-sparse-row form:
    adjacency is two flat Bigarray int vectors (row offsets and sorted
    targets) and each colour class carries a membership bitset, so
    neighbour scans are contiguous and colour tests are O(1). *)

type vertex = int
(** Vertices are dense integer identifiers [0 .. order g - 1]. *)

exception Invalid_vertex of int
(** Raised when a vertex id is outside [0 .. order g - 1]. *)

(** {1 Construction} *)

val create :
  n:int -> edges:(vertex * vertex) list -> colors:(string * vertex list) list -> t
(** [create ~n ~edges ~colors] builds a graph with [n] vertices, the given
    undirected edges (self-loops are rejected, duplicates are merged) and
    the given colour classes.  A colour may appear once only.
    @raise Invalid_vertex on an out-of-range endpoint.
    @raise Invalid_argument on a self-loop or duplicate colour name. *)

val of_adjacency : int list array -> (string * vertex list) list -> t
(** [of_adjacency adj colors] builds a graph from adjacency lists; the
    relation is symmetrised automatically. *)

(** {1 Basic accessors} *)

val order : t -> int
(** Number of vertices, [|V(G)|]. *)

val size : t -> int
(** Number of (undirected) edges, [|E(G)|]. *)

val vertices : t -> vertex list
(** All vertices in increasing order. *)

val neighbors : t -> vertex -> vertex array
(** Sorted array of neighbours.  The returned array must not be mutated.
    Materialises a fresh array from the CSR row; hot loops should prefer
    {!iter_neighbors} / {!fold_neighbors}, which scan the row in place. *)

val iter_neighbors : t -> vertex -> (vertex -> unit) -> unit
(** [iter_neighbors g v f] applies [f] to each neighbour of [v] in
    increasing order, without allocating. *)

val fold_neighbors : t -> vertex -> ('a -> vertex -> 'a) -> 'a -> 'a
(** [fold_neighbors g v f init] folds [f] over the neighbours of [v] in
    increasing order, without allocating. *)

val exists_neighbor : t -> vertex -> (vertex -> bool) -> bool
(** [exists_neighbor g v p] tests [p] on the neighbours of [v] in
    increasing order and stops at the first that satisfies it, without
    allocating.
    @raise Invalid_vertex if [v] is out of range. *)

val degree : t -> vertex -> int
(** Number of neighbours. *)

val max_degree : t -> int
(** Maximum degree over all vertices ([0] for the empty graph). *)

val mem_edge : t -> vertex -> vertex -> bool
(** Edge test in time [O(log degree)]. *)

val edges : t -> (vertex * vertex) list
(** All edges as pairs [(u, v)] with [u < v], lexicographically sorted. *)

(** {1 Colours} *)

val color_names : t -> string list
(** The unary predicates of the vocabulary, sorted by name. *)

val has_color : t -> string -> vertex -> bool
(** [has_color g c v] tests [v ∈ P_c(G)].  A colour absent from the
    vocabulary holds of no vertex. *)

val color_test : t -> string -> vertex -> bool
(** [color_test g c] resolves the colour [c] once and returns its O(1)
    bitset membership test — the staged form of {!has_color} used by
    compiled evaluators.  Partially apply it outside the hot loop. *)

val color_class : t -> string -> vertex list
(** All vertices of a colour (empty if the colour is unknown). *)

val colors_of : t -> vertex -> string list
(** Sorted list of the colours holding at a vertex. *)

val with_colors : t -> (string * vertex list) list -> t
(** Colour expansion (Section 2 of the paper): add fresh colour classes.
    @raise Invalid_argument if a colour already exists. *)

val restrict_vocabulary : t -> string list -> t
(** Keep only the listed colours (the [tau]-reduct on unary predicates). *)

(** {1 Comparison and printing} *)

val equal : t -> t -> bool
(** Structural equality: same order, same edge set, same colour classes. *)

val uid : t -> int
(** A process-unique identity for this value, fresh per construction
    (colour expansion and vocabulary restriction also refresh it).
    Lets formula-compilation caches key on graph identity without
    structural comparison; equal uids imply {!equal} graphs, never the
    converse. *)

val pp : Format.formatter -> t -> unit
(** Human-readable multi-line description. *)

val to_dot : ?name:string -> t -> string
(** GraphViz rendering (colours become vertex labels). *)

(** {1 Tuples of vertices}

    The learning problem classifies [k]-tuples of vertices; tuples are
    plain [int array]s. *)

module Tuple : sig
  type nonrec t = vertex array

  val equal : t -> t -> bool
  val compare : t -> t -> int
  val hash : t -> int
  val pp : Format.formatter -> t -> unit

  val append : t -> t -> t
  (** Concatenation [ū·v̄], used to extend example tuples by parameters. *)

  val all : n:int -> k:int -> t list
  (** All [n^k] tuples over [{0..n-1}], lexicographically.  [k = 0] gives
      the single empty tuple. *)

  val iter_all : n:int -> k:int -> (t -> unit) -> unit
  (** [iter_all ~n ~k f] applies [f] to the same [n^k] tuples in the
      same lexicographic order as {!all}, without materialising the
      list — so a resource budget can interrupt the enumeration
      part-way.  Each call receives a fresh array. *)

  val count : n:int -> k:int -> int option
  (** [Some (n^k)], or [None] if [n^k] overflows [int].  The domain of
      {!of_index}. *)

  val of_index : n:int -> k:int -> int -> t
  (** [of_index ~n ~k i] is the [i]-th tuple of the {!all} /
      {!iter_all} enumeration ([0 <= i < n^k], unchecked) — random
      access into the lexicographic order, so a chunked parallel sweep
      enumerates exactly the sequential candidate order. *)
end
