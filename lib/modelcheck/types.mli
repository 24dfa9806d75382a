(** Canonical first-order types [tp_q(G, ū)] and local types
    [ltp_{q,r}(G, ū)] (paper, Section 2), and their counting
    refinement for FOC, first-order logic with counting quantifiers
    [∃^{>=t} x. φ] (the extension the paper's conclusion proposes).

    A [q]-type is represented canonically and hash-consed: the type of a
    tuple is its atomic signature together with the {e set} of
    [(q-1)]-types of its one-point extensions,

    {v tp_q(G, ū)  ~  (atp(G, ū), { tp_{q-1}(G, ūw) | w ∈ V(G) }) v}

    A counting type at multiplicity cap [c] records, for each child,
    {e how many} extensions realise it, capped at [c]:

    {v ctp_q^c(G, ū) ~ (atp(G, ū), { θ ↦ min(c, #w with ctp(ūw) = θ) }) v}

    Two tuples get the same counting type iff they satisfy the same FOC
    formulas of rank [q] whose thresholds are at most [c].  Since
    [∃^{>=1}] is [∃], the types at cap 1 are the plain types: one
    engine computes both, and the cap is a property of the context
    ({!make_ctx}).

    Two tuples (possibly in different graphs over comparable vocabularies)
    get the same id iff they are [q]-equivalent — cross-checked against the
    independent EF-game implementation in the tests.  Canonical ids make
    types usable as hash keys, which is what the ERM algorithms need, and
    make them comparable across the projected graphs of Lemma 16.

    Vocabulary convention: the atomic signature records the {e positive}
    colour facts only, so two graphs are compared as structures over the
    union of their colour vocabularies. *)

open Cgraph

type ty = private int
(** Canonical type id.  Equal ids = equal types (within one process). *)

val equal : ty -> ty -> bool
val compare : ty -> ty -> int
val hash : ty -> int
val pp : Format.formatter -> ty -> unit

val rank : ty -> int
(** The quantifier rank [q] this type was computed at. *)

val arity : ty -> int
(** Number of free variables [k] of the type. *)

(** {1 Computing types}

    A context holds one graph's type computations: the types of the
    tuples {!tp} was asked for (a sample drawn with replacement repeats
    tuples), the local types of {!ltp}, and the leaf kernel's state
    ({!leaves}), which {!tp} and every {!ltp} miss share.  The nodes
    below a root are computed afresh every time, since a tuple [ū·w] is
    only reached from [ū].  Reuse a context across calls for the same
    graph.  A context charges its work to the [budget] it was made
    with (default: none), and computes the types at its multiplicity
    [cap] (default 1: the plain types).  Every type of one context has
    its cap; a type above cap 1 never equals a plain one. *)

type ctx

val make_ctx : ?budget:Guard.Budget.t -> ?cap:int -> Graph.t -> ctx
(** @raise Invalid_argument if [cap < 1]. *)

val tp : ctx -> q:int -> Graph.Tuple.t -> ty
(** [tp ctx ~q ū = tp_q(G, ū)].  Cost: [Σ_{j<=q} n^j] computed nodes,
    each counted on [modelcheck.types.tp_misses] and as one table row
    for the guard; a repeated [(q, ū)] is a hit
    ([modelcheck.types.tp_hits]).  Keep [q] small. *)

val ltp : ctx -> q:int -> r:int -> Graph.Tuple.t -> ty
(** [ltp ctx ~q ~r ū = tp_q(N_r^G(ū), ū)]: the local [(q,r)]-type,
    computed on the host graph over the ball: the quantifiers range
    over [Bfs.ball_tuple g ~r ū] in ascending order, which is the
    induced graph's own numbering, so the id and the work are those of
    {!tp} in a fresh context on [N_r^G(ū)].  No graph or context is
    built; a miss allocates [O(|ball|)].  Memoised ([ltp_hits] /
    [ltp_misses]).  A miss costs one [Hintikka_build] tick, the fuel of
    the ball, and [Σ_{j<=q} |ball|^j] nodes counted as {!tp} counts
    them, with the table rows of each miss counted from 0. *)

val tp_graph : Graph.t -> q:int -> Graph.Tuple.t -> ty
(** One-shot [tp] without an explicit context. *)

val partition_by_tp : ctx -> q:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their [q]-type; classes ordered by first occurrence. *)

val partition_by_ltp :
  ctx -> q:int -> r:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their local [(q,r)]-type. *)

val count_types : ?cap:int -> Graph.t -> q:int -> k:int -> int
(** Number of distinct [q]-types at [cap] (default 1) of [k]-tuples
    realised in the graph (experiment E8 statistic). *)

(** {1 Structure access (for Hintikka formulas)} *)

type atomsig = {
  sig_arity : int;
  eqs : (int * int) list;  (** positions [i < j] with [u_i = u_j] *)
  edgs : (int * int) list;  (** positions [i < j] with an edge *)
  cols : string list array;  (** per position: sorted colours holding *)
}
(** Atomic signature of a tuple: the quantifier-free type. *)

val atomic_signature : Graph.t -> Graph.Tuple.t -> atomsig

val leaf : ?cap:int -> atomsig -> ty
(** The rank-0 type with this atomic signature at [cap] (default 1):
    [tp ~q:0] of any tuple that has it, in a context of that cap. *)

(** {1 Leaf kernel}

    Rank-1 nodes dominate the cost: each has one rank-0 child [ū·w]
    per vertex [w] its quantifier ranges over.  The signature of [ū·w]
    is fixed by the signature of [ū], the positions [i] with
    [u_i = w], the positions with [E(u_i, w)], and [w]'s colours.  So a
    child is a lookup under that key, and a signature is built and
    interned once per parent signature and key. *)

type leaves
(** Per-graph state for {!extend}: the numbering of colour classes and
    the children found so far, shared by every {!range} made from it.
    Building it allocates nothing sized by the graph.  Not safe to
    share between domains. *)

val leaves : Graph.t -> leaves

type range
(** The vertices one computation's quantifiers range over, numbered by
    position: the whole graph ({!whole}, position = vertex) or a ball
    ({!ltp}'s, in ascending order).  A range holds the class of each of
    its vertices and one mark word per vertex, so its state is sized by
    the range: a ball's by the ball, never by [Graph.order]. *)

val whole : leaves -> range
(** The range of every vertex of the graph, built once per [leaves]. *)

val extend :
  range -> (atomsig -> int) -> atomsig -> Graph.Tuple.t ->
  ((int -> int) -> unit) -> (int * int) list
(** [extend rg mk sg ū visit], where [sg] is [atomic_signature g ū],
    calls [visit child], where [child i] is
    [mk (atomic_signature g (ū·w))] for the vertex [w] at position [i]
    of [rg] ([0 <= i <] its size).  An edge from [ū] to a vertex outside
    [rg] is not seen, so over a ball that holds [ū] the children are
    those of the induced subgraph.  [mk] is called only on the first
    [w], over the calls on ranges of one [leaves] with signature [sg],
    that has its key; so one [leaves] takes one [mk].  It returns the distinct ids
    [child] returned, sorted, each with the number of calls that
    returned it.
    @raise Invalid_argument if the key of [ū] does not fit in an int
    (twice its arity plus the bits of a colour-class id reach
    [Sys.int_size]). *)

val node : ty -> atomsig * ty list option
(** Decompose a canonical type: its atomic signature, and [None] for rank 0
    or [Some children] (sorted, distinct [(q-1)]-types of the one-point
    extensions) for rank [>= 1]. *)

val counted : ty -> int * (ty * int) list option
(** [counted θ = (c, children)]: the cap [θ] was computed at, and
    [None] at rank 0 or the children of {!node}, each with the number
    of one-point extensions that realise it, capped at [c] (so [1] at
    cap 1). *)

(** {1 Registry lifecycle}

    The hash-consing registry grows monotonically while in use (every
    distinct type ever interned stays live).  A process that runs many
    independent workloads (the bench harness, the test suite) can
    reclaim it between them. *)

type table_stats = { live : int  (** interned types *); bytes : int }

val table_stats : unit -> table_stats
(** Registry size; [bytes] is the estimate exported on the
    [modelcheck.types.table_bytes] gauge. *)

val reset_tables : unit -> unit
(** Empty the registry and invalidate all per-domain shards.  Every
    previously returned [ty] becomes stale (accessors raise).  Only
    call at a quiescent point with no live [ty] values — e.g. between
    two runs whose results are already printed. *)
