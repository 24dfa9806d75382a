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
    make them comparable across the projected graphs of Lemma 16.  An
    id is only that key: output orders types by {!compare}.

    Vocabulary convention: the atomic signature records the {e positive}
    colour facts only, so two graphs are compared as structures over the
    union of their colour vocabularies. *)

open Cgraph

type ty = private int
(** Canonical type id.  Equal ids = equal types (within one process). *)

val equal : ty -> ty -> bool
val hash : ty -> int

val pp : Format.formatter -> ty -> unit
(** [#id], the registry id, which depends on intern order: for
    debugging. *)

val compare : ty -> ty -> int
(** The structural order: the atomic signature, then the cap, then the
    children with their counts, compared recursively (a leaf first).
    It never reads an id, so it does not depend on what was interned
    before; printed conjuncts, disjuncts and [types] numbers follow it.
    Each call sorts afresh the children it compares. *)

val order : unit -> ty -> ty -> int
(** {!compare} with a memo of the sorted children, for one output call
    (a sort, a Hintikka build); nothing is stored in the registry. *)

val rank : ty -> int
(** The quantifier rank [q] this type was computed at. *)

val arity : ty -> int
(** Number of free variables [k] of the type. *)

(** {1 Computing types}

    A context holds one graph's type computations: the local types of
    {!ltp}, memoised, and the leaf kernel's state (see below), which
    {!tp} and every {!ltp} miss share.  {!tp} keeps no memo: the nodes
    below a root are only reached from it, and a caller that repeats
    tuples (a sweep over a sample drawn with replacement) memoises them
    per candidate ({!with_candidate}).  Reuse a context across calls for
    the same graph.  A context charges its work to the [budget] it was
    made with (default: none), and computes the types at its
    multiplicity [cap] (default 1: the plain types).  Every type of one
    context has its cap; a type above cap 1 never equals a plain one. *)

type ctx

val make_ctx : ?budget:Guard.Budget.t -> ?cap:int -> Graph.t -> ctx
(** @raise Invalid_argument if [cap < 1]. *)

val tp : ctx -> q:int -> Graph.Tuple.t -> ty
(** [tp ctx ~q ū = tp_q(G, ū)].  Rows: [Σ_{j<=q} n^j] computed nodes,
    each counted on [modelcheck.types.tp_misses] and as one table row
    for the guard.  Time: every rank-1 node costs
    [O(deg + distinct keys)], not [O(n)] (see the leaf kernel below),
    so at [q = 2] a root's [1 + n + n^2] rows take [O(n · (Δ + keys))]
    time.  Keep [q] small.
    @raise Invalid_argument if [q < 0], or if [q >= 1] and the key of a
    rank-1 node does not fit in an int (twice its arity plus the bits
    of a colour-class id reach [Sys.int_size]). *)

val with_candidate :
  ctx -> q:int -> Graph.Tuple.t -> ((Graph.Tuple.t -> ty) -> 'a) -> 'a
(** [with_candidate ctx ~q w̄ f] is [f tp], where [tp v̄] is
    [tp ctx ~q (v̄·w̄)] with the same rows and trip points, memoised for
    this call: a repeated [v̄] is a hit ([modelcheck.types.tp_hits]).
    For an ERM sweep, which types every example under one candidate
    [w̄] at a time.  At [q = 1] it opens [w̄] once for [f]'s whole call,
    and the root [v·w̄] of an example of arity 1 is derived from it in
    [O(deg v + distinct keys)] (see the leaf kernel below). *)

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

(** {1 Local types of far pairs}

    When [dist(v̄, w̄) > 2r+1] the balls [N_r(v̄)] and [N_r(w̄)] are
    disjoint and no edge joins them, so [ltp(v̄·w̄)] is a function of
    [ltp(v̄)] and [ltp(w̄)] (Fact 5, Cor 6, Feferman–Vaught).  It is
    composed on the type trees: a child of the union extends one part,
    so it is a child of that part's type composed with the other part's
    type one rank lower, the counts of equal children summed and capped
    again.  So it holds at every rank and cap, and the composed id is
    the id {!ltp} computes. *)

type examples
(** The example side of an ERM solve, typed once: each tuple's local
    type and its sorted [(2r+1)]-ball. *)

val local_examples :
  ctx -> q:int -> r:int -> ?far:bool -> Graph.Tuple.t list -> examples
(** [local_examples ctx ~q ~r tuples] types each distinct tuple by
    {!ltp} and, unless [far] is [false] (default [true]), builds its
    [(2r+1)]-ball, charged as {!Bfs.ball_tuple} charges it.  Build it
    once per solve, before the sweep, so that its work does not depend
    on how the sweep is split.  Without the balls, no pair with one of
    these tuples is composed: pass [~far:false] when every candidate is
    empty. *)

val with_local_candidate :
  ctx ->
  ?examples:examples ->
  q:int ->
  r:int ->
  Graph.Tuple.t ->
  ((Graph.Tuple.t -> ty) -> 'a) ->
  'a
(** [with_local_candidate ctx ?examples ~q ~r w̄ f] is [f ltp_w], where
    [ltp_w v̄ = ltp ctx ~q ~r (v̄·w̄)] with the same id.
    - An empty [w̄] answers [ltp v̄]: from [examples] when it holds [v̄],
      at no cost.
    - A far [v̄] (no entry of [w̄] in [v̄]'s [(2r+1)]-ball, or with [v̄]
      not in [examples], no entry of [v̄] in [w̄]'s ball, built once per
      call) is composed from [ltp v̄] and [ltp w̄].  [ltp w̄] is computed
      on the first far [v̄], once per context, and costs what an {!ltp}
      miss costs; it is memoised apart from {!ltp}'s tuples, so a
      candidate is never a hit on some pair's key.  A composition
      charges nothing.  It is memoised per pair of type ids and layout
      in the context, so a repeated pair is a lookup; a new one visits
      each pair of nodes of the two type DAGs at most once (at [q = 1],
      their children: linear).  Each composed [v̄] is counted on
      [modelcheck.types.ltp_composed].
    - A near [v̄] is {!ltp} of [v̄·w̄].
    Nothing is released when [f] returns: [f] may return [ltp_w] itself.
    @raise Invalid_argument if [examples] were typed at another [q], [r]
    or cap than [ctx]'s. *)

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

    No rank-1 node is scanned.  Each puts a vertex [x] at a fixed
    position (the hole) of a tuple [ū] opened once: the children [ū·x]
    of a rank-2 node (the hole at the end), the roots [x·w̄] of a sweep
    candidate ({!with_candidate}, the hole at the front), and any other
    rank-1 node [ū·x] (the roots of {!tp} and {!ltp}: [ū] opened with the
    hole at the end).  Its leaves differ from [ū]'s marks only on
    [N\[x\]], so they are read off counts in [O(deg x + distinct keys)],
    each interned from its key (the parent's signature, which entries
    equal or neighbour [w], and [w]'s colour class).  The empty tuple's
    leaves are the colour classes.  Every node charges the [1 + n] rows
    of itself and its leaves ({!Guard.note_table_rows}). *)

val node : ty -> atomsig * ty list option
(** Decompose a canonical type: its atomic signature, and [None] for rank 0
    or [Some children] (the distinct [(q-1)]-types of the one-point
    extensions, in id order; sort them with {!compare} for the
    structural order) for rank [>= 1]. *)

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
