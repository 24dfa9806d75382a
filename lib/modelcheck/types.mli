(** Canonical first-order types [tp_q(G, ū)] and local types
    [ltp_{q,r}(G, ū)] (paper, Section 2).

    A [q]-type is represented canonically and hash-consed: the type of a
    tuple is its atomic signature together with the {e set} of
    [(q-1)]-types of its one-point extensions,

    {v tp_q(G, ū)  ~  (atp(G, ū), { tp_{q-1}(G, ūw) | w ∈ V(G) }) v}

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

    A context memoises type computations for one graph; reuse it across
    calls for the same graph. *)

type ctx

val make_ctx : Graph.t -> ctx

val graph : ctx -> Graph.t

val tp : ctx -> q:int -> Graph.Tuple.t -> ty
(** [tp ctx ~q ū = tp_q(G, ū)].  Cost: [O(n^q)] extensions (memoised);
    keep [q] small. *)

val ltp : ctx -> q:int -> r:int -> Graph.Tuple.t -> ty
(** [ltp ctx ~q ~r ū = tp_q(N_r^G(ū), ū)]: the local [(q,r)]-type,
    computed in the induced neighbourhood graph.  Memoised. *)

val tp_graph : Graph.t -> q:int -> Graph.Tuple.t -> ty
(** One-shot [tp] without an explicit context. *)

val partition_by_tp : ctx -> q:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their [q]-type; classes ordered by first occurrence. *)

val partition_by_ltp :
  ctx -> q:int -> r:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by their local [(q,r)]-type. *)

val count_types : Graph.t -> q:int -> k:int -> int
(** Number of distinct [q]-types of [k]-tuples realised in the graph
    (experiment E8 statistic). *)

(** {1 Structure access (for Hintikka formulas)} *)

type atomsig = {
  sig_arity : int;
  eqs : (int * int) list;  (** positions [i < j] with [u_i = u_j] *)
  edgs : (int * int) list;  (** positions [i < j] with an edge *)
  cols : string list array;  (** per position: sorted colours holding *)
}
(** Atomic signature of a tuple: the quantifier-free type. *)

val atomic_signature : Graph.t -> Graph.Tuple.t -> atomsig

val hash_atomsig : int -> atomsig -> int
(** [hash_atomsig h sg] folds every field of [sg] into the running hash
    [h] (see {!Intern.mix}); the type registries hash their keys with
    it. *)

val node : ty -> atomsig * ty list option
(** Decompose a canonical type: its atomic signature, and [None] for rank 0
    or [Some children] (sorted, distinct [(q-1)]-types of the one-point
    extensions) for rank [>= 1]. *)

(** {1 Registry lifecycle}

    The hash-consing registry grows monotonically while in use (every
    distinct type ever interned stays live).  Long-running processes —
    the fleet worker in particular — reclaim it between work chunks. *)

type table_stats = { live : int  (** interned types *); bytes : int }

val table_stats : unit -> table_stats
(** Registry size; [bytes] is the estimate exported on the
    [modelcheck.types.table_bytes] gauge. *)

val reset_tables : unit -> unit
(** Empty the registry and invalidate all per-domain shards.  Every
    previously returned [ty] becomes stale (accessors raise).  Only
    call at a quiescent point with no live [ty] values — e.g. between
    fleet chunks, whose results carry only error counts. *)
