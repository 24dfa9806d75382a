(** Canonical counting types — the FOC extension proposed in the paper's
    conclusion (first-order logic with counting quantifiers
    [∃^{>=t} x. φ]; cf. van Bergerem, LICS 2019).

    The counting [q]-type with threshold cap [tmax] of a tuple records the
    atomic signature together with, for each distinct counting
    [(q-1)]-type of the one-point extensions, {e how many} extensions
    realise it — capped at [tmax]:

    {v ctp_q^tmax(G, ū) ~ (atp(G, ū), { θ ↦ min(tmax, #w with ctp(ūw)=θ) }) v}

    Two tuples get the same id iff they satisfy the same FOC formulas of
    quantifier rank [q] whose thresholds are at most [tmax].  At
    [tmax = 1] counting types coincide with the plain types of {!Types}
    (multiplicity collapses to membership — tested in the suite). *)

open Cgraph

type ty = private int
(** Canonical counting-type id (separate id space from {!Types.ty}). *)

val equal : ty -> ty -> bool
val compare : ty -> ty -> int
val hash : ty -> int
val pp : Format.formatter -> ty -> unit

val rank : ty -> int
val arity : ty -> int

type ctx

val make_ctx : ?budget:Guard.Budget.t -> Graph.t -> ctx

val ctp : ctx -> q:int -> tmax:int -> Graph.Tuple.t -> ty
(** [ctp ctx ~q ~tmax ū]: the counting [q]-type with thresholds up to
    [tmax].  The context remembers the tuples [ctp] was asked for; the
    nodes below them are computed afresh, with {!Types.extend} at
    rank 1.  @raise Invalid_argument if [tmax < 1]. *)

val leaf : Types.atomsig -> ty
(** The rank-0 counting type with this atomic signature: [ctp ~q:0]
    of any tuple that has it. *)

val cltp : ctx -> q:int -> tmax:int -> r:int -> Graph.Tuple.t -> ty
(** Local counting type: [ctp] of the tuple in its induced
    [r]-neighbourhood graph, computed as {!Types.ltp} computes a local
    type: on the host graph, with the quantifiers ranging over the
    ascending ball, sharing the context's leaf kernel, so no graph or
    context is built per miss.  The id and the ball's fuel are those of
    [ctp] in a fresh context on [N_r^G(ū)].  Memoised.
    @raise Invalid_argument if [r < 0] or [tmax < 1]. *)

val partition : ctx -> q:int -> tmax:int -> Graph.Tuple.t list -> (ty * Graph.Tuple.t list) list
(** Group tuples by counting type (first-occurrence class order). *)

val count_types : Graph.t -> q:int -> tmax:int -> k:int -> int
(** Number of distinct counting types of [k]-tuples realised. *)

val node : ty -> Types.atomsig * (ty * int) list option
(** Decompose: atomic signature, and [None] (rank 0) or the sorted list of
    (child counting type, capped multiplicity) pairs. *)

val hintikka : colors:string list -> tmax:int -> ty -> Fo.Formula.t
(** The counting Hintikka formula of a type: for every graph [H] over a
    sub-vocabulary of [colors] and tuple [v̄],
    [H |= hintikka θ (v̄)  iff  ctp(H, v̄) = θ].  Uses [atleast]
    quantifiers; quantifier rank is exactly the rank of the type.
    Built as {!Hintikka.of_type} is: each node's formula once, shared
    by its occurrences.
    @raise Invalid_argument if [θ] mentions a colour outside [colors]. *)

val hintikka_of_types :
  ?vars:Fo.Formula.var list -> colors:string list -> tmax:int -> ty list -> Fo.Formula.t
(** Disjunction of the counting Hintikka formulas of one build (nodes
    shared between roots are built once); [vars] names the roots' free
    variables as in {!Hintikka.of_types}.
    @raise Invalid_argument if a root's arity is not the length of
    [vars]. *)

(** {1 Registry lifecycle} *)

type table_stats = { live : int  (** interned types *); bytes : int }

val table_stats : unit -> table_stats
(** Registry size; [bytes] matches the [modelcheck.ctypes.table_bytes]
    gauge. *)

val reset_tables : unit -> unit
(** Empty the registry and invalidate all per-domain shards; see
    {!Types.reset_tables} for the quiescence contract. *)
