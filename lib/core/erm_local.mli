(** Sublinear-time local learning — the predecessor result the paper
    builds on (Grohe & Ritzert, LICS 2017: on structures of maximum
    degree [d], ERM for first-order definable hypotheses runs in time
    polynomial in [d] and the number [m] of examples, {e independently of
    the size of the background structure}).

    The engine is Gaifman locality.  A hypothesis classifies by the local
    type [ltp_{q,r}(G, v̄·w̄)].  A parameter [w] {e far} from every
    example (distance [> 2r+1]) contributes the same disconnected piece
    to every example's local type, so the classifier it induces on the
    sample is already induced by the same hypothesis with that parameter
    dropped.  Hence the optimum over all of [V(G)^ℓ] is attained with
    parameters from the pool [N_{2r+1}(examples)] and at most [ℓ] of
    them — a set whose size depends only on [d, k, m, r], not on [n].

    The solver explores exactly that pool, touching only
    [N_{3r+2}(example entries)]; {!result.vertices_touched} certifies the
    sublinear access pattern (experiment E11). *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;
      (** optimal training error over local-type hypotheses with up to
          [ℓ] parameters *)
  pool_size : int;  (** candidate parameters considered *)
  params_tried : int;  (** parameter tuples evaluated (≤ Σ pool^j) *)
  vertices_touched : int;
      (** distinct vertices the algorithm ever accessed — compare with
          [Graph.order g] *)
}

val solve :
  ?pool:Par.Pool.t ->
  ?radius:int -> Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result
(** [solve g ~k ~ell ~q lam].  [radius] defaults to
    [Fo.Gaifman.radius q].  The returned error satisfies: for {e every}
    [w̄ ∈ V(G)^{ℓ'}, ℓ' <= ℓ] and every set [Θ] of local types,
    [err <= err_Λ(v̄ ↦ ltp_{q,r}(v̄·w̄) ∈ Θ)] (tested exhaustively in the
    suite).
    @raise Invalid_argument on arity mismatch. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?radius:int ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result Guard.outcome
(** {!solve} under a resource budget.  [Complete r] is exactly the
    unbudgeted result; on exhaustion, [best_so_far] is the best
    hypothesis among the parameter tuples that finished evaluating, or
    [None] if the run tripped before any did (e.g. while building the
    candidate pool).  The candidates form one index space, counting
    through the tuple lengths [j = 0..ell] in enumeration order, swept
    by {!Sweep}: [pool] chunks it, and [ckpt] threads a checkpoint
    controller over that index (see {!Sweep} for the salvage, [tried]
    and resume contracts).  [precheck] (default [true]) gates the call
    through the static admission precheck of {!Analysis.Plan}; see
    {!Erm_brute.solve_budgeted}. *)
