(** Exact empirical risk minimisation over [H_{k,ℓ,q}(G)]
    (Proposition 11 / Algorithm 1 of the paper).

    For every parameter tuple [w̄ ∈ V(G)^ℓ] (the [n^ℓ] factor of the
    proposition), the best quantifier-rank-[q] formula classifies examples
    by their [q]-type class of [v̄·w̄] (Corollary 6); the optimum for fixed
    [w̄] is therefore majority vote per type class.  This replaces
    Algorithm 1's "for all φ' ∈ Φ'" loop over the (tower-sized) normal-form
    catalogue by an equivalent exact computation — the substitution
    documented in DESIGN.md §5 — and returns a genuine witness formula
    (Hintikka disjunction) of quantifier rank [q].

    The result is an {e exact} minimiser: [err_Λ = ε*], not just
    [ε* + ε].

    With [tmax] the class is FOC's [H^C_{k,ℓ,q,tmax}(G)]: formulas of
    first-order logic with counting quantifiers [∃^{>=t}], [t <= tmax]
    (the extension the paper's conclusion proposes).  The sweep is the
    same, voting on the counting types at cap [tmax] ({!Modelcheck.Types.make_ctx}),
    and the witness is a counting Hintikka disjunction.  Counting
    strictly adds power at fixed rank: "degree at least 3" needs rank 3
    in plain FO but is [∃^{>=3} y. E(x, y)], rank 1, in FOC.  Since
    [∃^{>=1}] is [∃], [~tmax:1] is the plain class. *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;  (** the optimal training error [ε*] *)
  params_tried : int;  (** [n^ℓ], for the complexity experiments *)
}

val solve :
  ?pool:Par.Pool.t -> ?budget:Guard.Budget.t -> ?tmax:int ->
  Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result
(** Exact ERM.  Cost [O(n^ℓ · m)] type computations of rank [q] on
    [(k+ℓ)]-tuples.  The [n^ℓ] candidate tuples are swept by {!Sweep}:
    [pool] (default {!Par.default}) chunks the sweep, and the result is
    bit-identical to the sequential one.  The work is charged to
    [budget]; a trip unwinds to the caller's [Guard.run].
    @raise Invalid_argument if an example has arity other than [k], or
    if [tmax < 1]. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  ?tmax:int ->
  Graph.t -> k:int -> ell:int -> q:int -> Sample.t -> result Guard.outcome
(** {!solve} under a resource budget.  [Complete r] is exactly the
    unbudgeted result; on exhaustion, [best_so_far] is the best
    hypothesis among the candidates that finished evaluating (with its
    empirical error), or [None] if none did — still a sound hypothesis
    under the agnostic semantics, only without the min-error
    certificate.

    [ckpt] (default inert) threads a checkpoint controller; a resumed
    run is bit-identical to an uninterrupted one.  {!Sweep} states the
    salvage, [tried] and resume contracts.

    [precheck] (default [true]) runs the static admission precheck of
    {!Analysis.Plan} first: if the declared budget is provably below
    the sound lower bound for settling even one candidate, the call
    returns [Exhausted] immediately — same constructor an actual run
    would produce, but with zero fuel burnt.  Checkpoint-resumed runs
    skip the precheck so resume replays bit-identically.  Pass [false]
    (the CLI's [--no-precheck]) to always burn real fuel.  With [tmax]
    the run is judged as [Plan.Counting], whose model is brute's: a
    counting type costs the rows of the plain one. *)
