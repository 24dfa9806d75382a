(** The hardness reduction: FO model checking via an ERM oracle
    (Theorem 1 / Lemma 7 of the paper).

    Given oracle access to [(L,Q)]-FO-ERM, the reduction decides
    [G |= φ] in fpt time.  For a sentence [∃x ψ(x)] it:

    + queries the oracle on every pair [Λ = ((u,0), (v,1))] with
      [k = 1, ℓ* = 0, q* = qr(ψ), ε = 1/4], obtaining formulas
      [γ_{u,v}] that provably separate [u] from [v] whenever their
      [qr(ψ)]-types differ (Claim 8);
    + uses the [γ]s as a Ramsey colouring: repeatedly removing the middle
      vertex of a monochromatic triple (Claim 9) shrinks [V(G)] to a set
      [T] of type representatives of size bounded by [R(2, s, 3)];
    + for each [t ∈ T], rewrites [ψ(x)] into a {e sentence} [ψ_t] over the
      expansion [G_t] with fresh colours [P_t = {t}], [Q_t = N(t)]
      (replacing [x = y ↦ P_t(y)], [E(x, y) ↦ Q_t(y)]) and recurses.

    When the oracle may use parameters ([L(1,0,q) > 0]), Claim 8 fails as
    stated and the reduction runs the paper's general construction: the
    disjoint union [Ĝ] of [2ℓ] copies of [G], a training sequence with one
    [(u,v)] pair per copy, locating a copy that is neither {e covered} by
    a parameter nor {e wrong}, and erasing the parameters from an
    [r']-localised rewriting of the returned hypothesis ([φ' → φ'' →
    φ''']).  Enable it with [general_l:true]. *)

open Cgraph

type oracle =
  ?budget:Guard.Budget.t ->
  Graph.t -> Sample.t -> ell:int -> q:int -> eps:float -> Hypothesis.t
(** An [(L,Q)]-FO-ERM oracle for [k = 1]: may return a hypothesis with at
    most [ell] parameters and rank at most the oracle's own [Q] bound.
    The reduction passes its budget, for the oracle to charge. *)

val exact_oracle : oracle
(** The exact ERM solver ({!Erm_brute}) as oracle — sound for both modes
    (it honours [ℓ] exactly, so Claim 8 applies with [general_l:false]). *)

type gamma = {
  g_sig : string;  (** canonical identity, used as the Ramsey colour *)
  g_holds : Graph.vertex -> bool;  (** the classifier evaluated on [G] *)
}
(** A separating classifier [γ_{u,v}] produced by the general-[L]
    construction: semantically, the paper's [φ'''] — an [r']-local,
    parameter-free formula represented as a set of canonical local types
    (materialisable as a relativised Hintikka disjunction). *)

val gamma_general :
  ?counter:int ref ->
  ?budget:Guard.Budget.t ->
  oracle:oracle ->
  oracle_ell:int ->
  radius:int ->
  q:int ->
  Graph.t ->
  Graph.vertex ->
  Graph.vertex ->
  unit ->
  gamma
(** One run of the disjoint-copies construction for the pair [(u, v)].
    Guarantee (Claim 8, general form): if [tp_q(G, u) ≠ tp_q(G, v)], then
    [g_holds u = false] and [g_holds v = true].  [counter] accumulates
    oracle calls. *)

type stats = {
  oracle_calls : int;
  recursion_nodes : int;  (** sentences model-checked, incl. the root *)
  representative_sets : int list;
      (** [|T|] at each existential node, in visit order *)
  colors_observed : int;  (** max distinct oracle answers at any node *)
}

val model_check :
  ?general_l:bool ->
  ?oracle_ell:int ->
  ?locality_radius:int ->
  ?budget:Guard.Budget.t ->
  oracle:oracle ->
  Graph.t ->
  Fo.Formula.t ->
  bool * stats
(** Decide [G |= φ] using only ERM-oracle calls (plus trivial boolean
    glue).  [φ] must be a sentence.  With [general_l:true], [oracle_ell]
    (default 1) is the parameter allowance [L] granted to the oracle and
    [locality_radius] overrides the Gaifman radius used for the localised
    rewriting (DESIGN.md §5; the rewriting is {e verified} against the
    non-local formula on [Ĝ'] and the radius grown until equivalent, so
    the answer stays sound at any starting radius).
    @raise Invalid_argument if [φ] has free variables. *)

val model_check_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?general_l:bool ->
  ?oracle_ell:int ->
  ?locality_radius:int ->
  oracle:oracle ->
  Graph.t ->
  Fo.Formula.t ->
  (bool * stats) Guard.outcome
(** {!model_check} under a resource budget.  A decision procedure has
    no partial verdict, so [best_so_far] is always [None] on
    exhaustion; the outcome still carries the trip reason and the
    resources spent.

    [precheck] (default [true]) first compares the fuel limit against
    {!Analysis.Plan.model_check_floor} — the structural minimum number
    of solver-loop ticks any completed run must spend, independent of
    the oracle.  A provably insufficient budget returns [Exhausted]
    immediately with zero fuel burnt; pass [false] to bypass. *)
