(** Exact ERM over first-order logic {e with counting} — the extension the
    paper's conclusion proposes ("extend our results to richer logics …
    such as the extensions of first-order logic with counting").

    The hypothesis class [H^C_{k,ℓ,q,tmax}(G)] consists of all
    [h_{φ,w̄}] where [φ] is an FOC formula of quantifier rank [q] whose
    counting thresholds are at most [tmax].  The solver mirrors
    {!Erm_brute}: for every parameter tuple, the optimal classifier is
    majority vote per counting-type class ({!Modelcheck.Ctypes}), and the
    witness formula is a disjunction of counting Hintikka formulas.

    Counting strictly increases expressive power at fixed rank: "degree at
    least 3" needs rank 3 in plain FO but is [∃^{>=3} y. E(x, y)] — rank 1
    — in FOC (exercised by E10 and the test suite). *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  err : float;  (** the optimal training error over the counting class *)
  params_tried : int;
}

val solve :
  ?pool:Par.Pool.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> result
(** Exact counting ERM.  [pool] (default {!Par.default}) chunks the
    {!Sweep} with results bit-identical to sequential.
    @raise Invalid_argument on arity mismatch or [tmax < 1]. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t ->
  result Guard.outcome
(** {!solve} under a resource budget; see {!Erm_brute.solve_budgeted}
    for the [precheck] (static admission) contract and {!Sweep} for the
    [best_so_far], [tried] and [ckpt] (checkpoint/resume) ones. *)

val optimal_error :
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> float
