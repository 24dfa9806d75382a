(** Precondition guards for library entry points.

    The ERM solvers, {!Hypothesis.of_formula}, the sample labellers and
    the Theorem 1 reduction all consume formulas and parameter budgets;
    [Precondition] lets them reject ill-formed inputs {e at the boundary} with
    the structured diagnostics of this library (rendered into the
    [Invalid_argument] payload) instead of failing deep inside type
    computation with a bare stack trace. *)

val require : what:string -> Diagnostic.t list -> unit
(** [require ~what ds]: if [ds] contains any [Error]-severity diagnostic,
    @raise Invalid_argument with [what] and every error rendered one per
    line.  Warnings and hints are ignored. *)

val budgets :
  ?ell:int -> ?q:int -> ?tmax:int -> ?radius:int -> k:int -> unit ->
  Diagnostic.t list
(** [invalid-parameter] diagnostics for out-of-range learning budgets:
    [k >= 1], [ell >= 0], [q >= 0], [tmax >= 1], [radius >= 0]. *)

val sample_arity : k:int -> int array list -> Diagnostic.t list
(** [arity-mismatch] diagnostics for example tuples whose arity differs
    from the declared [k] (one diagnostic per offending position). *)

val xyvars : k:int -> ell:int -> Fo.Formula.var list
(** The interface variables [x1..xk, y1..yℓ] of the class
    [H_{k,ℓ,q}]. *)

val hypothesis_formula :
  k:int -> ell:int -> ?q:int -> Fo.Formula.t -> Diagnostic.t list
(** Static check of a hypothesis formula [φ(x̄; ȳ)] against the
    interface variables {!xyvars} and (when given) the rank budget [q].
    Vocabulary conformance is deliberately {e not} checked here: the
    evaluator is open-world about colours ([Cgraph.Graph.has_color] is
    [false] for undeclared names), so undeclared colours are
    well-defined at runtime.  Use {!Fo_check.check} with a {!Vocab.t}
    for strict conformance (what [folearn_cli lint] does). *)

val sentence : Fo.Formula.t -> Diagnostic.t list
(** Check of a model-checking input: no free variables (same open-world
    caveat as {!hypothesis_formula}). *)
