(** The realisable one-dimensional learner
    (Proposition 12 / Algorithm 2 of the paper).

    Setting: [k = 1], and the promise that some hypothesis in
    [H_{1,ℓ,q}(G)] is consistent with the training sequence.  The
    algorithm fixes the parameters [w_1, ..., w_ℓ] one at a time: a prefix
    is kept iff a single model-checking call on a colour expansion of [G]
    (colours [S_j] for the chosen prefix, [P_+]/[P_-] for the examples)
    certifies that it extends to a fully consistent parameter tuple —
    the sentence

    {v exists y_{i+1}.. y_ℓ. forall x.
         (P_+(x) -> φ_i) /\ (P_-(x) -> ~φ_i) v}

    where [φ_i] existentially closes the already-fixed prefix through the
    [S_j] colours.

    The catalogue [Φ'] of candidate formulas is an explicit argument — the
    paper iterates over the full (tower-sized) normal-form catalogue; see
    DESIGN.md §5. *)

open Cgraph

type result = {
  hypothesis : Hypothesis.t;
  mc_calls : int;  (** model-checking oracle calls performed *)
  formulas_tried : int;
}

val solve :
  ?budget:Guard.Budget.t ->
  Graph.t ->
  ell:int ->
  catalogue:Fo.Formula.t list ->
  Sample.t ->
  result option
(** [solve g ~ell ~catalogue lam] returns the first catalogue formula
    (free variables among [x1, y1..yℓ]) admitting a consistent parameter
    setting, with the parameters found — or [None] ("reject") when no
    catalogue formula is consistent.  The returned hypothesis has training
    error 0 whenever the promise holds for some catalogue member.  The
    scan is charged to [budget].
    @raise Invalid_argument if examples are not 1-tuples or a catalogue
    formula has stray free variables. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  Graph.t ->
  ell:int ->
  catalogue:Fo.Formula.t list ->
  Sample.t ->
  result option Guard.outcome
(** {!solve} under a resource budget.  The scan keeps no partial state,
    so on exhaustion [best_so_far] is always [None] — the caller knows
    only that no catalogue formula was certified before the trip. *)
