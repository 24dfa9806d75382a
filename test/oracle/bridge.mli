(** Bridge between the two logics of the repository: first-order logic
    over the coloured-graph encoding of a word ({!Mso.Word.to_graph}) and MSO
    over the word itself.

    Every FO formula over the word-graph vocabulary
    ([E], [L0..L(σ-1)], [First]) translates to an MSO formula over words
    with the same satisfying assignments — the glue identifying the
    paper's FO-over-structures setting with the strings setting of its
    related work [21] (checked as a QCheck property over random formulas
    and words). *)

exception Unsupported of string
(** Raised on counting quantifiers (MSO on words has no counting here)
    or colour predicates outside the word-graph vocabulary. *)

val mso_of_fo : sigma:int -> Fo.Formula.t -> Mso.Formula.t
(** Translate: [E(x,y) ↦ succ(x,y) ∨ succ(y,x)], [La(x) ↦ letter],
    [First(x) ↦ ¬∃p. succ(p,x)], quantifiers to position quantifiers.
    @raise Unsupported per above. *)
