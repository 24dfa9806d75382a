(** Static analysis of MSO formulas ({!Mso.Formula.t}, over words and
    trees alike) producing the same {!Diagnostic.t}s as {!Fo_check}, so
    the CLI and the learners report uniformly across the FO and MSO
    pipelines.

    Rules: [kind-clash], [unknown-letter] (when [sigma] is given),
    [unbound-variable] (when [allowed_free] is given), [shadowed-binder],
    [vacuous-quantifier], [rank-over-budget] (position {e and} set
    quantifiers both count), and the simplification hints
    [double-negation], [duplicate-junct], [constant-junct]. *)

val check :
  ?sigma:int ->
  ?allowed_free:string list ->
  ?max_rank:int ->
  Mso.Formula.t ->
  Diagnostic.t list
