(** MSO on labelled trees (arity ≤ 2): the tree instance of the
    {!Formula} skeletons, compiled to bottom-up tree automata — the
    Thatcher–Wright counterpart of the word instance, and the concept
    language of the paper's related work [19].

    Formulas are {!Formula.t} with the tree atoms [Child1]/[Child2]
    ([Less] and [Succ] are word atoms and raise [Invalid_argument]).
    Positions are preorder node ids of a {!Tree.t}. *)

val eval : tree:Tree.t -> Formula.assignment -> Formula.t -> bool
(** Direct reference semantics (set quantifiers enumerate all subsets:
    small trees only). *)

val compile :
  sigma:int -> scope:(Formula.var * Formula.kind) list -> Formula.t ->
  Automaton.t
(** {!Formula.Compile.compile} on trees: a tree automaton over the track
    alphabet [sigma * 2^|scope|] (label [a] with mark bitmask [m]
    encoded as [a + sigma * m]). *)

val holds_compiled :
  sigma:int -> scope:(Formula.var * Formula.kind) list -> Automaton.t ->
  Tree.t -> Formula.assignment -> bool
(** {!Formula.Compile.holds_compiled} on trees. *)
