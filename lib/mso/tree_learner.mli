(** Learning MSO-definable hypotheses on trees (related work [19],
    Grienenberger–Ritzert ICDT 2019).

    The background structure is a tree; hypotheses classify nodes by MSO
    formulas with node parameters.  {!Node_oracle} is the preprocessing
    phase of [19] for single-variable concepts: one bottom-up pass
    computing the automaton state below every node and one top-down pass
    computing the acceptance behaviour of every node's context — after
    which classifying any node is O(1).

    The catalogue and the ERM loop are {!Learner}'s. *)

val solve :
  sigma:int ->
  tree:Tree.t ->
  catalogue:Learner.entry list ->
  (int array * bool) list ->
  Learner.result option
(** {!Learner.erm} over catalogue × parameter node tuples (naive O(n)
    evaluation per combination). *)

val predict : sigma:int -> tree:Tree.t -> Learner.result -> int array -> bool

(** {1 The preprocessing oracle for φ(x)} *)

module Node_oracle : sig
  type t

  val make : sigma:int -> Formula.t -> Tree.t -> t
  (** [make ~sigma phi tree] for a formula with exactly one free position
      variable.  Compiles the formula, then runs the two passes.
      @raise Invalid_argument if the formula is not unary. *)

  val holds : t -> int -> bool
  (** [holds o v]: does [phi(v)] hold?  O(1) after preprocessing. *)

  val states : t -> int
  (** Size of the compiled automaton. *)
end
