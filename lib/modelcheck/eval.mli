(** Direct recursive first-order model checking.

    This is the naive evaluator witnessing the XP data complexity of FO-MC
    (time [O(size(phi) * n^{qr + free})]).  It is the baseline of experiment
    E1 and the workhorse that all learning algorithms' hypothesis
    evaluations are checked against.

    Every entry point charges one [Eval_step] tick per quantifier-node
    visit to [budget] (default: none). *)

open Cgraph

type env = (Fo.Formula.var * Graph.vertex) list
(** Assignments of graph vertices to free variables. *)

exception Unbound_variable of Fo.Formula.var
(** Raised when the formula mentions a free variable missing from the
    environment. *)

val holds : ?budget:Guard.Budget.t -> Graph.t -> env -> Fo.Formula.t -> bool
(** [holds g env phi] decides [G |= phi\[env\]].
    @raise Unbound_variable on a free variable not assigned by [env]. *)

val sentence : ?budget:Guard.Budget.t -> Graph.t -> Fo.Formula.t -> bool
(** [sentence g phi] for sentences.
    @raise Unbound_variable if [phi] has free variables. *)

val holds_tuple :
  ?budget:Guard.Budget.t -> Graph.t -> vars:Fo.Formula.var list -> Graph.Tuple.t -> Fo.Formula.t -> bool
(** [holds_tuple g ~vars t phi] binds [vars] positionally to [t].
    @raise Invalid_argument on a length mismatch. *)

val answers : ?budget:Guard.Budget.t -> Graph.t -> vars:Fo.Formula.var list -> Fo.Formula.t -> Graph.Tuple.t list
(** The query answer: all [|vars|]-tuples satisfying [phi].  Tuples are in
    lexicographic order. *)

val count_answers : ?budget:Guard.Budget.t -> Graph.t -> vars:Fo.Formula.var list -> Fo.Formula.t -> int
(** [List.length (answers ...)] without materialising the list. *)
