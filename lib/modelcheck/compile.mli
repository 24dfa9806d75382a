(** Staged first-order evaluation: compile a formula once, run it on
    many tuples.

    The reference walker in {!Eval} re-traverses the AST and rebuilds a
    string-keyed environment map on every call; for the learners, which
    evaluate the {e same} hypothesis formula across every sample tuple,
    that interpretive overhead dominates.  [compile] lowers a formula
    into a tree of closures over a flat int slot array — variables are
    resolved to array indices, colours to bitset tests — so a per-tuple
    evaluation does no name lookup and allocates only the slot array.

    A quantifier ranges over the whole graph order, except when its
    body is guarded by an edge atom to a variable [z] bound outside it
    ([z <> x], either orientation [E(z,x)] or [E(x,z)]):
    - [exists x. E(z,x) /\ rest] and [atleast t x. E(z,x) /\ rest],
      where the guard is the {e first} conjunct, and both with the
      bare body [E(z,x)];
    - [forall x. E(z,x) -> body].

    These loop over [z]'s sorted neighbour row instead, in [O(deg z)].
    The scan would test the guard first at every vertex and go on only
    where it holds, so the row loop reaches the same vertices in the
    same order.  The first witness, the short-circuit point, the count
    cut-off at [t], every inner quantifier visit and its tick all
    stay as they were.  So does the error for an out-of-range [z]
    ([Graph.Invalid_vertex], raised on a non-empty graph only).  A
    guard naming an unbound variable keeps the scan, and with it the
    lazy {!Unbound_variable}.

    Semantics, including evaluation order, short-circuiting, laziness
    of unbound-variable and invalid-vertex errors, [Guard.tick]
    checkpoints (one per quantifier-node visit) and the batched
    [modelcheck.eval.*] counters, match {!Eval.holds} exactly; the test
    suite pins compiled ≡ reference on random formulas, graphs and
    environments.

    A compiled value is immutable and safe to share across domains:
    each evaluation works on a caller-provided (or per-call) slot
    array. *)

open Cgraph

exception Unbound_variable of Fo.Formula.var
(** Same exception as {!Eval.Unbound_variable} (re-exported there):
    raised {e when the offending atom is reached}, not at compile time,
    matching the reference walker's laziness. *)

type t
(** A formula compiled against one graph and one free-variable list. *)

val compile : Graph.t -> vars:Fo.Formula.var list -> Fo.Formula.t -> t
(** [compile g ~vars f] stages [f] with free variables bound
    positionally to [vars].  Duplicate-name validation happens {e here},
    once, so the per-tuple path is check-free.
    @raise Invalid_argument on a duplicate variable in [vars]. *)

val compile_shadow : Graph.t -> vars:Fo.Formula.var list -> Fo.Formula.t -> t
(** Like {!compile} but a repeated variable name shadows (the last
    occurrence wins) — the iterated-map-insert semantics the
    {!Eval.answers} enumerators historically had. *)

val cached : Graph.t -> vars:Fo.Formula.var list -> Fo.Formula.t -> t
(** Memoising {!compile}: a per-domain bounded cache keyed on graph
    identity ({!Graph.uid}), variable list and formula.  Hits are
    counted on [modelcheck.compile.cache_hits].  Lock-free (the cache
    is domain-local). *)

(** {1 Running} *)

type counter = { mutable nodes : int; budget : Guard.Budget.t option }
(** One evaluation's state: its quantifier-node visits so far, and the
    budget each visit charges one [Eval_step] tick. *)

val counter : ?budget:Guard.Budget.t -> unit -> counter

val visit : counter -> unit
(** Count one quantifier-node visit and charge its tick. *)

val holds_tuple : ?budget:Guard.Budget.t -> t -> Graph.Tuple.t -> bool
(** [holds_tuple c ū] binds the compiled free variables positionally to
    [ū] and evaluates, charging [budget].  Counts one
    [modelcheck.eval.calls]; allocates a fresh slot array, so it is
    safe to call concurrently on a shared compiled value.
    @raise Invalid_argument on an arity mismatch. *)

val run : t -> int array -> counter -> bool
(** Low-level entry for enumerators: evaluate with a caller-owned slot
    array (length at least {!slots}; free variables already written at
    slots [0 .. arity-1]) and a caller-owned counter.  Records no
    counters; the caller flushes its node count with {!flush}. *)

val flush : counter -> unit
(** Add the counter's node visits to [modelcheck.eval.quantifier_nodes]
    and reset them. *)

(** {1 Inspection} *)

val graph : t -> Graph.t
val vars : t -> Fo.Formula.var list

val arity : t -> int
(** Number of free-variable slots, [List.length (vars t)]. *)

val slots : t -> int
(** Total slot count: arity plus one slot per quantifier nesting
    level. *)
