(** Hintikka formulas: the defining formulas of canonical types.

    For a [q]-type [θ] of arity [k] over a colour vocabulary [C], the
    Hintikka formula [hin_θ(x_1, ..., x_k)] has quantifier rank exactly
    [q] (when [q >= 1]) and satisfies, for every graph [G] over a colour
    vocabulary [⊆ C] and every [k]-tuple [v̄],

    {v G |= hin_θ(v̄)  iff  tp_q(G, v̄) = θ. v}

    This realises the paper's "types as finite sets of formulas in normal
    form": every quantifier-rank-[q] definable property is a finite union
    of [q]-types (Corollary 6-style), and the union of Hintikka formulas is
    the witness formula our ERM solvers output.

    A counting type ({!Types.make_ctx} with [cap > 1]) has the counting
    Hintikka formula: each child's [∃] becomes [atleast m] for its
    capped multiplicity [m], with [~(atleast m+1)] when [m] is below
    the cap.  The equivalence above then holds for the counting types
    at that cap. *)

val variables : int -> Fo.Formula.var list
(** [variables k] = the standard variable names [x1; ...; xk]. *)

(** {1 Hintikka formulas}

    A build makes each type node's formula once: a node that occurs
    several times below the roots (as a child under [exists] and again
    in the [forall] disjunction, or below several roots of
    {!of_types}) is one shared value, so the result is a DAG whose size
    is about the number of distinct type nodes.  {!Fo.Formula.output}
    lays out a shared node once for each column and box it opens in and
    replays it after that, so writing the formula costs its bytes;
    {!Fo.Formula.size} still walks the tree.

    A type's conjuncts are its atomic facts, its children's quantified
    formulas, then their [forall] disjunction, the children in the
    structural order ({!Types.compare}), as are the roots of
    {!of_types}: the bytes do not depend on intern order.

    Position [i] of a type's tuple is named by the [i]-th root variable
    while they last, and [x(i+1)] beyond: with root variables
    [x1..xk, y1..yl] the quantified ones are [x(k+l+1), ...] and never
    clash with a root name.

    Fuel is charged per {e tree} node: one [Hintikka_build] tick for
    each node of the formula a tree build would make, so a budgeted
    build trips at the same fuel as one that builds every occurrence. *)

val of_type : ?budget:Guard.Budget.t -> colors:string list -> Types.ty -> Fo.Formula.t
(** [of_type ~colors θ]: the Hintikka formula of [θ] over the standard
    variables, relative to the given colour vocabulary (needed to spell
    out the {e negative} colour facts).
    @raise Invalid_argument if [θ] mentions a colour outside [colors]. *)

val of_types :
  ?budget:Guard.Budget.t ->
  ?vars:Fo.Formula.var list ->
  colors:string list ->
  Types.ty list ->
  Fo.Formula.t
(** Disjunction of the Hintikka formulas of one build, in the
    structural order of the roots: the formula defining "my [q]-type is
    one of these".  [vars] names the roots'
    free variables (default: {!variables} of each root's arity).
    @raise Invalid_argument if a root's arity is not the length of
    [vars]. *)

val of_tuple :
  colors:string list -> Cgraph.Graph.t -> q:int -> Cgraph.Graph.Tuple.t -> Fo.Formula.t
(** The rank-[q] Hintikka formula of a concrete tuple in a graph. *)
