(** Hintikka formulas: the defining formulas of canonical types.

    For a [q]-type [θ] of arity [k] over a colour vocabulary [C], the
    Hintikka formula [hin_θ(x_1, ..., x_k)] has quantifier rank exactly
    [q] (when [q >= 1]) and satisfies, for every graph [G] over a colour
    vocabulary [⊆ C] and every [k]-tuple [v̄],

    {v G |= hin_θ(v̄)  iff  tp_q(G, v̄) = θ. v}

    This realises the paper's "types as finite sets of formulas in normal
    form": every quantifier-rank-[q] definable property is a finite union
    of [q]-types (Corollary 6-style), and the union of Hintikka formulas is
    the witness formula our ERM solvers output. *)

val variables : int -> Fo.Formula.var list
(** [variables k] = the standard variable names [x1; ...; xk]. *)

val of_type : ?budget:Guard.Budget.t -> colors:string list -> Types.ty -> Fo.Formula.t
(** [of_type ~colors θ]: the Hintikka formula of [θ] over the standard
    variables, relative to the given colour vocabulary (needed to spell
    out the {e negative} colour facts).  One [Hintikka_build] tick
    per type node, charged to [budget].
    @raise Invalid_argument if [θ] mentions a colour outside [colors]. *)

val of_types : colors:string list -> Types.ty list -> Fo.Formula.t
(** Disjunction of Hintikka formulas: the formula defining "my [q]-type is
    one of these". *)

val of_tuple :
  colors:string list -> Cgraph.Graph.t -> q:int -> Cgraph.Graph.Tuple.t -> Fo.Formula.t
(** The rank-[q] Hintikka formula of a concrete tuple in a graph. *)
