(** Hypotheses [h_{φ,w̄} : V(G)^k → {0,1}] (paper, Sections 1 and 3).

    A hypothesis is a first-order formula [φ(x̄; ȳ)] together with a
    parameter tuple [w̄ ∈ V(G)^ℓ]; it classifies [v̄] as positive iff
    [G |= φ(v̄; w̄)].

    Besides the syntactic form, the learners build hypotheses {e
    semantically} as sets of canonical types: by Corollary 6, a
    quantifier-rank-[q] hypothesis is exactly a union of [q]-types (or of
    local [(q,r)]-types).  Such hypotheses classify via the type machinery
    (fast) and materialise a witness formula — a disjunction of Hintikka
    formulas — only on demand. *)

open Cgraph

type t

val xvars : int -> Fo.Formula.var list
(** Standard example variables [x1 ... xk]. *)

val yvars : int -> Fo.Formula.var list
(** Standard parameter variables [y1 ... yℓ]. *)

(** {1 Constructors} *)

val of_formula :
  Graph.t -> k:int -> formula:Fo.Formula.t -> params:Graph.Tuple.t -> t
(** Syntactic hypothesis.  [formula] must have free variables among
    [x1..xk, y1..yℓ] where [ℓ = |params|].
    @raise Invalid_argument otherwise. *)

val of_types :
  ?cap:int ->
  Graph.t -> k:int -> q:int -> types:Modelcheck.Types.ty list -> params:Graph.Tuple.t -> t
(** Semantic hypothesis "[tp_q(G, v̄·w̄)] is one of [types]", the types
    computed at multiplicity [cap] (default 1; above 1 the counting
    types of FOC, see {!Modelcheck.Types}).  The witness formula has
    quantifier rank exactly [q] (for [q >= 1]); above cap 1 it uses
    [atleast] quantifiers. *)

val of_local_types :
  ?cap:int ->
  Graph.t ->
  k:int -> q:int -> r:int ->
  types:Modelcheck.Types.ty list ->
  params:Graph.Tuple.t ->
  t
(** Semantic hypothesis "[ltp_{q,r}(G, v̄·w̄)] is one of [types]", at
    multiplicity [cap] as {!of_types} — the shape produced by the
    Theorem 13 learner.  The witness formula is the [r]-relativised
    Hintikka disjunction, of quantifier rank [q + O(log r)] (the
    paper's [Q] relaxation). *)

val constantly : Graph.t -> k:int -> bool -> t
(** The constant hypothesis (formula [true] or [false], no parameters). *)

val conj : t -> t -> t
(** Conjunction of two hypotheses over the same graph and arity: predicts
    positive iff both do; witness formula is the conjunction (parameters
    are concatenated, the second operand's [y] variables shifted).
    @raise Invalid_argument on arity mismatch. *)

val disj : t -> t -> t
(** Disjunction, dually. *)

val negate : t -> t
(** Complement hypothesis. *)

(** {1 Use} *)

val predict : t -> Graph.Tuple.t -> bool
(** Classify a [k]-tuple. *)

val formula : t -> Fo.Formula.t
(** The witness formula [φ(x̄; ȳ)] (materialised on first use). *)

val params : t -> Graph.Tuple.t
(** The parameter tuple [w̄]. *)

val k : t -> int
val ell : t -> int

val quantifier_rank : t -> int
(** Rank of the witness formula (without materialising it for semantic
    hypotheses). *)

val training_error : t -> Sample.t -> float
(** [err_Λ(φ, w̄)]. *)

val signature : t -> string
(** A canonical identity string: two hypotheses over the same graph with
    equal signatures classify identically.  Used as the Ramsey colouring
    in the hardness reduction. *)

val pp : Format.formatter -> t -> unit
(** Prints the witness formula and the parameters: the block
    [phi(x1..xk; y1..yl) =], the formula on the lines below it indented
    by 2, then [w = (..)].  The formula goes out through
    {!Fo.Formula.output}, so [pp] first flushes the formatter: call it
    at the start of a line with no box open, as in ["%a@."]. *)
