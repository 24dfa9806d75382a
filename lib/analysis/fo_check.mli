(** Static analysis of first-order formulas ({!Fo.Formula.t}).

    [check] runs every analysis whose inputs were supplied and returns
    structured {!Diagnostic.t}s instead of raising: omit [vocab] to skip
    signature conformance, [allowed_free] to admit any free variable,
    and the budget fields to skip budget verification.  See
    {!Diagnostic} for the rule catalogue. *)

type budget = {
  max_rank : int option;  (** quantifier-rank budget [q] *)
  max_free : int option;  (** free-variable budget, usually [k + ℓ] *)
  radius : int option;  (** demanded syntactic locality radius [r] *)
}

val no_budget : budget

val budget :
  ?max_rank:int -> ?max_free:int -> ?radius:int -> unit -> budget

val check :
  ?vocab:Vocab.t ->
  ?allowed_free:Fo.Formula.var list ->
  ?budget:budget ->
  Fo.Formula.t ->
  Diagnostic.t list
(** All diagnostics, in severity order ({!Diagnostic.sort}). *)

val inferred_radius :
  around:Fo.Formula.var list -> Fo.Formula.t -> int option
(** The minimal [r] such that the formula is {e syntactically} [r]-local
    around the given interface variables: every quantifier is guarded by
    a distance formula in the shape produced by
    {!Fo.Localize.relativize}, and chained guards are accumulated
    (a variable within distance [a] of a variable within distance [b] of
    the interface contributes [a + b]).  [None] if some quantifier is
    unguarded; [Some 0] for quantifier-free formulas. *)

val as_dist_le : Fo.Formula.t -> (Fo.Formula.var * Fo.Formula.var * int) option
(** Recognise the recursive-doubling distance formulas of
    {!Fo.Localize.dist_le}: [as_dist_le (dist_le ~d x y) = Some (x, y, d)].
    Exposed for the property tests. *)

(** {1 Cost metadata}

    Informational per-formula cost estimates, reusing the obs JSON
    types so [lint --format json --cost] diagnostics stay
    machine-readable. *)

type cost = {
  rank : int;  (** quantifier rank *)
  free_count : int;  (** number of free variables *)
  size : int;  (** AST size, {!Fo.Formula.size} *)
  locality_radius : int option;
      (** syntactic radius when every quantifier is guarded
          ({!inferred_radius}), else the Gaifman bound [(7^q - 1)/2];
          [None] when even that overflows ([q > 21]) *)
  hintikka_log2 : Cost_model.Log2.t;
      (** log2 upper bound on the rank-[q] Hintikka type table for this
          formula's interface ({!Cost_model.hintikka_log2});
          [Saturated] — never a clamped finite value — once the tower
          of exponents saturates *)
  ramsey_r233_log2 : Cost_model.Log2.t;
      (** log2 of the Ramsey bound [R(2, s, 3) <= s!·e + 1] the Lemma 7
          reduction needs, with [s = 2^hintikka_log2] oracle-answer
          colours (Stirling estimate); [Saturated] as soon as any
          factor saturates, mirroring [Folearn.Ramsey.Saturated]
          instead of wrapping *)
}

val cost : ?vocab:Vocab.t -> Fo.Formula.t -> cost
(** Colour count comes from [vocab] when given, else from the colour
    atoms appearing in the formula. *)

val cost_json : cost -> Obs.Json.t
(** Saturated bounds encode as the string ["saturated"]. *)

val cost_diagnostic : ?vocab:Vocab.t -> Fo.Formula.t -> Diagnostic.t
(** A [cost-metadata] hint whose message is {!cost_json} serialised. *)
