(** Structured diagnostics for the static analyses over FO and MSO
    formulas ("folint").

    A diagnostic carries a stable {e rule id}, a severity, a
    human-readable message, and a {e path}: a breadcrumb into the formula
    AST locating the offending subformula (outermost step first, e.g.
    [exists y › and\[2\] › ~]).

    {2 Rule catalogue}

    Every rule enforced by {!Fo_check} and {!Mso_check}, its default
    severity, and the paper side condition it guards (section numbers
    refer to van Bergerem–Grohe–Ritzert, PODS 2022):

    {ul
    {- [parse-error] (error) — the input is not a formula at all.  Not an
       AST analysis; emitted by the CLI when {!Fo.Parser} rejects the
       input.}
    {- [unknown-relation] (error) — {e signature conformance}: an atom
       uses a relation symbol not declared in the vocabulary [τ]
       (Section 2: formulas are over a fixed vocabulary
       [{E, P_1, ..., P_c}]; an undeclared colour cannot be evaluated on
       a [τ]-structure).}
    {- [arity-mismatch] (error) — {e signature conformance}: an atom
       applies a declared relation symbol to the wrong number of
       arguments (e.g. a binary symbol used as a colour predicate).}
    {- [unbound-variable] (error) — {e scope analysis}: a variable occurs
       free but is not among the declared interface variables.  The
       hypothesis classes [H_{k,ℓ,q}] of Section 3 admit only
       [φ(x1..xk; y1..yℓ)]; a stray free variable has no vertex to be
       assigned to.}
    {- [kind-clash] (error) — {e scope analysis}, MSO only: a variable is
       used both as a position (first-order) and as a set (monadic
       second-order) variable.}
    {- [shadowed-binder] (warning) — {e scope analysis}: a quantifier
       re-binds a variable already bound (or free) in an enclosing scope.
       Legal but a classic source of wrong formulas; Section 2's
       normal-form convention assumes distinctly named binders.}
    {- [vacuous-quantifier] (warning) — {e scope analysis}: a quantifier
       whose variable does not occur free in its body.  Wastes one unit
       of the quantifier-rank budget [q] without changing the defined
       query.}
    {- [rank-over-budget] (error) — {e budget verification}: the computed
       quantifier rank exceeds the declared budget [q].  Theorems 1–2
       are parameterized by [q = qr(φ)]; a hypothesis over the budget is
       outside the class [Φ(q, k, ℓ)].}
    {- [free-over-budget] (error) — {e budget verification}: the formula
       has more free variables than the declared interface [k + ℓ]
       admits.}
    {- [unknown-letter] (error) — {e signature conformance}, MSO only: a
       letter (or tree-label) atom uses an index outside the declared
       alphabet [0..σ-1].}
    {- [invalid-parameter] (error) — {e budget verification}: a learning
       budget handed to an ERM entry point is outside its legal range
       ([k >= 1], [ℓ >= 0], [q >= 0], [tmax >= 1], [r >= 0]).}
    {- [non-local] (error) — {e locality}: a quantifier is not
       syntactically relativised to the [r]-neighbourhood of the formula's
       interface variables (the shape produced by {!Fo.Localize.relativize}),
       or its guard implies a radius larger than the declared budget [r].
       Gaifman locality (Fact 5) is the engine of both main theorems; the
       message reports the radius [r(q) = (7^q - 1)/2] that
       {!Fo.Gaifman.radius} guarantees as a fallback for an unguarded
       subformula of rank [q].}
    {- [double-negation] (hint) — {e simplification}: [~~φ]; rewrite to
       [φ].}
    {- [trivial-atom] (hint) — {e simplification}: an atom with a
       constant truth value ([x = x], or a reflexive edge [E(x, x)] on
       loop-free graphs).}
    {- [duplicate-junct] (hint) — {e simplification}: a conjunction or
       disjunction lists the same subformula twice.}
    {- [constant-junct] (hint) — {e simplification}: a conjunction
       containing [false] (or a disjunction containing [true]) — the
       whole junction is constant.}
    {- [cost-metadata] (hint) — {e informational}: per-formula cost
       estimates (quantifier rank, syntactic or Gaifman locality radius,
       a log2 bound on the rank-q Hintikka type table) encoded as a JSON
       object in the message.  Emitted only on request
       ([lint --cost] / {!Fo_check.cost_diagnostic}); never a failure.}
    {- [budget-infeasible] (error) — {e admission}: the declared
       resource budget ([--fuel]/[--max-table]/[--max-ball]) is provably
       below the sound first-settle floor computed by the static planner
       ({!Plan.precheck}); the run would exhaust with nothing to salvage,
       so it is rejected up front ([--no-precheck] escapes).}} *)

type severity = Error | Warning | Hint

val severity_to_string : severity -> string

type t = {
  rule : string;  (** stable rule id, kebab-case (see the catalogue) *)
  severity : severity;
  message : string;
  path : string list;  (** breadcrumb into the AST, outermost first *)
}

val make : ?path:string list -> rule:string -> string -> t
(** [make ~rule msg] builds a diagnostic with the rule's default severity
    from the registry ([Error] for unregistered rule ids). *)

(** {1 Registry} *)

type rule_info = {
  id : string;
  default_severity : severity;
  doc : string;  (** one-line description, shown by [lint --list-rules] *)
}

val rules : rule_info list
(** Every known rule, in catalogue order. *)

val default_severity : string -> severity

(** {1 Aggregation} *)

val errors : t list -> t list
val warnings : t list -> t list
val hints : t list -> t list

val worst : t list -> severity option
(** Most severe severity present, [None] on the empty list. *)

val sort : t list -> t list
(** Stable sort: errors first, then warnings, then hints. *)

(** {1 Rendering} *)

val pp_path : Format.formatter -> string list -> unit
(** [exists y › and\[2\]]; prints [⟨toplevel⟩] for the empty path. *)

val pp : Format.formatter -> t -> unit
(** One line: [error\[rule\] at path: message]. *)

val to_string : t -> string

val render_list : t list -> string
(** All diagnostics, one per line — used for [Invalid_argument] payloads
    raised by the {!Guard}ed library entry points. *)

val json_string : string -> string
(** A quoted, escaped JSON string literal — for callers embedding
    diagnostics in larger JSON documents. *)

val to_json : t -> string
(** Single JSON object
    [{"rule": ..., "severity": ..., "message": ..., "path": [...]}]. *)

val list_to_json : t list -> string
(** JSON array of {!to_json} objects. *)
