(** First-order formulas over vocabularies of vertex-coloured graphs.

    The vocabulary [tau = {E, P_1, ..., P_c}] has one binary relation [E]
    and unary colour predicates, matching {!Cgraph.Graph}.  Equality is a
    logical symbol.  Quantifier rank, free variables, and the normal-form
    conventions follow Section 2 of the paper. *)

type var = string
(** Variable names. *)

(** Atomic formulas. *)
type atom =
  | Eq of var * var  (** [x = y] *)
  | Edge of var * var  (** [E(x, y)] *)
  | Color of string * var  (** [P(x)] for a colour [P] *)

(** Formulas.  [And]/[Or] are n-ary (flattened by the smart constructors);
    an empty conjunction is [True], an empty disjunction is [False]. *)
type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exists of var * t
  | Forall of var * t
  | CountGe of int * var * t
      (** counting quantifier [∃^{>=t} x. φ] — the FOC extension proposed
          in the paper's conclusion (cf. van Bergerem, LICS 2019).
          [Exists] is [CountGe 1] semantically; both are kept for
          faithful plain-FO quantifier ranks. *)

(** {1 Smart constructors}

    These perform local simplification (unit laws, flattening, double
    negation) so that mechanically built formulas — Hintikka formulas in
    particular — stay readable. *)

val tru : t
val fls : t
val eq : var -> var -> t
val edge : var -> var -> t
val color : string -> var -> t
val not_ : t -> t
val and_ : t list -> t
val or_ : t list -> t
val implies : t -> t -> t
val iff : t -> t -> t
val exists : var -> t -> t
val forall : var -> t -> t
val exists_many : var list -> t -> t
val forall_many : var list -> t -> t

val count_ge : int -> var -> t -> t
(** [count_ge t x f] is [∃^{>=t} x. f]; simplifies the trivial thresholds
    ([t = 0] gives [true], [f = False] with [t >= 1] gives [false]). *)

(** {1 Inspection} *)

val quantifier_rank : t -> int
(** Maximum nesting depth of quantifiers. *)

val free_vars : t -> var list
(** Free variables, sorted, without duplicates. *)

val all_vars : t -> var list
(** Free and bound variables, sorted, without duplicates. *)

val colors_used : t -> string list
(** Colour predicates occurring in the formula, sorted. *)

val size : t -> int
(** Number of connective/atom nodes. *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int

(** {1 Transformation} *)

val rename : (var -> var) -> t -> t
(** Apply a renaming to the {e free} variables.  The renaming is applied
    capture-avoidingly: bound variables are refreshed when they collide
    with an image of the renaming.  One pass over the formula, computing
    each node's free variables once; a refreshed binder renames its body
    twice more. *)

val substitute : (var * var) list -> t -> t
(** Parallel free-variable substitution [x := y] given as an association
    list; variables not listed are unchanged. *)

val map_atoms : (atom -> t) -> t -> t
(** Replace every atom by a formula (used by the hardness reduction to
    rewrite [x = y ↦ P_t(y)], [E(x,y) ↦ Q_t(y)], and [P_i(z) ↦ False]). *)

val nnf : t -> t
(** Negation normal form; eliminates [Implies]/[Iff]. *)

val simplify : t -> t
(** Bottom-up constant folding and de-duplication of juncts.  Preserves
    logical equivalence and never increases the quantifier rank. *)

val fresh_var : avoid:var list -> string -> var
(** [fresh_var ~avoid base] is a variable named like [base] that avoids
    the given names. *)

(** {1 Printing} *)

val pp : Format.formatter -> t -> unit
(** Concrete syntax accepted by {!Parser.parse}.  Junctions are hv boxes
    with a break after each connective, quantifier bodies follow a
    break; the layout is left to Format's.  Text that no break or box
    boundary separates goes out as one token: an atom with its [~] and
    the connective after it, a quantifier head with its parenthesis.
    Format breaks lines only at breaks and boxes, so this gives the same
    bytes as printing the pieces one by one, with fewer tokens to
    queue. *)

val to_string : t -> string
