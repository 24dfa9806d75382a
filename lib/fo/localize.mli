(** Distance formulas and relativisation of quantifiers to neighbourhoods.

    The hardness proof (Lemma 7, general-[L] branch) turns a formula
    [phi(x)] into an [r]-local formula by restricting every quantifier to
    vertices at distance at most [r] from [x]; the quantifier rank grows by
    [O(log r)] via the recursive-doubling distance formulas below. *)

val dist_le : d:int -> Formula.var -> Formula.var -> Formula.t
(** [dist_le ~d x y] defines [dist(x, y) <= d].  Quantifier rank is
    [ceil(log2 d)] for [d >= 1] (0 for [d <= 1]), by recursive doubling:
    [dist(x,y) <= 2d  iff  exists z. dist(x,z) <= d /\ dist(z,y) <= d]. *)

val relativize : r:int -> around:Formula.var list -> Formula.t -> Formula.t
(** [relativize ~r ~around phi] restricts every quantifier in [phi] to the
    union of the [r]-balls around the given variables: existential bodies
    are conjoined with, universal bodies guarded by,
    [\/_{x in around} dist(y, x) <= r].

    If [around] contains all free variables of [phi], the result is
    [r]-local: its truth value at a tuple [v̄] only depends on the induced
    neighbourhood [N_r(v̄)] (tested in [test_localize.ml]). *)

val ball_membership : r:int -> Formula.var list -> Formula.var -> Formula.t
(** [ball_membership ~r centers y] is the guard
    [\/_{x in centers} dist(y, x) <= r]. *)
