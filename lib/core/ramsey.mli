(** Ramsey-theoretic bounds for the hardness reduction (Lemma 7).

    The reduction needs [h(p) = R(2, s, 3)]: every 2-colouring... more
    precisely every [s]-colouring of the edges of a complete graph on more
    than [R(2, s, 3)] vertices contains a monochromatic triangle.  The
    classical multicolour bound is [R_s(3) <= ceil(s! * e) + 1]. *)

(** A bound that may exceed the native integer range.  The arithmetic
    below saturates {e before} the operation that would overflow, so a
    too-large bound is reported as {!Saturated} rather than as a
    silently wrapped (possibly positive!) native int. *)
type bound = Finite of int | Saturated

val factorial_sat : int -> bound
(** @raise Invalid_argument on negative input. *)

val triangle_bound_sat : colors:int -> bound
(** Saturating {!triangle_bound}.
    @raise Invalid_argument if [colors < 1]. *)

val ramsey_upper_sat : colors:int -> clique:int -> bound
(** Saturating {!ramsey_upper}.
    @raise Invalid_argument if [colors < 1] or [clique < 1]. *)

val factorial : int -> int
(** @raise Invalid_argument on negative input or overflow. *)

val binomial : int -> int -> int
(** [binomial n k], 0 outside range.  @raise Invalid_argument on overflow. *)

val triangle_bound : colors:int -> int
(** Upper bound on [R(2, s, 3)]: with more vertices than this, any
    [s]-colouring of pairs has a monochromatic triple.
    [triangle_bound ~colors:1 = 3], [~colors:2 = 6] (the classical
    [R(3,3)]), [~colors:3 = 17].
    @raise Invalid_argument if [colors < 1] or the bound overflows. *)

val ramsey_upper : colors:int -> clique:int -> int
(** Generic multicolour 2-uniform upper bound [R_s(m)] via the recurrence
    [R(m_1, ..., m_s) <= 2 - s + Σ_i R(..., m_i - 1, ...)] with symmetric
    arguments.  Memoised.  @raise Invalid_argument on overflow. *)

val monochromatic_triple :
  color:(int -> int -> 'c) -> equal:('c -> 'c -> bool) -> int list ->
  (int * int * int) option
(** Find [v1 < v2 < v3] in the list with
    [color v1 v2 = color v1 v3 = color v2 v3] (the elimination step of
    Lemma 7's representative-set construction).  [color u v] is only
    called with [u < v]. *)

val eliminate_until_ramsey_free :
  color:(int -> int -> 'c) -> equal:('c -> 'c -> bool) -> int list -> int list
(** Repeatedly find a monochromatic triple [v1, v2, v3] and drop the
    middle element [v2], until no monochromatic triple remains.  By
    Ramsey's theorem the result has at most [triangle_bound ~colors:s]
    elements where [s] is the number of distinct colours; by Claim 9 of
    the paper it retains a representative of every colour-equivalence
    class when [color] arises from oracle answers. *)
