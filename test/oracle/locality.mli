(** Empirical validation of Gaifman locality (Fact 5 / Corollary 6).

    Fact 5: for [r >= r(q)] ({!Fo.Gaifman.radius}), equal local
    [(q,r)]-types imply equal [q]-types.  These helpers scan a graph for
    counterexamples; experiment E8 and the property tests call them. *)

open Cgraph

type violation = {
  left : Graph.Tuple.t;
  right : Graph.Tuple.t;
  local_type : Modelcheck.Types.ty;  (** the shared local type *)
}
(** A pair of tuples with equal [ltp_{q,r}] but different [tp_q]. *)

val violations : Graph.t -> q:int -> r:int -> k:int -> violation list
(** All violating pairs among [k]-tuples (one witness per unordered pair,
    first-in-class representatives only). *)

val fact5_holds : Graph.t -> q:int -> r:int -> k:int -> bool
(** [violations = \[\]]. *)

val minimal_radius : Graph.t -> q:int -> k:int -> max_r:int -> int option
(** Least [r <= max_r] making Fact 5 hold on this graph (diagnostic for
    E8; the paper's bound is worst-case over all graphs). *)
