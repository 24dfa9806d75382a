(** Automatic hypothesis catalogues for the realisable learner.

    Algorithm 2 (Proposition 12) iterates over the {e full} finite set of
    quantifier-rank-[q] formulas in normal form — feasible in theory,
    tower-sized in practice.  This module generates the part of that
    catalogue that can matter on a given background graph: by
    Corollary 6, every rank-[q] hypothesis classifies by its local
    [(q,r)]-type, so the catalogue of all {e realised-type-set}
    hypotheses is complete for the graph at hand.  Formulas are
    materialised as relativised Hintikka disjunctions over the standard
    variables [x, y1, ..., yℓ] — exactly the shape
    {!Erm_realizable.solve} consumes. *)

open Cgraph

val of_local_types :
  Graph.t -> ell:int -> q:int -> r:int -> ?max_size:int -> unit -> Fo.Formula.t list
(** All hypothesis formulas [φ(x; y1..yℓ)] of the form "the local
    [(q,r)]-type of [(x, ȳ)] belongs to Θ", for every subset Θ of the
    types realised in the graph — capped at [max_size] formulas (default
    256).  Subsets are enumerated smallest-first, so low-complexity
    hypotheses come first and the astronomical tail of the subset
    lattice is never materialised. *)

val positive_types_only :
  Graph.t -> ell:int -> q:int -> r:int -> Fo.Formula.t list
(** The singleton-type catalogue only (one formula per realised class):
    linear in the number of classes, often enough for realisable
    targets that are a single type. *)

val of_local_types_budgeted :
  ?budget:Guard.Budget.t ->
  Graph.t -> ell:int -> q:int -> r:int -> ?max_size:int -> unit ->
  Fo.Formula.t list Guard.outcome
(** {!of_local_types} under a resource budget (checkpoint class
    [Catalogue_growth]).  On exhaustion,
    [best_so_far] holds the formulas built before the trip — a valid,
    smaller catalogue (smallest-first order means the low-complexity
    hypotheses survive). *)
