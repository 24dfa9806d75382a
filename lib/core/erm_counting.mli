(** Counting ERM under its old name: a shim over {!Erm_brute}, whose
    [~tmax] runs the same sweep over the counting types.  It is kept
    for callers that still use these names and goes with them. *)

open Cgraph

type result = Erm_brute.result = {
  hypothesis : Hypothesis.t;
  err : float;
  params_tried : int;
}

val solve :
  ?pool:Par.Pool.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t -> result
(** [Erm_brute.solve ~tmax]. *)

val solve_budgeted :
  ?budget:Guard.Budget.t ->
  ?precheck:bool ->
  ?pool:Par.Pool.t ->
  ?ckpt:Resil.Ctl.t ->
  Graph.t -> k:int -> ell:int -> q:int -> tmax:int -> Sample.t ->
  result Guard.outcome
(** [Erm_brute.solve_budgeted ~tmax]. *)
