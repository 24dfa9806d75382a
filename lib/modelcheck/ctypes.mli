(** Counting types under their old names: a shim over {!Types}, which
    computes them as the types of a context with a multiplicity cap
    ([Types.make_ctx ~cap:tmax]).  It owns no registry: its ids are
    {!Types} ids.  It is kept for callers that still use these names
    and goes with them. *)

open Cgraph

type ty = Types.ty

val equal : ty -> ty -> bool
val compare : ty -> ty -> int
val rank : ty -> int
val arity : ty -> int

type ctx
(** One {!Types.ctx} per cap asked for. *)

val make_ctx : ?budget:Guard.Budget.t -> Graph.t -> ctx

val ctp : ctx -> q:int -> tmax:int -> Graph.Tuple.t -> ty
(** {!Types.tp} at cap [tmax].  @raise Invalid_argument if [tmax < 1]. *)

val cltp : ctx -> q:int -> tmax:int -> r:int -> Graph.Tuple.t -> ty
(** {!Types.ltp} at cap [tmax]. *)

val count_types : Graph.t -> q:int -> tmax:int -> k:int -> int
(** {!Types.count_types} at cap [tmax]. *)

val node : ty -> Types.atomsig * (ty * int) list option
(** The atomic signature of {!Types.node} with the children of
    {!Types.counted}. *)

val hintikka : colors:string list -> tmax:int -> ty -> Fo.Formula.t
(** {!Hintikka.of_type} of a type computed at cap [tmax], with a count
    at cap 1 spelled [atleast 1] rather than [exists]. *)

val hintikka_of_types :
  ?vars:Fo.Formula.var list ->
  colors:string list -> tmax:int -> ty list -> Fo.Formula.t
(** {!Hintikka.of_types}, spelled as {!hintikka}. *)

type table_stats = Types.table_stats = { live : int; bytes : int }

val table_stats : unit -> table_stats
(** Always zero: the one registry is {!Types.table_stats}'s, so a sum
    of both counts it once. *)

val reset_tables : unit -> unit
(** {!Types.reset_tables}. *)
