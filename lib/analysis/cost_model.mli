(** Saturating symbolic arithmetic and the paper's parameterized cost
    bounds — the numeric substrate of the static planner {!Plan}.

    Every headline quantity of {e On the Parameterized Complexity of
    Learning First-Order Logic} (van Bergerem–Grohe–Ritzert, PODS 2022)
    is a tower: type tables are iterated exponentials in the quantifier
    rank, hypothesis catalogues are powersets of type tables, and the
    hardness reduction consumes Ramsey numbers of those.  A static
    analyzer must therefore compute with explicitly {e saturating}
    numbers: a bound that leaves the machine range is reported as
    [Saturated], never silently clamped or wrapped — that is the
    contract the [lint --cost] saturation fix and the admission
    precheck both rely on. *)

(** Saturating non-negative machine integers. *)
module Count : sig
  type t = Finite of int | Saturated
      (** [Saturated] means "at least [max_int]": every arithmetic
          operation propagates it, and comparisons treat it as larger
          than any finite value. *)

  val zero : t
  val one : t
  val saturated : t

  val of_int : int -> t
  (** @raise Invalid_argument on a negative input. *)

  val add : t -> t -> t
  val mul : t -> t -> t

  val pow : t -> int -> t
  (** @raise Invalid_argument on a negative exponent. *)

  val to_int_opt : t -> int option
  val leq : t -> t -> bool

  val exceeds_int : t -> int -> bool
  (** [exceeds_int t limit] — is [t] certainly larger than the finite
      [limit]?  [Saturated] exceeds every finite limit. *)

  val to_json : t -> Obs.Json.t
  (** [Finite n] encodes as a JSON int, [Saturated] as the string
      ["saturated"]. *)

  val pp : Format.formatter -> t -> unit
end

(** Saturating base-2 logarithms of bounds too large even for {!Count}. *)
module Log2 : sig
  type t = Finite of float | Saturated

  val of_float : float -> t
  (** [infinity] becomes [Saturated].
      @raise Invalid_argument on [nan] or negative infinity. *)

  val to_json : t -> Obs.Json.t
  (** [Finite f] encodes as a JSON float, [Saturated] as the string
      ["saturated"] — losslessly, unlike a bare non-finite float (which
      [Obs.Json] must encode as [null]). *)

  val pp : Format.formatter -> t -> unit
end

(** Closed intervals [[lo, hi]] of {!Count.t} — the envelopes the
    planner derives for fuel, table rows, and ball sizes.  [lo] is a
    sound lower bound (the run spends at least [lo]), [hi] a sound
    upper bound; admission decisions only ever use the sound side
    ([lo] to prove infeasibility, [hi] to prove feasibility). *)
module Env : sig
  type t = { lo : Count.t; hi : Count.t }

  val exact : Count.t -> t
  val make : lo:Count.t -> hi:Count.t -> t
  val add : t -> t -> t
  val mul : t -> t -> t

  val to_json : t -> Obs.Json.t
  val pp : Format.formatter -> t -> unit
end

(** {1 Bounds from the paper}

    Each function cites the statement it implements. *)

val hintikka_log2 : colors:int -> q:int -> k:int -> Log2.t
(** [log2] of the rank-[q] type-table bound [T(q, k)] over [k] free
    variables and [colors] unary predicates — the tower bound behind
    Lemma 11 (the Hintikka-formula catalogue) of BGR PODS 2022.
    Explicitly [Saturated] (never a clamped finite value) once any
    factor leaves the float range. *)

val ramsey_r233_log2 : s_log2:Log2.t -> Log2.t
(** [log2] of the Ramsey bound [R(2, s, 3) <= floor(s! e) + 1] consumed
    by the Lemma 7 hardness reduction, with [s = 2^s_log2] colours.
    Saturates with its input. *)

val gaifman_radius : int -> Count.t
(** [(7^q - 1) / 2], the locality radius of Gaifman's theorem used by
    the local solver (Theorem 13 via Gaifman normal form; the sharper
    degree-bounded forms are Grohe–Ritzert, arXiv:1701.05487). *)

val type_table_rows : n:int -> q:int -> Count.t
(** [Σ_{j=0}^{q} n^j] — the exact number of computed type rows (equivalently,
    [Hintikka_build] guard ticks) one rank-[q] type computation over an
    [n]-element structure performs per example root (Lemma 19). *)

val candidate_count : n:int -> ell:int -> Count.t
(** [n^ell] — the parameter-tuple catalogue the brute and counting
    solvers enumerate (Theorem 10: parameter learning by enumeration). *)

val local_candidate_count : pool:int -> ell:int -> Count.t
(** [Σ_{j=0}^{ell} pool^j] — the candidate count of the local solver,
    whose parameters range over a neighbourhood pool of the examples
    (Theorem 13 / Lemma 15: parameters can be assumed
    [(2r+1)]-local). *)

val catalogue_cardinality : types:int -> max_size:int -> Count.t
(** [min (2^types - 1) max_size] — the exact number of hypotheses
    [Folearn.Catalogue.of_local_types] builds from [types] realised
    local types (nonempty subsets, smallest first, capped at
    [max_size]).  The QCheck property [plan-catalogue-exact] pins this
    against the real enumeration. *)
