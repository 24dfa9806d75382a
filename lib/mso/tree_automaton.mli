(** Bottom-up deterministic tree automata over labelled trees of arity
    at most 2 — the tree counterpart of {!Dfa}, recognising the regular
    tree languages into which MSO-on-trees compiles. *)

type t = {
  states : int;
  alphabet : int;
  leaf : int array;  (** [leaf.(a)] *)
  unary : int array array;  (** [unary.(q).(a)] *)
  binary : int array array array;  (** [binary.(q1).(q2).(a)] *)
  accept : bool array;
}

val create :
  states:int -> alphabet:int ->
  leaf:int array -> unary:int array array -> binary:int array array array ->
  accept:bool array -> t
(** Validates shapes and ranges.  @raise Invalid_argument otherwise. *)

val accepts : t -> Tree.t -> bool
(** Run bottom-up and test the state at the root.
    @raise Invalid_argument on an out-of-alphabet label. *)

val complement : t -> t
val product : t -> t -> mode:[ `Inter | `Union ] -> t

val minimize : t -> t
(** Restrict to states reachable bottom-up, then Moore-refine.  Minimal
    and canonical for the recognised tree language. *)

val is_empty : t -> bool
(** No reachable accepting state (reachability = generable bottom-up). *)

val equal_language : t -> t -> bool

val total_language : alphabet:int -> t
val empty_language : alphabet:int -> t

val erase : t -> alphabet:int -> (int -> int list) -> t
(** Track erasure: the homomorphic preimage on labels — letter [b] of
    the smaller alphabet may act as any [a ∈ preimages b] — followed by
    the bottom-up subset construction (reachable subsets only). *)
