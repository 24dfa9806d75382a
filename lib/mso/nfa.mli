(** Nondeterministic finite automata (no epsilon transitions) and the
    subset construction.  Used by the MSO compiler for the projection
    step of existential quantifiers. *)

type t = {
  states : int;
  alphabet : int;
  starts : int list;
  delta : int list array array;  (** [delta.(q).(a)]: successor list *)
  accept : bool array;
}

val create :
  states:int -> alphabet:int -> starts:int list ->
  delta:int list array array -> accept:bool array -> t
(** Validates shapes and ranges.  @raise Invalid_argument otherwise. *)

val accepts : t -> int array -> bool

val project : Dfa.t -> alphabet:int -> (int -> int list) -> t
(** [project dfa ~alphabet preimages]: the NFA over the new alphabet
    [0..alphabet-1] whose letter [b] moves along any [a ∈ preimages b]
    of the DFA — the homomorphic preimage construction used to erase a
    variable track ([preimages] maps a letter of the {e smaller}
    alphabet to the letters of the larger one that project to it). *)

val determinize : t -> Dfa.t
(** Subset construction (on reachable subsets only). *)
