(** Deterministic bottom-up automata over a ranked alphabet: the one
    automaton algebra under MSO on words and on trees.

    A symbol of rank 0, 1 or 2 reads the states of its children and a
    letter; there is one table per rank.  Trees (arity at most 2) carry
    letters at every rank.  A word is a unary tree: its automaton has
    {e one unlabelled rank-0 symbol}, whose state is the DFA's start
    state, its letters at rank 1 and no rank-2 table, so the word
    [a0 … a(n-1)] is the term [a(n-1)(… a0(⊥))].  The start state, the
    reachable states and the Moore classes are then exactly a DFA's, and
    a word automaton never allocates a [states × states] table.

    MSO formulas compile to these automata (Büchi–Elgot–Trakhtenbrot on
    words, Thatcher–Wright on trees).  States and letters are dense
    integers; automata are complete. *)

type 'q ranked = {
  states : int;  (** number of states, ids [0..states-1] *)
  alphabet : int;  (** number of letters, ids [0..alphabet-1] *)
  leaf : 'q array;
      (** rank 0: [[| start |]] on words, [leaf.(a)] on trees *)
  unary : 'q array array;  (** rank 1: [unary.(q).(a)] *)
  binary : 'q array array array;
      (** rank 2: [binary.(q1).(q2).(a)]; [[||]] on words *)
  accept : bool array;
}
(** The tables of an automaton whose transitions lead to ['q]: one state
    ({!t}) or a list of states (the nondeterministic form that
    {!determinize} reads). *)

type t = int ranked

type shape = Words | Trees
(** Words have no rank-2 table; their rank-0 symbol carries no letter. *)

val create :
  states:int -> alphabet:int -> leaf:int array -> unary:int array array ->
  binary:int array array array -> accept:bool array -> t
(** Validates shapes and ranges.  @raise Invalid_argument otherwise. *)

val tabulate :
  shape -> states:int -> alphabet:int -> (int list -> int -> int) ->
  (int -> bool) -> t
(** [tabulate shape ~states ~alphabet step accepting]: the automaton
    whose symbol with letter [l] over children in states [below] reaches
    [step below l] ([below = []] at rank 0; a word starts in
    [step [] 0]).  [step] must return states in range. *)

val accepts_word : t -> int array -> bool
(** @raise Invalid_argument on a letter outside the alphabet or a tree
    automaton. *)

val accepts_tree : t -> Tree.t -> bool
(** Run bottom-up and test the state at the root.
    @raise Invalid_argument on a label outside the alphabet or a word
    automaton. *)

(** {1 Algebra} *)

val total : shape -> alphabet:int -> t
(** Accepts everything. *)

val empty : shape -> alphabet:int -> t
(** Accepts nothing. *)

val complement : t -> t

val product : t -> t -> mode:[ `Inter | `Union ] -> t
(** Synchronous product.  @raise Invalid_argument unless the shapes and
    alphabets agree. *)

val minimize : t -> t
(** Restrict to the states generable bottom-up (reachable from the start
    state, on words), then Moore-refine.  The result is the unique
    minimal complete automaton for the language. *)

val is_empty : t -> bool
(** No reachable accepting state. *)

val equal_language : t -> t -> bool
(** The product with xor acceptance is empty.
    @raise Invalid_argument as {!product}. *)

(** {1 Subset construction} *)

val determinize : int list ranked -> t
(** The subset construction on the nondeterministic form, over the
    subsets generable bottom-up only (a worklist: each pair of subsets is
    combined once).  A subset accepts if one of its states does.
    @raise Invalid_argument on malformed tables. *)

val erase : t -> alphabet:int -> (int -> int list) -> t
(** Track erasure: the homomorphic preimage on letters — letter [b] of
    the smaller alphabet acts as any [a ∈ preimages b] — determinised. *)
