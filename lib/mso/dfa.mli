(** Deterministic finite automata over integer alphabets.

    The automaton substrate for the MSO-on-strings subsystem (related
    work [21] of the paper): MSO formulas compile to DFAs
    (Büchi–Elgot–Trakhtenbrot), and the learners run and compose them.
    States and letters are dense integers; automata are complete. *)

type t = {
  states : int;  (** number of states, ids [0..states-1] *)
  alphabet : int;  (** number of letters, ids [0..alphabet-1] *)
  start : int;
  delta : int array array;  (** [delta.(q).(a)] — must be total *)
  accept : bool array;
}

val create :
  states:int -> alphabet:int -> start:int ->
  delta:int array array -> accept:bool array -> t
(** Validates shapes and ranges.  @raise Invalid_argument otherwise. *)

val accepts : t -> int array -> bool
(** @raise Invalid_argument on a letter outside the alphabet. *)

(** {1 Algebra} *)

val complement : t -> t

val product : t -> t -> mode:[ `Inter | `Union ] -> t
(** Synchronous product; alphabets must agree.
    @raise Invalid_argument otherwise. *)

val minimize : t -> t
(** Moore minimisation of the reachable part.  The result is the unique
    minimal complete DFA for the language. *)

val is_empty : t -> bool
(** No reachable accepting state. *)

val equal_language : t -> t -> bool
(** Language equivalence (via product with xor acceptance + emptiness).
    @raise Invalid_argument if alphabets differ. *)

(** {1 Constructions} *)

val total_language : alphabet:int -> t
(** Accepts everything. *)

val empty_language : alphabet:int -> t
(** Accepts nothing. *)

val of_predicate : alphabet:int -> max_len:int -> (int array -> bool) -> t
(** Myhill–Nerode construction from a sampled predicate: prefixes are
    identified by the predicate's values on all continuations of length
    [<= max_len].  Yields the true minimal DFA whenever continuations of
    that length distinguish all residual classes (in particular for any
    regular language recognised by a DFA with [<= max_len] states).
    @raise Invalid_argument if more than 4096 residual classes appear. *)

val pp : Format.formatter -> t -> unit
