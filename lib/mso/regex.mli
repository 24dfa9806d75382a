(** Regular expressions over integer alphabets, compiled to automata via
    the Glushkov (position automaton) construction.

    Completes the Büchi–Elgot–Trakhtenbrot triangle of the strings
    subsystem: MSO sentences, DFAs and regular expressions all denote the
    regular languages, and the test suite checks the three-way
    equivalences on concrete languages. *)

type t =
  | Empty  (** the empty language *)
  | Eps  (** the empty word *)
  | Letter of int
  | Seq of t * t
  | Alt of t * t
  | Star of t

(** {1 Combinators} *)

val letter : int -> t
val seq : t list -> t
(** Concatenation of a list ([Eps] for the empty list); simplifies units. *)

val alt : t list -> t
(** Union ([Empty] for the empty list); simplifies units. *)

val star : t -> t
val plus : t -> t
(** [plus r = seq r (star r)]. *)

val opt : t -> t
(** [opt r = alt r eps]. *)

val all : sigma:int -> t
(** Any word: the star of the union of all letters. *)

(** {1 Semantics} *)

val matches : t -> int array -> bool
(** Direct matching by derivatives (reference semantics; no compilation). *)

val to_dfa : sigma:int -> t -> Automaton.t
(** The Glushkov position automaton (one state per letter occurrence
    plus a start state; no epsilon transitions), determinised and
    minimised.
    @raise Invalid_argument on a letter [>= sigma]. *)

val pp : letters:string list -> Format.formatter -> t -> unit
(** Render with the given letter names (e.g. ["ab"] split into names). *)

exception Parse_error of string

val of_string : letters:string list -> string -> t
(** Parse the {!pp} syntax: juxtaposition is concatenation, ['|'] is
    union, ['*'] and ['+'] and ['?'] postfix, ['0'] the empty language,
    ['1'] the empty word, parentheses as usual; letter names resolved
    against [letters] (single-character names only).
    @raise Parse_error on malformed input. *)
