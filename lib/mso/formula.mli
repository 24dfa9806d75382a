(** Monadic second-order logic on finite words and on labelled trees.

    The logic of the Büchi–Elgot–Trakhtenbrot and Thatcher–Wright
    theorems: first-order position variables, monadic set variables,
    letter atoms and the atoms of the structure the formula is read
    over — [<] and [succ] on words, [child1] and [child2] on trees.  MSO
    sentences define exactly the regular word (tree) languages, and every
    formula [φ(x̄, X̄)] compiles to an automaton over the letter alphabet
    extended with one boolean {e track} per free variable.

    This module holds the one AST and the parts every structure shares:
    {!free}, {!pp}, the evaluation and compilation skeletons, and their
    word instances.  {!Tree_formula} instantiates the same skeletons for
    trees.  It is the concept language of the paper's related work [21]
    (strings) and [19] (trees). *)

type var = string

(** Formulas.  Letters are integers [0..sigma-1]. *)
type t =
  | MTrue
  | MFalse
  | Letter of int * var  (** position (node) [x] carries the letter *)
  | Less of var * var  (** words: strict position order [x < y] *)
  | Succ of var * var  (** words: [y = x + 1] *)
  | Child1 of var * var  (** trees: [y] is the first child of [x] *)
  | Child2 of var * var  (** trees: [y] is the second child of [x] *)
  | EqPos of var * var
  | Mem of var * var  (** [Mem (x, bigx)]: position [x] belongs to set [bigx] *)
  | Not of t
  | And of t list
  | Or of t list
  | ExistsPos of var * t
  | ForallPos of var * t
  | ExistsSet of var * t
  | ForallSet of var * t

type kind = Pos | Set

val uses : t -> (var * kind) list
(** The variables an atom mentions, with the kind it uses them at;
    [[]] for the constants, connectives and quantifiers. *)

val free : t -> (var * kind) list
(** Free variables with their kinds, sorted by name.  This is the one
    validation of a formula: every formula it accepts compiles over a
    scope that covers its free variables.
    @raise Invalid_argument if a variable is used with both kinds, or a
    bound variable is used with the other kind than its binder's. *)

val foreign : structure:string -> t -> 'a
(** @raise Invalid_argument naming an atom the given structure
    (["words"] or ["trees"]) does not have. *)

(** {1 Direct evaluation (the reference semantics)} *)

type assignment = {
  pos : (var * int) list;  (** position variables *)
  sets : (var * int list) list;  (** set variables *)
}

val empty_assignment : assignment

val eval_skeleton :
  size:int -> atom:((var -> int) -> t -> bool) -> assignment -> t -> bool
(** Recursive evaluation over the positions [0..size-1]; set quantifiers
    enumerate all [2^size] subsets.  [atom pos a] decides a [Letter],
    [Less], [Succ], [Child1] or [Child2] atom given the position of each
    variable.  The structures' [eval]s are instances. *)

val eval : word:int array -> assignment -> t -> bool
(** Evaluation on a word — reference semantics for short words only.
    @raise Not_found on an unbound variable.
    @raise Invalid_argument on a tree atom. *)

(** {1 Compilation (Büchi–Elgot–Trakhtenbrot)} *)

(** What a structure supplies to the compilation skeleton: its automaton
    shape, the machines of its own atoms over the track alphabet
    [sigma * 2^tracks] (letter [a] with track bitmask [m] encoded as
    [a + sigma * m]), and how an input is annotated and run.  The
    skeleton builds the shared atoms ([Letter], [Mem], [EqPos]) itself
    and combines machines with the one {!Automaton} algebra. *)
module type STRUCTURE = sig
  type input

  val shape : Automaton.shape

  val atom : sigma:int -> tracks:int -> (var -> int) -> t -> Automaton.t
  (** The machine of a [Less]/[Succ] (words) or [Child1]/[Child2] (trees)
      atom, given the track of each variable: one mark per position
      track, satisfying the atom.
      @raise Invalid_argument on an atom of another structure. *)

  val mapi_letters : (int -> int -> int) -> input -> input
  (** Replace the letter at each position [i] by [f i letter]. *)

  val accepts : Automaton.t -> input -> bool
end

val machine :
  Automaton.shape -> sigma:int -> tracks:int -> states:int ->
  next:(int list -> int -> int -> int option) -> accepting:(int -> bool) ->
  Automaton.t
(** An automaton over the track alphabet from a state-machine
    description on states [0..states-1] plus a rejecting sink:
    [next below letter mask] is the state of a position over children in
    states [below] ([[]] at a tree leaf), [None] the sink.  A word starts
    in state 0. *)

module Compile (S : STRUCTURE) : sig
  val compile : sigma:int -> scope:(var * kind) list -> t -> Automaton.t
  (** A minimal automaton accepting exactly the {e validly annotated}
      inputs satisfying the formula — valid meaning every
      position-variable track carries exactly one mark.  Track [i] is
      the [i]-th scope entry; [scope] must cover the free variables.
      @raise Invalid_argument on a formula {!free} rejects, scope
      violations, letters [>= sigma] or atoms of another structure. *)

  val holds_compiled :
    sigma:int -> scope:(var * kind) list -> Automaton.t -> S.input ->
    assignment -> bool
  (** Run a compiled automaton on the input annotated with the
      assignment.
      @raise Invalid_argument on a letter [>= sigma]. *)
end

val compile : sigma:int -> scope:(var * kind) list -> t -> Automaton.t
(** {!Compile.compile} on words. *)

val holds_compiled :
  sigma:int -> scope:(var * kind) list -> Automaton.t -> int array ->
  assignment -> bool
(** {!Compile.holds_compiled} on words. *)

val pp : letters:string list -> Format.formatter -> t -> unit
(** Concrete syntax accepted by {!Parser.parse} (letters resolved
    against the same alphabet list).
    @raise Invalid_argument on a letter index outside the alphabet. *)

val to_string : letters:string list -> t -> string

val language : sigma:int -> t -> Automaton.t
(** Compile a sentence on words ([scope = []]).
    @raise Invalid_argument if the formula has free variables. *)
