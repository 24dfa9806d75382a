(** Preprocessing for sublinear hypothesis evaluation on a fixed word —
    the engine of the paper's related work [21] (learning MSO on strings
    with a preprocessing phase that supports fast evaluation later).

    Given a compiled track automaton [A] (alphabet [sigma * 2^tracks])
    and a word [w] over the {e base} alphabet, {!make} builds a sparse
    table of composed transition functions of the zero-annotated word in
    time/space [O(|Q| n log n)].  {!eval_with_marks} then decides whether
    [A] accepts [w] annotated with any given variable marks in time
    [O((#marks + 1) * |Q| * log n)] — logarithmic in the word length,
    instead of the [O(n)] full run. *)

type t

val make : sigma:int -> Automaton.t -> int array -> t
(** [make ~sigma a w].  [a.alphabet] must be [sigma * 2^tracks] for some
    [tracks >= 0], and [a] a word automaton; letters of [w] must be
    [< sigma].
    @raise Invalid_argument otherwise. *)

val eval_with_marks : t -> marks:(int * int) list -> bool
(** [eval_with_marks o ~marks] with [(position, trackmask)] pairs: does
    the automaton accept the word annotated with those track marks?
    Duplicate positions get their masks or-ed.
    @raise Invalid_argument on an out-of-range position. *)

val eval_naive : t -> marks:(int * int) list -> bool
(** Reference implementation: materialise the annotated word and run the
    automaton in [O(n)].  Used for cross-checking and the E13 baseline. *)
