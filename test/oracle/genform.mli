(** Seeded random formula generation, for property tests, fuzzing the
    evaluator/parser, and workload synthesis in the benches. *)

type config = {
  free_vars : Fo.Formula.var list;  (** variables allowed free *)
  colors : string list;  (** colour predicates to draw atoms from *)
  max_depth : int;  (** connective nesting bound *)
  allow_counting : bool;  (** include [∃^{>=t}] quantifiers (t <= 3) *)
}

val default : config
(** free vars [x, y], colours [Red; Blue], depth 4, no counting. *)

val formula : ?config:config -> seed:int -> unit -> Fo.Formula.t
(** A random formula (deterministic per seed).  Built through the
    smart constructors, so the result is a fixpoint of the parser's
    normalisation: [Parser.parse (Fo.Formula.to_string f)] is structurally
    [f], not merely equivalent. *)

val sentence : ?config:config -> seed:int -> unit -> Fo.Formula.t
(** A random {e sentence}: a random formula with one free variable,
    closed universally or existentially. *)
