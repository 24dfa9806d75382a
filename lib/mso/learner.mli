(** Learning MSO-definable hypotheses on strings — the framework of the
    paper's related work [21] (Grohe, Löding, Ritzert, ALT 2017),
    reproduced with the compile-once / evaluate-fast pipeline:

    hypotheses are [h_{φ,w̄}(v̄) = 1 iff word |= φ(v̄; w̄)] for MSO
    formulas [φ(x̄; ȳ)] and {e position} parameters [w̄]; the learner
    compiles each catalogue formula to a track automaton once, builds the
    {!Oracle} segment tree over the background word once, and then
    evaluates every (example, parameter) combination in logarithmic
    time — the preprocessing-then-sublinear-learning regime of [21].

    The catalogue types and the {!erm} loop are shared with
    {!Tree_learner}. *)

type entry = {
  name : string;
  phi : Formula.t;
  xvars : Formula.var list;  (** example position variables *)
  yvars : Formula.var list;  (** parameter position variables *)
}
(** A catalogue hypothesis template [φ(x̄; ȳ)]. *)

type result = {
  entry : entry;
  params : int array;  (** chosen positions (nodes) [w̄] *)
  err : float;
  evaluations : int;  (** oracle evaluations performed *)
  states : int;  (** size of the compiled automaton *)
}

val erm :
  n:int ->
  catalogue:entry list ->
  prepare:(entry -> int * (int array -> int array -> bool)) ->
  (int array * bool) list ->
  result option
(** The ERM loop every structure shares: minimise training error over
    every [(entry, w̄ ∈ [0..n-1]^{|yvars|})], keeping the first of
    equally good hypotheses.  [prepare entry] compiles the entry once and
    returns its automaton's state count and the verdict on an (example,
    parameters) pair.
    @raise Invalid_argument on malformed entries (wrong arities, free
    variables outside [x̄ ∪ ȳ]). *)

val solve :
  sigma:int ->
  word:int array ->
  catalogue:entry list ->
  (int array * bool) list ->
  result option
(** {!erm} over a word: parameters beyond the word length do not exist,
    so the empty word with parameters yields [None].  Examples are
    tuples of positions with labels. *)

val predict : sigma:int -> word:int array -> result -> int array -> bool
(** Classify a fresh position tuple with a solved hypothesis. *)
