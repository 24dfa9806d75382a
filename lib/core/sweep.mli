(** The candidate sweep shared by the exact ERM solvers
    ({!Erm_brute}, plain and counting, and {!Erm_local}).

    Proposition 11's ERM is one loop: for each parameter tuple [w̄],
    take a majority vote per type class of [v̄·w̄] and keep the tuple
    with the fewest errors.  The solvers differ only in the type
    function (rank-[q] types, counting types, local types) and in the
    candidate space ([V(G)^ℓ], or the tuples of length [0..ℓ] over the
    [N_{2r+1}] pool); this module is the loop.

    Contracts:
    - {b Winner.}  The winner is the lexicographic minimum of
      [(errors, candidate index)].  That is the sequential first-best
      rule, and, being a minimum, it does not depend on the order in
      which parallel chunks merge: every [--jobs] returns the same
      candidate.
    - {b Work per candidate.}  Every candidate, evaluated or not, pays
      one [Guard.tick Solver_loop] to the sweep's budget, one cadence
      check ({!Resil.Ctl.visit}) and one increment of each of
      [erm.hypotheses_enumerated] and [erm.consistency_checks].
    - {b [tried].}  Sequentially, a candidate counts as tried once its
      tick has passed, so a budget trip mid-evaluation counts the
      candidate in flight.  In parallel, a chunk's candidates count
      when the chunk completes.
    - {b Resume.}  Candidates below the {!Resil.Ctl} resume cursor are
      replay-skipped: ticked, counted and tried, but not voted on,
      except the recorded best index, which is re-evaluated to recover
      the winning types.  Settled ranges are reported through
      [Resil.Ctl.chunk_done] so the cadence check can snapshot the
      frontier.  The resumed result equals the uninterrupted one.
    - {b Candidate 0 first.}  The parallel sweep settles candidate 0 on
      the calling domain exactly as the sequential sweep does, and only
      then fans out over [\[1, count)].  So a budget that pays for the
      first candidate on one domain salvages it at every pool size.
    - {b One context per chunk.}  Type contexts are not shared
      between domains: the sequential sweep uses one context, and each
      parallel chunk (and candidate 0) builds its own. *)

open Cgraph

val majority : (Graph.Tuple.t -> 'ty) -> Sample.t -> 'ty list * int
(** [majority tp lam] is the best type set for one candidate: the
    types whose class in [lam] (examples grouped by [tp v̄]) has more
    positive than negative examples, and the number of examples that
    set misclassifies. *)

type ('ctx, 'ty) space = {
  count : int option;
      (** number of candidates; [None] if it exceeds [max_int], in
          which case the sweep is sequential and streams indices
          [0, 1, ...] until the budget stops it *)
  candidate : int -> Graph.Tuple.t;  (** parameter tuple of an index *)
  ctx : unit -> 'ctx;  (** a fresh type context, charging the sweep's budget *)
  score : 'ctx -> Graph.Tuple.t -> 'ty list * int;
      (** chosen types and error count of a parameter tuple *)
}

type 'ty best = {
  index : int;
  params : Graph.Tuple.t;
  chosen : 'ty list;
  errors : int;
}

type 'ty t
(** The sweep state: candidates tried and the best so far.  A salvage
    hook may read it after a budget trip. *)

val create : unit -> 'ty t
val tried : 'ty t -> int
val best : 'ty t -> 'ty best option

val run :
  ?pool:Par.Pool.t -> ?ckpt:Resil.Ctl.t -> ?budget:Guard.Budget.t ->
  ('ctx, 'ty) space -> 'ty t -> unit
(** Sweep every candidate into the state.  [pool] (default
    {!Par.default}) chunks the sweep when it has more than one domain
    and there is more than one candidate; [ckpt] (default inert)
    threads a checkpoint controller; [budget] is charged per
    candidate. *)

val budgeted :
  ?budget:Guard.Budget.t -> finish:('ty t -> 'a) -> ('ty t -> 'a) -> 'a Guard.outcome
(** [budgeted ?budget ~finish body] runs [body] on a fresh state under
    [budget]; [body] passes [budget] on to {!run}.  On a trip,
    [best_so_far] is [finish] of the state if some candidate finished
    evaluating, and [None] otherwise: a constant fallback would not be
    a best seen so far.  [finish] must not charge [budget]. *)

val error_rate : Sample.t -> int -> float
(** [errors / |lam|], and [0.] on the empty sample. *)
