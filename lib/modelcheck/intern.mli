(** Sharded hash-consing registry (the type registry of {!Types}).

    One global table remains the single authority for id allocation —
    ids are dense and stable, and only the hash-consing key: which key
    gets which id follows the order keys are first met — but each
    domain keeps a private read shard ([Domain.DLS]), so the hot path
    (re-interning an already-known key) is a lock-free local hashtable
    hit.  A shard that falls behind catches up by replaying the
    published suffix of the global entry array: a lock-free merge,
    counted on [<prefix>.shard_merges].  Only genuinely new keys take
    the global mutex.

    The registry grows monotonically while in use; {!reset} reclaims it
    at a quiescent point (e.g. between independent runs in one
    process).  The approximate footprint is exported on the
    [<prefix>.table_bytes] gauge. *)

val mix : int -> int -> int
(** [mix h x] folds [x] into the running hash [h]: the step the
    registry's key hashes are built from.  Non-negative. *)

module Make (C : sig
  type key

  val dummy : key
  (** Filler for unallocated entry slots; never returned. *)

  val hash : key -> int
  (** A hash over the whole key, consistent with structural equality,
      which the registry tables use to compare keys.  The polymorphic
      [Hashtbl.hash] sees only the first ten meaningful values of a
      key, so keys that differ deeper would share one bucket. *)

  val prefix : string
  (** Metric name prefix, e.g. ["modelcheck.types.intern"]. *)
end) : sig
  type key = C.key

  val intern : key -> int -> int
  (** [intern key rank] returns the canonical id for [key], allocating
      the next dense id on first sight.  Safe to call from any domain;
      lock-free when the key is already in the calling domain's shard. *)

  val rank : int -> int
  val key : int -> key
  (** Entry accessors; lock-free.
      @raise Invalid_argument on an id that is stale (from before a
      {!reset}) or was never allocated. *)

  type stats = { live : int  (** interned entries *); bytes : int }

  val stats : unit -> stats
  (** Current registry size; [bytes] is the same estimate the
      [<prefix>.table_bytes] gauge carries. *)

  val reset : unit -> unit
  (** Empty the registry and invalidate every domain's shard (via a
      global epoch — no cross-domain coordination needed).  All
      previously returned ids become stale.  The caller must guarantee
      quiescence: no concurrent [intern] calls and no live ids held
      across the reset.  The bench harness calls this between
      experiments, so each one's counters start from an empty
      registry. *)
end
