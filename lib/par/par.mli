(** Deterministic domain-parallelism for the candidate sweep.

    A fixed-size pool of OCaml 5 [Domain]s runs one chunked map/reduce
    ({!map_reduce_chunks}).  Its observable result is bit-identical to
    the sequential fold: chunks are contiguous index ranges, their
    results are reduced {b in index order}, never in completion order,
    so a first-best tie-break ("keep the earliest candidate on equal
    error") is preserved, and of several failing chunks the
    lowest-indexed one's exception is re-raised.

    A pool of size 1 spawns no domains and runs every chunk inline.
    Workers are spawned lazily on first use and parked on a condition
    variable between calls, so an idle pool costs nothing.  Nested calls
    on one pool are not supported; create a second pool if you need one
    inside a chunk. *)

module Pool : sig
  type t

  val create : jobs:int -> t
  (** A pool executing at most [jobs] tasks concurrently ([jobs - 1]
      worker domains plus the calling domain).  [jobs] is clamped to
      [\[1; Domain.recommended_domain_count ()\]].  Workers are spawned
      on the first parallel call, not here. *)

  val size : t -> int
  (** The parallelism degree (including the caller). *)

  val shutdown : t -> unit
  (** Join the worker domains.  Idempotent; the pool degrades to
      sequential (size-1 semantics) afterwards. *)
end

val set_jobs : int -> unit
(** Configure the default pool size (the CLI's [--jobs]).  Replaces the
    default pool; the previous one is shut down. *)

val jobs : unit -> int
(** Current default pool size: the last [set_jobs] value, else the
    [FOLEARN_JOBS] environment variable, else [1]. *)

val default : unit -> Pool.t
(** The process-wide default pool, sized by {!jobs}.  Shut down
    automatically at exit. *)

val map_reduce_chunks :
  Pool.t ->
  n:int ->
  map:(int -> int -> 'a) ->
  reduce:('acc -> 'a -> 'acc) ->
  init:'acc ->
  'acc
(** [map_reduce_chunks pool ~n ~map ~reduce ~init] splits the index
    range [0..n-1] into contiguous chunks of [n / (4 * size)] indices (at
    least 1; about four chunks per domain for load balance), evaluates
    [map lo hi] (hi exclusive) for each in parallel, then folds the chunk
    results with [reduce] {b sequentially, in chunk order} on the calling
    domain.

    A raising [map] fails the call at once: chunks not yet started are
    skipped, no chunk is run twice, and the exception of the
    {e lowest-indexed} failing chunk is re-raised with its original
    backtrace ({!Printexc.raise_with_backtrace}) — the failure the
    sequential run would raise first.  A pool of size 1 runs every
    chunk inline on the caller, in order. *)
