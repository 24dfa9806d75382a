(** Chunk leases: the mutual-exclusion primitive of the fleet protocol.

    A lease file at [leases/<chunk>.lease] records who is evaluating a
    candidate chunk, under which fence token, and until when.  The
    file is a [Resil.Framed] envelope with magic [FOLEARNLEASE1].

    {b Claiming is atomic.}  A claimant writes the lease to a private
    temp file and {e hard-links} it to the lease path: [link(2)] fails
    with [EEXIST] when the chunk is already claimed, so exactly one of
    any number of racing claimants wins — unlike [rename(2)], which
    silently replaces.  Renewal (pushing the heartbeat deadline
    forward) is the owner rewriting the file via atomic rename.

    {b Fencing.}  Every lease carries the chunk's fence token at claim
    time.  The coordinator bumps the fence whenever it expires a lease
    or processes a failure, and rejects any published result carrying
    a stale fence — so a worker that lost its lease (but not its life)
    can never corrupt the run. *)

type t = {
  chunk : int;  (** chunk id *)
  lo : int;  (** first candidate index of the chunk *)
  hi : int;  (** one past the last candidate index *)
  worker : string;  (** claimant's worker id *)
  pid : int;  (** claimant's process id *)
  fence : int;  (** fence token the chunk was claimed under *)
  deadline : float;  (** heartbeat deadline, epoch seconds *)
}

val encode : t -> string
val decode : string -> (t, string) result
(** [decode (encode l) = Ok l]; a broken envelope ([Resil.Framed]),
    JSON shape or schema version yields [Error]. *)

val claim : path:string -> t -> bool
(** Atomically create the lease file; [false] when the chunk is
    already claimed (the lease path exists).  Exactly one of any
    number of concurrent claimants succeeds. *)

val renew : path:string -> t -> unit
(** Owner-only: rewrite the lease (atomic rename) with a new
    deadline.  No fsync — a lost renewal only shortens the lease. *)

val release : path:string -> mine:t -> unit
(** Best-effort ownership-checked unlink: the file is removed only if
    it still carries [mine]'s worker, pid and fence.  (The check and
    the unlink are not atomic; the fence protocol makes the benign
    race harmless — a wrongly freed chunk is just re-evaluated.) *)

val load : string -> (t, [ `Not_found | `Corrupt of string ]) result
