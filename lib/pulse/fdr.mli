(** The crash flight recorder's durable dump: the {!Obs.Event} ring
    persisted as a [FOLEARNFDR1] file.

    {b File format} — a [Resil.Framed] envelope with magic
    [FOLEARNFDR1].

    {b Dump triggers.}  SIGKILL runs no handler, so post-hard-kill
    readability comes from cadence: {!attach} writes the file
    immediately and then every [flush_every] recorded events (riding
    {!Obs.Event.set_hook}), always through [Resil.atomic_write] — the
    on-disk file is never torn.  On top of that cadence, uncaught
    exceptions dump via an installed handler, process exit dumps from
    [at_exit], and the CLI calls {!dump_now} on Guard exhaustion and
    signal shutdown. *)

type dump = {
  reason : string;
      (** what triggered the write: "attach", "cadence", "exit",
          "crash", or a CLI-supplied reason such as "guard.exhausted" *)
  written_ns : int64;
  pid : int;
  total : int;  (** events recorded in-process, including overwritten *)
  dropped : int;  (** events lost to ring wrap *)
  events : Obs.Event.t list;  (** surviving events, oldest first *)
}

val encode : dump -> string

val decode : string -> (dump, string) result
(** [decode (encode d) = Ok d]; a broken envelope ([Resil.Framed]) or
    JSON shape yields [Error]. *)

val capture : reason:string -> dump
(** Snapshot the live ring into a dump record. *)

val write : path:string -> reason:string -> unit
(** [capture] + atomic write, regardless of attachment state. *)

val load : string -> (dump, string) result
(** [Error "no such file"] when [path] cannot be read, else the
    {!decode} error. *)

val attach : ?flush_every:int -> path:string -> unit -> unit
(** Start recording to [path]: write an initial dump now, rewrite every
    [flush_every] (default 32) events, dump on uncaught exceptions and
    at process exit. *)

val dump_now : reason:string -> unit
(** Force a dump to the attached path (no-op when not attached; never
    raises). *)

val pp : Format.formatter -> dump -> unit
(** Human rendering for [folearn_cli pulse]. *)
