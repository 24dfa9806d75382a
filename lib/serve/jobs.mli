(** Durable server-side job table.

    A submitted learn runs as a resumable job: its entry is persisted
    to [jobs.json] (atomic temp-file + rename, like every durable
    artefact here) on every state transition, and the run itself
    checkpoints to [job-<id>.snap] on the [Resil] cadence.  A server
    SIGKILLed mid-job finds the entry still [queued]/[running] on
    restart, re-enqueues it, and resumes from the snapshot — replaying
    to output bit-identical to an uninterrupted run, with no work lost
    and none duplicated (settled candidates are replay-skipped).

    Job ids are the run's deterministic digest ([Exec.learn_identity]),
    so re-submitting the same work is idempotent and a poll for a
    foreign or stale id is detected as a structured mismatch rather
    than answered with the wrong run's result. *)

type status = Queued | Running | Done | Shed

type job = {
  j_id : string;
  j_tenant : string;
  j_solver : string;
  j_params : Obs.Json.t;
  j_limits : Guard.Limits.t;
      (** the clamped asks, without a deadline: jobs outlive request
          deadlines by design *)
  j_status : status;
  j_code : int;  (** meaningful when [Done] *)
  j_stdout : string;
  j_stderr : string;
  j_spent : Obs.Json.t;
  j_mismatch : Resil.Snapshot.mismatch option;
      (** a foreign snapshot squats on this job's path *)
}

type t

val load : dir:string -> t
(** Create [dir] if needed and load [jobs.json] (missing or corrupt =
    empty table). *)

val submit :
  t ->
  id:string ->
  tenant:string ->
  solver:string ->
  params:Obs.Json.t ->
  limits:Guard.Limits.t ->
  [ `New of job | `Existing of job ]
(** A new job keeps [limits] without their [deadline_s]. *)

val get : t -> string -> job option
val pending : t -> job list
(** [Queued]/[Running] entries, for restart re-enqueue. *)

val mark_running : t -> string -> unit
val mark_shed : t -> string -> unit
val mark_done :
  t -> string -> code:int -> stdout:string -> stderr:string ->
  spent:Obs.Json.t -> unit

val snap_path : t -> string -> string

val resume_snapshot : t -> job -> Resil.Snapshot.t option
(** Load the job's snapshot for resume; [None] for a fresh start
    (missing or corrupt snapshot).  A [`Mismatch] marks the job and resumes fresh under the job's own id, which
    atomically replaces the squatter on the next cadence write. *)

val status_string : status -> string
