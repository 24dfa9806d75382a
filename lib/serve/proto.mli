(** Request/response documents carried in {!Frame} frames.

    A request names an operation, a tenant, an optional per-request
    budget, and an op-specific parameter object.  A response carries a
    status string derived from the CLI's exit-code taxonomy plus the
    run's captured stdout/stderr and resource spend, so a thin client
    can reproduce the one-shot CLI behaviour exactly: print [stdout],
    print [stderr] to stderr, exit with [code]. *)

val schema_version : int

val no_budget : Guard.Limits.t

type request = {
  tenant : string;  (** "anon" when omitted *)
  op : string;  (** learn | mc | types | game | submit | poll | ping *)
  budget : Guard.Limits.t;
      (** the client's asks, before tenant clamping; [deadline_s] is
          stamped absolute at admission *)
  params : Obs.Json.t;  (** op-specific object, see {!Exec} *)
}

val request_to_json : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result

(** {1 Statuses}

    [complete]/[degraded]/[exhausted]/[usage] mirror CLI exits
    0/3/4/2.  The service adds: [rejected] (admission precheck:
    the budget would exhaust before a first answer), [overloaded]
    (queue full, request shed), [draining] (SIGTERM received, no new
    work), [accepted]/[running]/[queued] (job lifecycle),
    [job_mismatch] (stale or foreign job id on poll), [error]
    (protocol or internal failure). *)

val status_of_code : int -> string
(** 0 -> complete, 3 -> degraded, 4 -> exhausted, _ -> usage. *)

val code_of_status : string -> int
(** Client-side exit code for a status; retryable conditions
    ([overloaded], [draining]) map to {!exit_retry}. *)

val exit_retry : int
(** 75 (EX_TEMPFAIL): the request was refused without being attempted
    and may be retried after backoff. *)

(** {1 Response builders} *)

val response :
  ?stdout:string ->
  ?stderr:string ->
  ?spent:Guard.spent ->
  ?extra:(string * Obs.Json.t) list ->
  status:string ->
  code:int ->
  unit ->
  Obs.Json.t

val rejected :
  stdout:string ->
  resource:string ->
  message:string ->
  spent:Guard.spent ->
  Obs.Json.t
(** A [rejected] response with [error.reason = "would_exhaust"] and
    the planner's resource/message; code 4, zero spend.  [stdout] is
    what the CLI prints before refusing. *)

val overloaded : message:string -> Obs.Json.t
val draining : unit -> Obs.Json.t
val error : message:string -> Obs.Json.t

val job_mismatch :
  field:string -> expected:string -> found:string -> Obs.Json.t
(** Structured mismatch mirroring [Resil.Snapshot.pp_mismatch], plus
    the CLI hint telling the caller to submit afresh. *)

(** {1 Response accessors (client side)} *)

val resp_status : Obs.Json.t -> string
val resp_code : Obs.Json.t -> int
val resp_stdout : Obs.Json.t -> string
val resp_stderr : Obs.Json.t -> string
