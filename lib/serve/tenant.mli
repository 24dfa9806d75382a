(** Per-tenant admission quotas.

    The operator declares quotas with repeatable
    [--tenant NAME:fuel=N,deadline=S,table=N,ball=N] flags (every
    component optional).  A request's declared budget is clamped to
    its tenant's quota — the effective limit for each resource is the
    smaller of what the client asked for and what the tenant is
    allowed — and the clamped budget is what admission prechecks and
    [Guard] enforce.  The name [*] declares a default quota applied to
    tenants with no entry of their own; with no [*] entry, unlisted
    tenants are unrestricted.  A quota is a {!Guard.Limits.t}, and the
    clamp is {!Guard.Limits.meet}. *)

type t

val parse : string -> (string * Guard.Limits.t, string) result
(** Parse one [--tenant] flag value; [deadline] is the wall-clock
    allowance per request. *)

val make : (string * Guard.Limits.t) list -> t
val quota_for : t -> string -> Guard.Limits.t
