(** Monotonic time for instrumentation.

    The stock runtime exposes only the wall clock
    ({!Unix.gettimeofday}), which can step backwards under NTP
    adjustment — exactly the jitter benchmark numbers must not inherit.
    [now_ns] clamps the wall clock to be non-decreasing process-wide, so
    every span duration and benchmark delta is [>= 0] and ordering is
    consistent across threads.  Effective resolution is that of the
    underlying clock (about a microsecond); the nanosecond unit is for
    uniformity with trace formats. *)

val now_ns : unit -> int64
(** Nanoseconds since an arbitrary process-local origin.  Non-decreasing
    across all domains. *)

val elapsed_s : int64 -> float
(** [elapsed_s t0] is the time in seconds since the instant [t0] (a
    previous [now_ns] result). *)
