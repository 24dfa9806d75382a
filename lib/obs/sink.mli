(** The global instrumentation switch.

    Instrumentation points all over the library ({!Metric} counters,
    {!Span} regions) first consult this flag; when it is off — the
    default — every instrument is a branch on one atomic boolean and
    nothing else, so library hot paths keep their uninstrumented cost
    (checked by the [overhead] micro-benchmark in [bench/main.ml]).
    Select the sink once at startup ([folearn_cli] enables it when
    [--trace]/[--stats] are given; [bench/main.exe] always enables it). *)

val enabled : unit -> bool
(** Is instrumentation recording? *)

val enable : unit -> unit
val disable : unit -> unit
