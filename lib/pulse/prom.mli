(** Prometheus text exposition (format version 0.0.4) of an
    {!Obs.Metric.snapshot}.

    Metric names are prefixed with [folearn_] and sanitised to the
    Prometheus charset ([.] becomes [_]).  Counters and gauges map
    directly; histograms are exported as summaries — [quantile]
    labels 0.5/0.9/0.99 plus [_sum]/[_count] — with the tracked
    minimum and maximum as companion [_min]/[_max] gauges. *)

val render : Obs.Metric.snapshot -> string
(** The full exposition document, one [# HELP]/[# TYPE] pair per
    family. *)
