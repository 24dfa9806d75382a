(** Nestable timed regions with a thread-safe in-memory collector.

    [with_ "erm_brute.solve" f] times [f] on the monotonic clock and
    records a finished-span record when the sink is enabled; when it is
    disabled the call is a single branch around [f ()].  Nesting depth
    is tracked per domain, so concurrent solvers produce independent
    span stacks distinguished by [tid].

    Exporters: plain JSON ({!to_json}) and the Chrome trace-event format ({!chrome_trace}) loadable in
    [chrome://tracing] / [ui.perfetto.dev]. *)

type finished = {
  name : string;
  args : (string * string) list;  (** free-form key/value annotations *)
  start_ns : int64;  (** {!Clock.now_ns} at entry *)
  dur_ns : int64;
  depth : int;  (** nesting depth within the recording domain, 0 = root *)
  tid : int;  (** recording domain id *)
}

val with_ : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
(** Run the thunk inside a span.  The span is recorded even when the
    thunk raises (the exception is re-raised). *)

val finished : unit -> finished list
(** Every recorded span, ordered by start time (parents before their
    children). *)

val count : unit -> int
val dropped : unit -> int
(** Spans discarded because the collector cap (1,000,000 spans) was
    reached — guards against runaway instrumentation in long loops. *)

val reset : unit -> unit

(** {1 Exporters} *)

val to_json : unit -> Json.t
(** A JSON list of span objects
    [{"name", "start_ns", "dur_ns", "depth", "tid", "args"}]. *)

val chrome_trace : unit -> Json.t
(** The Chrome trace-event document:
    [{"traceEvents": [{"ph": "X", ...}], "displayTimeUnit": "ms"}].
    Timestamps and durations are microseconds, as the format demands. *)
