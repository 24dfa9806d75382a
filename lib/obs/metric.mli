(** Named counters, gauges, and log-scale latency histograms.

    Metrics live in a process-global registry keyed by name:
    [counter "erm.hypotheses_enumerated"] returns the same handle
    everywhere, so independent modules can contribute to one series.
    Handles are normally created once at module initialisation and the
    mutating operations ([incr], [add], [observe], [set]) are no-ops
    while {!Sink.enabled} is false.

    {2 Sharded recording}

    Counter and histogram recording is {e per-domain sharded}: each
    domain owns a private shard of plain cells, so the hot path takes
    no lock and touches no shared cache line — a [Par] pool's workers
    record without contending.  Readers ({!value}, {!snapshot}) merge
    the shards on demand under the registry lock.  A merge concurrent
    with recording is a consistent-enough live view (it may miss the
    recording domains' very latest increments); totals read after the
    parallel region has joined are exact.  Gauges are last-write-wins
    and stay a single atomic cell.

    {2 Histograms}

    Histograms bucket observations on a log scale (4 buckets per
    doubling, so quantile estimates are exact to within ~19%) and
    additionally track count, sum, min and max.  They are intended for
    latencies in nanoseconds and for size distributions (BFS frontier
    sizes, induced-subgraph orders, radii). *)

type counter
type gauge
type histogram

(** {1 Creation (registry lookup-or-create)} *)

val counter : string -> counter
val gauge : string -> gauge
val histogram : string -> histogram

(** {1 Recording — no-ops while the sink is disabled} *)

val incr : counter -> unit
val add : counter -> int -> unit
val set : gauge -> float -> unit
val observe : histogram -> float -> unit

val prewarm : unit -> unit
(** Force-create the calling domain's shard now, so a worker's first
    recording inside a timed region does not pay the registration. *)

(** {1 Reading} *)

val value : counter -> int

(** {1 Snapshots} *)

type hist_snapshot = {
  hs_count : int;
  hs_sum : float;
  hs_min : float;  (** 0 when the histogram is empty *)
  hs_max : float;  (** 0 when the histogram is empty *)
  hs_buckets : (int * int) list;
      (** sparse [(bucket index, count)] pairs, ascending index; bucket
          [i >= 1] covers values in [[2^((i-1)/4), 2^(i/4))], bucket 0
          everything below 1 *)
}

type snapshot = {
  counters : (string * int) list;  (** sorted by name *)
  gauges : (string * float) list;
  histograms : (string * hist_snapshot) list;
}

val snapshot : unit -> snapshot
(** Merged copy of every registered metric.  Exact when no domain is
    recording concurrently (e.g. after a [Par] join); during a live
    run it is the scrape-consistent view described above. *)

val reset : unit -> unit
(** Zero every registered metric in place.  Handles held by
    instrumentation points stay valid. *)

val quantile : hist_snapshot -> float -> float
(** [quantile hs p] for [p] in [[0, 1]]: nearest-rank estimate from the
    log-scale buckets, clamped into [[hs_min, hs_max]].  [0] when
    empty. *)

val find_counter : snapshot -> string -> int
(** Counter value by name, [0] when absent — convenient for telemetry
    emitters that must always produce a key. *)

(** {1 JSON round-trip} *)

val snapshot_to_json : snapshot -> Json.t
(** Histograms additionally carry derived [p50]/[p90]/[p99] members for
    human and dashboard consumption; {!snapshot_of_json} ignores them. *)

val snapshot_of_json : Json.t -> (snapshot, string) result
(** Inverse of {!snapshot_to_json}:
    [snapshot_of_json (snapshot_to_json s) = Ok s]. *)

val pp_snapshot : Format.formatter -> snapshot -> unit
(** Human-readable table: counters, gauges, then histograms with
    count/p50/p90/p99/max columns. *)
