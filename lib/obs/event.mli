(** The flight-recorder event ring: a bounded, always-on buffer of the
    last N structured events (budget trips, snapshot writes, span
    boundaries).

    Unlike {!Metric} and {!Span}, recording here is {e not} gated on
    {!Sink.enabled}: producers are rare control-flow edges, and the
    recorder must still hold the tail of the story when a run dies
    with telemetry off.  The ring overwrites oldest-first once full;
    {!dump} returns what survives, {!dropped} says how much history
    was lost.

    [folearn.pulse] persists dumps in the [FOLEARNFDR1] file format
    and installs the {!set_hook} cadence writer; this module is just
    the in-memory substrate so that [lib/guard]/[lib/par]/[lib/resil]
    can record events without depending on the pulse layer. *)

type t = {
  seq : int;  (** monotone sequence number, dense from 0 *)
  t_ns : int64;  (** {!Clock.now_ns} at record time *)
  kind : string;  (** producer subsystem: "guard", "par", "resil", "span" *)
  name : string;  (** event name, e.g. "guard.trip" *)
  args : (string * string) list;  (** structured payload *)
  domain : int;  (** recording domain id *)
}

val default_capacity : int
(** 1024 events. *)

val record : kind:string -> ?args:(string * string) list -> string -> unit
(** Append one event (thread-safe; overwrites the oldest entry when
    the ring is full), then fire the hook outside the lock. *)

val set_capacity : int -> unit
(** Resize the ring; clears it.  Raises [Invalid_argument] below 1. *)

val set_hook : (unit -> unit) option -> unit
(** A single post-record hook slot — the pulse flight-recorder file
    writer attaches its flush cadence here. *)

val total : unit -> int
(** Events recorded since start/{!reset}, including overwritten ones. *)

val dropped : unit -> int
(** Events lost to ring wrap-around: [max 0 (total - capacity)]. *)

val dump : unit -> t list
(** Surviving events, oldest first; sequence numbers are contiguous. *)

val reset : unit -> unit

(** {1 JSON codec} — used by the [FOLEARNFDR1] dump format. *)

val to_json : t -> Json.t

val of_json : Json.t -> (t, string) result
(** [of_json (to_json e) = Ok e]. *)

val pp : Format.formatter -> t -> unit
(** One-line human rendering for [folearn_cli pulse]. *)
