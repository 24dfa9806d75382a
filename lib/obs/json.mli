(** A minimal JSON value type with a printer and a parser.

    The observability layer is zero-external-dependency by design, so it
    carries its own JSON support: enough for metrics snapshots, Chrome
    trace-event files, and the machine-readable benchmark telemetry
    ([BENCH_*.json]).  Encoding and decoding round-trip: for every value
    [v] built from finite floats, [of_string (to_string v) = Ok v]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float  (** encoded with 17 significant digits (round-trips) *)
  | String of string
  | List of t list
  | Obj of (string * t) list  (** insertion order is preserved *)

val to_string : t -> string
(** Compact, single-line encoding.  Non-finite floats encode as [null]
    (JSON has no representation for them). *)

val pp : Format.formatter -> t -> unit
(** Human-oriented encoding: two-space indentation, one member per
    line.  Still valid JSON. *)

val of_string : string -> (t, string) result
(** Parse a JSON document.  Numbers without ['.'], ['e'] or ['E'] that
    fit in an OCaml [int] decode as [Int], everything else as [Float].
    The error string carries a character offset. *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** First binding of the key in an [Obj]; [None] otherwise. *)

val to_int_opt : t -> int option
(** [Int n] gives [Some n]; an integral [Float] is truncated. *)

val to_float_opt : t -> float option
val to_string_opt : t -> string option
val to_list_opt : t -> t list option

(** {1 Field readers}

    For [of_json] decoders: the named member of an [Obj], converted as
    by the accessors above, or [Error "missing or non-KIND field
    \"NAME\""] with [prefix] (default empty) in front. *)

val int_field : ?prefix:string -> string -> t -> (int, string) result
val float_field : ?prefix:string -> string -> t -> (float, string) result
val string_field : ?prefix:string -> string -> t -> (string, string) result
val bool_field : ?prefix:string -> string -> t -> (bool, string) result
