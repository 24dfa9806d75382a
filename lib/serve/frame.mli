(** Length-framed, CRC'd JSON frames for the folserve RPC socket: one
    frame is a [Resil.Framed] envelope with magic [FOLEARNRPC1], whose
    trailing newline ends the frame on the stream.

    Both sides enforce a frame cap: a peer announcing a body longer
    than [max_len] is cut off before any allocation, so a corrupt or
    malicious length field cannot balloon the daemon. *)

val encode : Obs.Json.t -> string
(** The full frame bytes for a JSON body. *)

val decode : ?max_len:int -> string -> (Obs.Json.t, string) result
(** [Resil.Framed.decode] with the RPC magic and a [max_len] cap
    (default 8 MiB).  [decode ?max_len (encode j) = Ok j]
    whenever [String.length (Obs.Json.to_string j) <= max_len]. *)

val read : ?max_len:int -> Unix.file_descr -> (Obs.Json.t, [ `Eof | `Error of string ]) result
(** Read exactly one frame from a socket.  [`Eof] when the peer closed
    before the first header byte (a clean disconnect); [`Error] on a
    frame that breaks a {!decode} rule, a mid-frame EOF, or a socket
    error. *)

val write : Unix.file_descr -> Obs.Json.t -> (unit, string) result
(** Write one frame; EPIPE/ECONNRESET surface as [Error] (the peer
    hung up), never as an exception. *)
