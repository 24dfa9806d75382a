(* See the .mli for the wire format; the envelope rules live in
   [Resil.Framed].  The header line is capped too (magic + 8 hex digits
   + an 18-digit length is well under 64 bytes), so a peer streaming
   garbage without a newline cannot grow a buffer unboundedly. *)

let magic = "FOLEARNRPC1"
let default_max_len = 8 * 1024 * 1024
let max_header = 64
let encode j = Resil.Framed.encode ~magic j

let decode ?(max_len = default_max_len) data =
  Resil.Framed.decode ~magic ~max_len data

(* -- socket IO ----------------------------------------------------- *)

let read_byte fd =
  let b = Bytes.create 1 in
  match Unix.read fd b 0 1 with
  | 0 -> None
  | _ -> Some (Bytes.get b 0)
  | exception Unix.Unix_error (Unix.ECONNRESET, _, _) -> None

let read ?(max_len = default_max_len) fd =
  (* byte-at-a-time for the short header only; the body is read in one
     gulp once the announced length passed the cap *)
  let header = Buffer.create 32 in
  let rec read_header () =
    if Buffer.length header > max_header then
      Error (`Error "header line too long")
    else
      match read_byte fd with
      | None ->
          if Buffer.length header = 0 then Error `Eof
          else Error (`Error "EOF inside header")
      | Some '\n' -> Ok (Buffer.contents header)
      | Some c ->
          Buffer.add_char header c;
          read_header ()
  in
  match read_header () with
  | Error _ as e -> e
  | Ok line -> (
      match Resil.Framed.parse_header ~magic ~max_len line with
      | Error e -> Error (`Error e)
      | Ok (crc, len) -> (
          (* body + trailing newline *)
          let want = len + 1 in
          let buf = Bytes.create want in
          let got = ref 0 in
          let short = ref false in
          (try
             while (not !short) && !got < want do
               match Unix.read fd buf !got (want - !got) with
               | 0 -> short := true
               | n -> got := !got + n
             done
           with Unix.Unix_error (Unix.ECONNRESET, _, _) -> short := true);
          if !short then Error (`Error "EOF inside body")
          else
            match
              Resil.Framed.check_body ~crc ~len (Bytes.unsafe_to_string buf)
            with
            | Ok j -> Ok j
            | Error e -> Error (`Error e)))

let write fd j =
  try
    Resil.write_all fd (encode j);
    Ok ()
  with
  | Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
      Error "peer disconnected"
  | Unix.Unix_error (err, _, _) -> Error (Unix.error_message err)
