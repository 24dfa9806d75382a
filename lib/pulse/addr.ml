type t = Unix_sock of string | Tcp of string * int

let parse s =
  let s = String.trim s in
  if s = "" then Error "empty address"
  else if String.length s >= 5 && String.sub s 0 5 = "unix:" then begin
    let path = String.sub s 5 (String.length s - 5) in
    if path = "" then Error "unix: address needs a socket path"
    else Ok (Unix_sock path)
  end
  else
    let port_of p =
      match int_of_string_opt p with
      | Some n when n >= 0 && n <= 65535 -> Some n
      | _ -> None
    in
    match String.rindex_opt s ':' with
    | None -> (
        match port_of s with
        | Some p -> Ok (Tcp ("127.0.0.1", p))
        | None ->
            Error
              (Printf.sprintf
                 "cannot parse address %S (expected unix:PATH, HOST:PORT, \
                  :PORT or PORT)"
                 s))
    | Some i -> (
        let host = String.sub s 0 i in
        let port_s = String.sub s (i + 1) (String.length s - i - 1) in
        match port_of port_s with
        | Some p -> Ok (Tcp ((if host = "" then "127.0.0.1" else host), p))
        | None -> Error (Printf.sprintf "bad port %S in address %S" port_s s))

let to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "%s:%d" h p

let sockaddr = function
  | Unix_sock p -> Ok (Unix.ADDR_UNIX p)
  | Tcp (host, port) -> (
      match Unix.inet_addr_of_string host with
      | addr -> Ok (Unix.ADDR_INET (addr, port))
      | exception _ -> (
          match Unix.gethostbyname host with
          | { Unix.h_addr_list = [||]; _ } | (exception Not_found) ->
              Error (Printf.sprintf "unknown host %S" host)
          | h -> Ok (Unix.ADDR_INET (h.Unix.h_addr_list.(0), port))))

let listen addr =
  match sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
      let domain =
        match sa with
        | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
        | Unix.ADDR_INET _ -> Unix.PF_INET
      in
      match Unix.socket domain Unix.SOCK_STREAM 0 with
      | exception Unix.Unix_error (err, fn, _) ->
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
      | fd -> (
          try
            (match sa with
            | Unix.ADDR_UNIX p -> ( try Unix.unlink p with _ -> ())
            | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true);
            Unix.bind fd sa;
            Unix.listen fd 64;
            match (addr, Unix.getsockname fd) with
            | Tcp (h, _), Unix.ADDR_INET (_, port) -> Ok (fd, Tcp (h, port))
            | a, _ -> Ok (fd, a)
          with Unix.Unix_error (err, fn, _) ->
            (try Unix.close fd with _ -> ());
            Error
              (Printf.sprintf "%s %s: %s" fn (to_string addr)
                 (Unix.error_message err))))
