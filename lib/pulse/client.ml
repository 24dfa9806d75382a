let read_all fd =
  let buf = Buffer.create 4096 in
  let chunk = Bytes.create 4096 in
  let rec go () =
    match Unix.read fd chunk 0 (Bytes.length chunk) with
    | 0 -> ()
    | n ->
        Buffer.add_subbytes buf chunk 0 n;
        go ()
  in
  (try go () with Unix.Unix_error _ -> ());
  Buffer.contents buf

let split_response resp =
  let sep = "\r\n\r\n" in
  let rec find i =
    if i + 4 > String.length resp then None
    else if String.sub resp i 4 = sep then Some i
    else find (i + 1)
  in
  match find 0 with
  | None -> Error "malformed HTTP response (no header terminator)"
  | Some i ->
      let head = String.sub resp 0 i in
      let body = String.sub resp (i + 4) (String.length resp - i - 4) in
      let status_line =
        match String.index_opt head '\r' with
        | Some nl -> String.sub head 0 nl
        | None -> head
      in
      Ok (status_line, body)

let get addr path =
  match Addr.sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
      let dom_kind =
        match sa with
        | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
        | Unix.ADDR_INET _ -> Unix.PF_INET
      in
      let fd = Unix.socket dom_kind Unix.SOCK_STREAM 0 in
      Fun.protect
        ~finally:(fun () -> try Unix.close fd with _ -> ())
        (fun () ->
          match Unix.connect fd sa with
          | exception Unix.Unix_error (err, _, _) ->
              Error
                (Printf.sprintf "connect %s: %s" (Addr.to_string addr)
                   (Unix.error_message err))
          | () -> (
              (try Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0
               with _ -> ());
              let req =
                Printf.sprintf
                  "GET %s HTTP/1.0\r\nHost: folearn\r\nConnection: \
                   close\r\n\r\n"
                  path
              in
              Resil.write_all fd req;
              match split_response (read_all fd) with
              | Error e -> Error e
              | Ok (status, body) ->
                  if
                    String.split_on_char ' ' status
                    |> List.exists (fun tok -> tok = "200")
                  then Ok body
                  else Error (Printf.sprintf "%s: %s" status (String.trim body)))))
