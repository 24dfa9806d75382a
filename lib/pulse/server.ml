(* A deliberately tiny HTTP/1.0 responder: one listener domain, one
   connection served at a time, four read-only routes.  Scrapes are a
   few kilobytes and arrive every few seconds, so concurrency would
   buy nothing; what matters is that the accept loop can never take
   the learner down (every per-connection step is fenced) and that
   [stop] is prompt (the loop polls its stop flag via a 0.25 s
   [select] timeout rather than parking in [accept]). *)

let progress_sampler : (unit -> Obs.Json.t) option Atomic.t = Atomic.make None
let set_progress s = Atomic.set progress_sampler s

(* Signal-graceful shutdown: between the operator's SIGTERM and the
   process exit, /healthz answers 503 so an external supervisor can
   tell a drain from a crash.  One atomic flag, safe to set from a
   signal handler. *)
let draining_flag = Atomic.make false
let set_draining b = Atomic.set draining_flag b
let draining () = Atomic.get draining_flag

type t = {
  fd : Unix.file_descr;
  bound : Addr.t;
  stopping : bool Atomic.t;
  mutable dom : unit Domain.t option;
  unix_path : string option;
}

let http_response ?(status = "200 OK") ~content_type body =
  Printf.sprintf
    "HTTP/1.0 %s\r\nContent-Type: %s\r\nContent-Length: %d\r\nConnection: \
     close\r\n\r\n%s"
    status content_type (String.length body) body

let route path =
  let ok (ct, body) = Some ("200 OK", ct, body) in
  match path with
  | "/metrics" ->
      ok
        ( "text/plain; version=0.0.4; charset=utf-8",
          Prom.render (Obs.Metric.snapshot ()) )
  | "/metrics.json" ->
      ok
        ( "application/json",
          Obs.Json.to_string
            (Obs.Metric.snapshot_to_json (Obs.Metric.snapshot ()))
          ^ "\n" )
  | "/healthz" ->
      if draining () then
        Some
          ("503 Service Unavailable", "text/plain; charset=utf-8", "draining\n")
      else ok ("text/plain; charset=utf-8", "ok\n")
  | "/progress" ->
      let j =
        match Atomic.get progress_sampler with
        | None -> Obs.Json.Obj []
        | Some f -> (
            try f ()
            with e ->
              Obs.Json.Obj
                [ ("error", Obs.Json.String (Printexc.to_string e)) ])
      in
      ok ("application/json", Obs.Json.to_string j ^ "\n")
  | _ -> None

(* read until the end of the request head, a hard cap, or EOF *)
let read_request conn =
  let buf = Buffer.create 256 in
  let chunk = Bytes.create 1024 in
  let rec go () =
    if Buffer.length buf > 8192 then ()
    else
      let head = Buffer.contents buf in
      let ends_head =
        let rec find i =
          i + 3 < String.length head
          && (String.sub head i 4 = "\r\n\r\n" || find (i + 1))
        in
        String.length head >= 4 && find 0
      in
      if ends_head || String.contains head '\n' then ()
      else
        match Unix.read conn chunk 0 (Bytes.length chunk) with
        | 0 -> ()
        | n ->
            Buffer.add_subbytes buf chunk 0 n;
            go ()
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
          ->
            ()
  in
  go ();
  Buffer.contents buf

let parse_request_path head =
  match String.index_opt head '\n' with
  | None -> None
  | Some nl -> (
      let line = String.trim (String.sub head 0 nl) in
      match String.split_on_char ' ' line with
      | meth :: target :: _ when String.uppercase_ascii meth = "GET" ->
          (* strip any query string: the routes take no parameters *)
          Some
            (match String.index_opt target '?' with
            | Some q -> String.sub target 0 q
            | None -> target)
      | _ -> None)

(* A scraper that hangs up mid-response must never take the process
   down: SIGPIPE is ignored process-wide (see [start]), so the write
   surfaces as EPIPE/ECONNRESET here — a clean client disconnect,
   counted and dropped. *)
let disconnects = Obs.Metric.counter "pulse.disconnects"

let write_all conn s =
  try Resil.write_all conn s
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) ->
    Obs.Metric.incr disconnects

let serve_conn conn =
  Fun.protect
    ~finally:(fun () -> try Unix.close conn with _ -> ())
    (fun () ->
      (try Unix.setsockopt_float conn Unix.SO_RCVTIMEO 2.0 with _ -> ());
      (try Unix.setsockopt_float conn Unix.SO_SNDTIMEO 2.0 with _ -> ());
      let head = read_request conn in
      let resp =
        match parse_request_path head with
        | None ->
            http_response ~status:"400 Bad Request"
              ~content_type:"text/plain" "bad request\n"
        | Some path -> (
            match route path with
            | Some (status, content_type, body) ->
                http_response ~status ~content_type body
            | None ->
                http_response ~status:"404 Not Found"
                  ~content_type:"text/plain" "not found\n")
      in
      write_all conn resp)

let rec accept_loop fd stopping =
  if not (Atomic.get stopping) then begin
    (match Unix.select [ fd ] [] [] 0.25 with
    | [], _, _ -> ()
    | _ :: _, _, _ ->
        if not (Atomic.get stopping) then (
          match Unix.accept fd with
          | conn, _ -> ( try serve_conn conn with _ -> ())
          | exception _ -> ())
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | exception _ -> ());
    accept_loop fd stopping
  end

let start addr =
  (* without this a client closing its socket between our write(2)s
     kills the whole process with SIGPIPE; ignoring it process-wide
     turns the condition into EPIPE, which [write_all] absorbs *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  match Addr.sockaddr addr with
  | Error e -> Error e
  | Ok sa -> (
      let dom_kind =
        match sa with
        | Unix.ADDR_UNIX _ -> Unix.PF_UNIX
        | Unix.ADDR_INET _ -> Unix.PF_INET
      in
      let fd = Unix.socket dom_kind Unix.SOCK_STREAM 0 in
      try
        (match sa with
        | Unix.ADDR_INET _ -> Unix.setsockopt fd Unix.SO_REUSEADDR true
        | Unix.ADDR_UNIX p -> ( try Unix.unlink p with _ -> ()));
        Unix.bind fd sa;
        Unix.listen fd 16;
        let bound =
          (* report the kernel-chosen port when asked to bind port 0 *)
          match (addr, Unix.getsockname fd) with
          | Addr.Tcp (h, _), Unix.ADDR_INET (_, port) -> Addr.Tcp (h, port)
          | a, _ -> a
        in
        let t =
          {
            fd;
            bound;
            stopping = Atomic.make false;
            dom = None;
            unix_path =
              (match addr with Addr.Unix_sock p -> Some p | _ -> None);
          }
        in
        t.dom <- Some (Domain.spawn (fun () -> accept_loop fd t.stopping));
        Ok t
      with
      | Unix.Unix_error (err, fn, _) ->
          (try Unix.close fd with _ -> ());
          Error (Printf.sprintf "%s: %s" fn (Unix.error_message err))
      | e ->
          (try Unix.close fd with _ -> ());
          Error (Printexc.to_string e))

let bound_addr t = t.bound

let stop t =
  Atomic.set t.stopping true;
  (match t.dom with
  | Some d ->
      t.dom <- None;
      Domain.join d
  | None -> ());
  (try Unix.close t.fd with _ -> ());
  match t.unix_path with
  | Some p -> ( try Unix.unlink p with _ -> ())
  | None -> ()
