(* The flight-data-recorder file: the in-memory Obs.Event ring,
   persisted as a [Resil.Framed] envelope with magic FOLEARNFDR1.

   A SIGKILL cannot run any handler, so readability after a hard kill
   comes from write cadence, not from a dump hook: [attach] writes an
   initial (possibly empty) dump immediately and then rides the
   Obs.Event post-record hook, rewriting the file every [flush_every]
   events.  Writes go through [Resil.atomic_write] (no fsync — a
   flight recorder wants freshness, and a torn file is impossible
   anyway), so the file on disk is always a complete, decodable dump.
   Guard exhaustion and signal shutdown dumps are explicit [dump_now]
   calls from the CLI; uncaught exceptions dump from the installed
   handler before the standard fatal-error report. *)

let magic = "FOLEARNFDR1"
let schema_version = 1

type dump = {
  reason : string;
  written_ns : int64;
  pid : int;
  total : int;
  dropped : int;
  events : Obs.Event.t list;
}

let to_json d =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema_version);
      ("reason", Obs.Json.String d.reason);
      ("written_ns", Obs.Json.Int (Int64.to_int d.written_ns));
      ("pid", Obs.Json.Int d.pid);
      ("total", Obs.Json.Int d.total);
      ("dropped", Obs.Json.Int d.dropped);
      ("events", Obs.Json.List (List.map Obs.Event.to_json d.events));
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* version = int_field "schema_version" j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* reason = string_field "reason" j in
    let* written_ns = int_field "written_ns" j in
    let* pid = int_field "pid" j in
    let* total = int_field "total" j in
    let* dropped = int_field "dropped" j in
    let* events =
      match member "events" j with
      | Some (List es) ->
          List.fold_left
            (fun acc e ->
              let* acc = acc in
              let* ev = Obs.Event.of_json e in
              Ok (ev :: acc))
            (Ok []) es
          |> Result.map List.rev
      | _ -> Error "missing or malformed \"events\" list"
    in
    Ok { reason; written_ns = Int64.of_int written_ns; pid; total; dropped; events }

let encode d = Resil.Framed.encode ~magic (to_json d)
let decode data = Result.bind (Resil.Framed.decode ~magic data) of_json

let capture ~reason =
  {
    reason;
    written_ns = Obs.Clock.now_ns ();
    pid = Unix.getpid ();
    total = Obs.Event.total ();
    dropped = Obs.Event.dropped ();
    events = Obs.Event.dump ();
  }

let write ~path ~reason =
  Resil.atomic_write ~fsync:false ~path (encode (capture ~reason))

let load path =
  Result.map_error
    (function `Not_found -> "no such file" | `Corrupt e -> e)
    (Resil.Framed.load ~magic of_json path)

(* ------------------------------------------------------------------ *)
(* Attachment: cadence + crash dumps into one configured file          *)
(* ------------------------------------------------------------------ *)

type attached = { path : string; flush_every : int; pending : int Atomic.t }

let attached : attached option Atomic.t = Atomic.make None

(* one writer at a time; a contended cadence flush is simply skipped *)
let write_mutex = Mutex.create ()

let dump_now ~reason =
  match Atomic.get attached with
  | None -> ()
  | Some a ->
      if Mutex.try_lock write_mutex then
        Fun.protect
          ~finally:(fun () -> Mutex.unlock write_mutex)
          (fun () -> try write ~path:a.path ~reason with _ -> ())

let event_hook () =
  match Atomic.get attached with
  | None -> ()
  | Some a ->
      let n = Atomic.fetch_and_add a.pending 1 + 1 in
      if n >= a.flush_every then begin
        Atomic.set a.pending 0;
        dump_now ~reason:"cadence"
      end

let crash_handler e bt =
  (try
     Obs.Event.record ~kind:"crash"
       ~args:[ ("exn", Printexc.to_string e) ]
       "crash.uncaught"
   with _ -> ());
  dump_now ~reason:"crash";
  (* preserve the runtime's fatal-error report; the process still
     exits 2 once this handler returns *)
  Printf.eprintf "Fatal error: exception %s\n" (Printexc.to_string e);
  if Printexc.backtrace_status () then
    prerr_string (Printexc.raw_backtrace_to_string bt)

let exit_hook_registered = ref false

let attach ?(flush_every = 32) ~path () =
  if flush_every < 1 then
    invalid_arg "Fdr.attach: flush_every must be >= 1";
  Atomic.set attached (Some { path; flush_every; pending = Atomic.make 0 });
  Obs.Event.set_hook (Some event_hook);
  Printexc.set_uncaught_exception_handler crash_handler;
  if not !exit_hook_registered then begin
    exit_hook_registered := true;
    at_exit (fun () -> dump_now ~reason:"exit")
  end;
  (* the file exists and decodes from the very first moment, so even an
     immediate SIGKILL leaves a readable dump *)
  dump_now ~reason:"attach"

let pp ppf d =
  Format.fprintf ppf
    "flight recorder dump: reason=%s pid=%d events=%d (of %d recorded, %d \
     dropped)@."
    d.reason d.pid (List.length d.events) d.total d.dropped;
  List.iter (fun e -> Format.fprintf ppf "  %a@." Obs.Event.pp e) d.events
