(* Lease files: see the .mli for the protocol.  A lease is a
   [Resil.Framed] envelope, and the atomic-claim primitive is link(2):
   creating a hard link fails with EEXIST when the target exists, which
   rename(2) does not. *)

let magic = "FOLEARNLEASE1"
let schema_version = 1

type t = {
  chunk : int;
  lo : int;
  hi : int;
  worker : string;
  pid : int;
  fence : int;
  deadline : float;
}

let to_json l =
  Obs.Json.Obj
    [
      ("schema_version", Obs.Json.Int schema_version);
      ("chunk", Obs.Json.Int l.chunk);
      ("lo", Obs.Json.Int l.lo);
      ("hi", Obs.Json.Int l.hi);
      ("worker", Obs.Json.String l.worker);
      ("pid", Obs.Json.Int l.pid);
      ("fence", Obs.Json.Int l.fence);
      ("deadline", Obs.Json.Float l.deadline);
    ]

let of_json j =
  let open Obs.Json in
  let ( let* ) = Result.bind in
  let* version = int_field "schema_version" j in
  if version <> schema_version then
    Error (Printf.sprintf "unsupported schema_version %d" version)
  else
    let* chunk = int_field "chunk" j in
    let* lo = int_field "lo" j in
    let* hi = int_field "hi" j in
    let* worker = string_field "worker" j in
    let* pid = int_field "pid" j in
    let* fence = int_field "fence" j in
    let* deadline = float_field "deadline" j in
    Ok { chunk; lo; hi; worker; pid; fence; deadline }

let encode l = Resil.Framed.encode ~magic (to_json l)
let decode data = Result.bind (Resil.Framed.decode ~magic data) of_json

(* unique temp names even for two claimants in one process *)
let claim_seq = Atomic.make 0

let claim ~path l =
  let tmp =
    Printf.sprintf "%s.claim.%d.%d" path (Unix.getpid ())
      (Atomic.fetch_and_add claim_seq 1)
  in
  Resil.atomic_write ~fsync:false ~path:tmp (encode l);
  let won =
    match Unix.link tmp path with
    | () -> true
    | exception Unix.Unix_error (Unix.EEXIST, _, _) -> false
  in
  (try Sys.remove tmp with _ -> ());
  won

let renew ~path l = Resil.atomic_write ~fsync:false ~path (encode l)

let load path = Resil.Framed.load ~magic of_json path

let release ~path ~mine =
  match load path with
  | Ok l
    when l.worker = mine.worker && l.pid = mine.pid && l.fence = mine.fence ->
      (try Unix.unlink path with _ -> ())
  | _ -> ()
