(* The flight-recorder ring.  Unlike metrics and spans this is *not*
   gated on the sink: the events recorded here (budget trips, snapshot
   writes, span boundaries) are rare, and the whole point
   of a flight recorder is to still have the tail of the story when a
   run dies with telemetry off.  A single mutex suffices — producers
   are cold paths by construction. *)

type t = {
  seq : int;
  t_ns : int64;
  kind : string;
  name : string;
  args : (string * string) list;
  domain : int;
}

let default_capacity = 1024
let mutex = Mutex.create ()
let capacity = ref default_capacity
let ring : t option array ref = ref (Array.make default_capacity None)
let recorded = ref 0

(* Fired after every record, outside the ring lock; the pulse layer
   attaches its cadence flush here.  One slot, like [Guard]'s tick
   hook: the only subscriber today is the flight-recorder file
   writer. *)
let hook : (unit -> unit) option Atomic.t = Atomic.make None
let set_hook h = Atomic.set hook h

let set_capacity n =
  if n < 1 then invalid_arg "Obs.Event.set_capacity: capacity must be >= 1";
  Mutex.lock mutex;
  capacity := n;
  ring := Array.make n None;
  recorded := 0;
  Mutex.unlock mutex

let record ~kind ?(args = []) name =
  let t_ns = Clock.now_ns () in
  Mutex.lock mutex;
  let seq = !recorded in
  !ring.(seq mod !capacity) <-
    Some { seq; t_ns; kind; name; args; domain = (Domain.self () :> int) };
  recorded := seq + 1;
  Mutex.unlock mutex;
  match Atomic.get hook with None -> () | Some h -> h ()

let total () =
  Mutex.lock mutex;
  let n = !recorded in
  Mutex.unlock mutex;
  n

let dump () =
  Mutex.lock mutex;
  let cap = !capacity in
  let n = !recorded in
  let kept = min n cap in
  let out = ref [] in
  (* newest-first walk back over the ring, then the list is oldest-first *)
  for i = 0 to kept - 1 do
    match !ring.((n - 1 - i) mod cap) with
    | Some e -> out := e :: !out
    | None -> ()
  done;
  Mutex.unlock mutex;
  !out

let dropped () =
  Mutex.lock mutex;
  let d = max 0 (!recorded - !capacity) in
  Mutex.unlock mutex;
  d

let reset () =
  Mutex.lock mutex;
  Array.fill !ring 0 !capacity None;
  recorded := 0;
  Mutex.unlock mutex

(* ------------------------------------------------------------------ *)
(* JSON codec (used by the FOLEARNFDR1 dump format in folearn.pulse)   *)
(* ------------------------------------------------------------------ *)

let to_json e =
  Json.Obj
    [
      ("seq", Json.Int e.seq);
      ("t_ns", Json.Int (Int64.to_int e.t_ns));
      ("kind", Json.String e.kind);
      ("name", Json.String e.name);
      ("domain", Json.Int e.domain);
      ( "args",
        Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) e.args) );
    ]

let of_json j =
  let int_field name = Json.int_field ~prefix:"event: " name j in
  let str_field name = Json.string_field ~prefix:"event: " name j in
  let ( let* ) = Result.bind in
  let* seq = int_field "seq" in
  let* t_ns = int_field "t_ns" in
  let* kind = str_field "kind" in
  let* name = str_field "name" in
  let* domain = int_field "domain" in
  let* args =
    match Json.member "args" j with
    | Some (Json.Obj kvs) ->
        let rec conv acc = function
          | [] -> Ok (List.rev acc)
          | (k, Json.String v) :: rest -> conv ((k, v) :: acc) rest
          | (k, _) :: _ ->
              Error (Printf.sprintf "event: non-string arg %S" k)
        in
        conv [] kvs
    | _ -> Error "event: missing or malformed \"args\" object"
  in
  Ok { seq; t_ns = Int64.of_int t_ns; kind; name; args; domain }

let pp ppf e =
  Format.fprintf ppf "#%-6d %14Ld  d%d  %-8s %s%s" e.seq e.t_ns e.domain
    e.kind e.name
    (match e.args with
    | [] -> ""
    | args ->
        "  ["
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) args)
        ^ "]")
