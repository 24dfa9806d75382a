type finished = {
  name : string;
  args : (string * string) list;
  start_ns : int64;
  dur_ns : int64;
  depth : int;
  tid : int;
}

let cap = 1_000_000
let mutex = Mutex.create ()
let collected : finished list ref = ref []
let n_collected = ref 0
let n_dropped = ref 0

let depth_key = Domain.DLS.new_key (fun () -> ref 0)

let record span =
  Mutex.lock mutex;
  if !n_collected < cap then begin
    collected := span :: !collected;
    incr n_collected
  end
  else incr n_dropped;
  Mutex.unlock mutex

let with_ ?(args = []) name f =
  if not (Sink.enabled ()) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    Event.record ~kind:"span" ~args:(("span", name) :: args) "span.open";
    let t0 = Clock.now_ns () in
    Fun.protect
      ~finally:(fun () ->
        let t1 = Clock.now_ns () in
        depth := d;
        Event.record ~kind:"span"
          ~args:
            (("span", name)
            :: ("dur_ns", Int64.to_string (Int64.sub t1 t0))
            :: args)
          "span.close";
        record
          {
            name;
            args;
            start_ns = t0;
            dur_ns = Int64.sub t1 t0;
            depth = d;
            tid = (Domain.self () :> int);
          })
      f
  end

let finished () =
  Mutex.lock mutex;
  (* [collected] is newest-first; sort over the chronological order so
     the stable tie-break keeps recording order when the clock's
     microsecond granularity gives siblings identical start stamps *)
  let spans = List.rev !collected in
  Mutex.unlock mutex;
  List.stable_sort
    (fun a b ->
      match Int64.compare a.start_ns b.start_ns with
      | 0 -> compare a.depth b.depth
      | c -> c)
    spans

let count () =
  Mutex.lock mutex;
  let n = !n_collected in
  Mutex.unlock mutex;
  n

let dropped () =
  Mutex.lock mutex;
  let n = !n_dropped in
  Mutex.unlock mutex;
  n

let reset () =
  Mutex.lock mutex;
  collected := [];
  n_collected := 0;
  n_dropped := 0;
  Mutex.unlock mutex

let args_json args =
  Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args)

let to_json () =
  Json.List
    (List.map
       (fun s ->
         Json.Obj
           [
             ("name", Json.String s.name);
             ("start_ns", Json.Int (Int64.to_int s.start_ns));
             ("dur_ns", Json.Int (Int64.to_int s.dur_ns));
             ("depth", Json.Int s.depth);
             ("tid", Json.Int s.tid);
             ("args", args_json s.args);
           ])
       (finished ()))

let chrome_trace () =
  let events =
    List.map
      (fun s ->
        Json.Obj
          [
            ("name", Json.String s.name);
            ("cat", Json.String "folearn");
            ("ph", Json.String "X");
            ("ts", Json.Float (Int64.to_float s.start_ns /. 1e3));
            ("dur", Json.Float (Int64.to_float s.dur_ns /. 1e3));
            ("pid", Json.Int 1);
            ("tid", Json.Int s.tid);
            ("args", args_json s.args);
          ])
      (finished ())
  in
  Json.Obj
    [
      ("traceEvents", Json.List events);
      ("displayTimeUnit", Json.String "ms");
    ]
