(* Crash-safe checkpoint/resume for in-flight learning runs.  See the
   .mli for the contract; implementation notes:

   - A snapshot file is two fixed 4 KiB slots, each a zero-padded
     [Framed] envelope with magic "FOLEARNSNAP2".  Write number [w]
     goes to slot [w mod 2] as one [O_DSYNC] write of the whole slot,
     so it can tear only the slot it overwrites; the other slot keeps
     the previous snapshot.  A load takes the valid slot with the
     higher [writes].
   - A controller that did not resume empties the file on its first
     write, so no slot of an earlier run outlives it.
   - [Ctl] keeps the settled-candidate frontier as the largest [n] such
     that every index [< n] has been reported by [chunk_done].  Chunks
     complete out of order under [Par]; intervals beyond the frontier
     park in a sorted pending list until the gap closes, so a resumed
     run never skips an index whose evaluation was lost with the
     crashed process.
   - Cadence is checked where a solver visits a candidate ([visit]),
     the first point after the previous candidate settled: one test
     of [path] when no snapshots are written, and two integer loads
     and a clock read otherwise. *)

let snapshot_writes = Obs.Metric.counter "resil.snapshot_writes"
let snapshot_loads = Obs.Metric.counter "resil.snapshot_loads"

module Crc32 = struct
  (* table-driven IEEE 802.3 / zlib CRC-32 *)
  let table =
    lazy
      (Array.init 256 (fun n ->
           let c = ref (Int32.of_int n) in
           for _ = 0 to 7 do
             c :=
               if Int32.logand !c 1l <> 0l then
                 Int32.logxor 0xEDB88320l (Int32.shift_right_logical !c 1)
               else Int32.shift_right_logical !c 1
           done;
           !c))

  let string ?(crc = 0l) s =
    let t = Lazy.force table in
    let c = ref (Int32.logxor crc (-1l)) in
    String.iter
      (fun ch ->
        let i =
          Int32.to_int
            (Int32.logand
               (Int32.logxor !c (Int32.of_int (Char.code ch)))
               0xFFl)
        in
        c := Int32.logxor t.(i) (Int32.shift_right_logical !c 8))
      s;
    Int32.logxor !c (-1l)

  let to_hex c = Printf.sprintf "%08lx" c
end

let write_all fd data =
  let n = String.length data in
  let written = ref 0 in
  while !written < n do
    written := !written + Unix.write_substring fd data !written (n - !written)
  done

let atomic_write ?(fsync = true) ~path data =
  let tmp = Printf.sprintf "%s.tmp.%d" path (Unix.getpid ()) in
  let fd =
    Unix.openfile tmp [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  (try
     write_all fd data;
     if fsync then Unix.fsync fd;
     Unix.close fd
   with e ->
     (try Unix.close fd with _ -> ());
     (try Sys.remove tmp with _ -> ());
     raise e);
  Unix.rename tmp path;
  if fsync then (
    (* make the rename itself durable; failure only weakens durability,
       never atomicity, so it is best-effort *)
    match Unix.openfile (Filename.dirname path) [ Unix.O_RDONLY ] 0 with
    | dfd ->
        (try Unix.fsync dfd with _ -> ());
        (try Unix.close dfd with _ -> ())
    | exception _ -> ())

module Framed = struct
  let encode ~magic j =
    let body = Obs.Json.to_string j in
    Printf.sprintf "%s %s %d\n%s\n" magic
      (Crc32.to_hex (Crc32.string body))
      (String.length body) body

  let is_hex = function
    | '0' .. '9' | 'a' .. 'f' | 'A' .. 'F' -> true
    | _ -> false

  let is_digit = function '0' .. '9' -> true | _ -> false

  (* Digits only: [int_of_string] alone would also take signs, [0x],
     [0o], [0b] and [_].  Eighteen decimal digits stay below [max_int],
     so neither conversion can fail. *)
  let parse_header ~magic ?max_len line =
    match String.split_on_char ' ' line with
    | [ m; crc_hex; len_s ] when m = magic -> (
        if
          String.length crc_hex <> 8
          || (not (String.for_all is_hex crc_hex))
          || len_s = "" || String.length len_s > 18
          || not (String.for_all is_digit len_s)
        then Error "malformed header fields"
        else
          let crc = int_of_string ("0x" ^ crc_hex) in
          let len = int_of_string len_s in
          match max_len with
          | Some cap when len > cap ->
              Error (Printf.sprintf "frame too large (%d > %d)" len cap)
          | _ -> Ok (crc, len))
    | m :: _ when m <> magic -> Error (Printf.sprintf "bad magic %S" m)
    | _ -> Error "malformed header line"

  let check_body ~crc ~len ?(pos = 0) data =
    (* compared by subtraction: [pos + len] may overflow *)
    if String.length data - pos <= len then Error "truncated body"
    else if data.[pos + len] <> '\n' then Error "missing frame terminator"
    else
      let body = String.sub data pos len in
      let actual = Int32.to_int (Crc32.string body) land 0xFFFFFFFF in
      if actual <> crc then
        Error
          (Printf.sprintf "CRC mismatch (header %08x, body %08x)" crc actual)
      else
        Result.map_error
          (fun e -> "body is not JSON: " ^ e)
          (Obs.Json.of_string body)

  let decode ~magic ?max_len data =
    match String.index_opt data '\n' with
    | None -> Error "missing header line"
    | Some nl ->
        Result.bind
          (parse_header ~magic ?max_len (String.sub data 0 nl))
          (fun (crc, len) -> check_body ~crc ~len ~pos:(nl + 1) data)

  let load ~magic of_json path =
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Error `Not_found
    | data ->
        Result.map_error
          (fun e -> `Corrupt e)
          (Result.bind (decode ~magic data) of_json)
end

module Snapshot = struct
  let schema_version = 1
  let magic = "FOLEARNSNAP2"
  let slot_size = 4096

  type t = {
    run_id : string;
    solver : string;
    cursor : int;
    best : (int * int) option;
    complete : bool;
    writes : int;
    spent_fuel : int;
    elapsed_ns : int64;
    counters : (string * int) list;
  }

  let to_json s =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int schema_version);
        ("run_id", Obs.Json.String s.run_id);
        ("solver", Obs.Json.String s.solver);
        ("cursor", Obs.Json.Int s.cursor);
        ( "best",
          match s.best with
          | None -> Obs.Json.Null
          | Some (i, e) ->
              Obs.Json.Obj
                [ ("index", Obs.Json.Int i); ("errors", Obs.Json.Int e) ] );
        ("complete", Obs.Json.Bool s.complete);
        ("writes", Obs.Json.Int s.writes);
        ("spent_fuel", Obs.Json.Int s.spent_fuel);
        ("elapsed_ns", Obs.Json.Int (Int64.to_int s.elapsed_ns));
        ( "counters",
          Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) s.counters)
        );
      ]

  let of_json j =
    let open Obs.Json in
    let ( let* ) = Result.bind in
    let* version = int_field "schema_version" j in
    if version <> schema_version then
      Error (Printf.sprintf "unsupported schema_version %d" version)
    else
      let* run_id = string_field "run_id" j in
      let* solver = string_field "solver" j in
      let* cursor = int_field "cursor" j in
      let* best =
        match member "best" j with
        | None | Some Null -> Ok None
        | Some b -> (
            match
              ( Option.bind (member "index" b) to_int_opt,
                Option.bind (member "errors" b) to_int_opt )
            with
            | Some i, Some e -> Ok (Some (i, e))
            | _ -> Error "malformed \"best\" object")
      in
      let* complete = bool_field "complete" j in
      let* writes = int_field "writes" j in
      let* spent_fuel = int_field "spent_fuel" j in
      let* elapsed = int_field "elapsed_ns" j in
      let* counters =
        match member "counters" j with
        | Some (Obj kvs) ->
            let rec conv acc = function
              | [] -> Ok (List.rev acc)
              | (k, Int v) :: rest -> conv ((k, v) :: acc) rest
              | (k, _) :: _ ->
                  Error (Printf.sprintf "non-int counter %S" k)
            in
            conv [] kvs
        | _ -> Error "missing or malformed \"counters\" object"
      in
      Ok
        {
          run_id;
          solver;
          cursor;
          best;
          complete;
          writes;
          spent_fuel;
          elapsed_ns = Int64.of_int elapsed;
          counters;
        }

  let encode s = Framed.encode ~magic (to_json s)
  let decode data = Result.bind (Framed.decode ~magic data) of_json

  (* One data-integrity write of the slot of [s]; [fresh] first
     empties the file. *)
  let store ~fresh ~path s =
    Obs.Span.with_ "resil.snapshot.save"
      ~args:[ ("cursor", string_of_int s.cursor) ]
    @@ fun () ->
    let frame = encode s in
    let len = String.length frame in
    if len > slot_size then
      invalid_arg
        (Printf.sprintf
           "Resil.Snapshot.save: a %d-byte frame exceeds its %d-byte slot" len
           slot_size);
    let fd =
      Unix.openfile path
        (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_DSYNC
        :: (if fresh then [ Unix.O_TRUNC ] else []))
        0o644
    in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        ignore (Unix.lseek fd (s.writes land 1 * slot_size) Unix.SEEK_SET);
        write_all fd (frame ^ String.make (slot_size - len) '\000'));
    Obs.Metric.incr snapshot_writes;
    Obs.Event.record ~kind:"resil"
      ~args:
        [
          ("path", path);
          ("cursor", string_of_int s.cursor);
          ("writes", string_of_int s.writes);
          ("complete", string_of_bool s.complete);
        ]
      "resil.snapshot.save"

  let save ~path s = store ~fresh:false ~path s

  (* The valid slot with the higher [writes].  A file whose two slots
     are blank (empty or zero bytes: a fresh run's first write had not
     landed) holds no snapshot.  When neither slot is valid, the error
     is the first slot's, unless that one is blank (a fresh run's first
     write goes to the second). *)
  let load path =
    Obs.Span.with_ "resil.snapshot.load" @@ fun () ->
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Error `Not_found
    | data -> (
        let slot i =
          let lo = min (String.length data) (i * slot_size) in
          String.sub data lo (min slot_size (String.length data - lo))
        in
        let blank i = String.for_all (( = ) '\000') (slot i) in
        match (decode (slot 0), decode (slot 1)) with
        | Ok a, Ok b ->
            Obs.Metric.incr snapshot_loads;
            Ok (if b.writes > a.writes then b else a)
        | Ok s, Error _ | Error _, Ok s ->
            Obs.Metric.incr snapshot_loads;
            Ok s
        | Error e0, Error e1 ->
            if not (blank 0) then Error (`Corrupt e0)
            else if not (blank 1) then Error (`Corrupt e1)
            else Error `Not_found)

  type mismatch = { field : string; expected : string; found : string }

  let pp_mismatch ppf m =
    Format.fprintf ppf "snapshot %s mismatch: expected %s, found %s" m.field
      m.expected m.found

  (* Identity-checked load: resuming a snapshot written for a different
     run or by a different solver would silently replay-skip the wrong
     candidates, so the caller gets the exact field that disagrees
     instead of a generic failure string. *)
  let load_for ~run_id ~solver path =
    match load path with
    | Error (`Not_found | `Corrupt _) as e -> e
    | Ok s ->
        if s.run_id <> run_id then
          Error
            (`Mismatch { field = "run id"; expected = run_id; found = s.run_id })
        else if s.solver <> solver then
          Error
            (`Mismatch { field = "solver"; expected = solver; found = s.solver })
        else Ok s
end

module Ctl = struct
  let default_interval_s = 2.0

  type t = {
    active : bool;
    track : bool;  (* maintain the frontier/best, even when not active *)
    run_id : string;
    solver : string;
    path : string option;
    every : int;  (* candidate cadence; [max_int] = time-driven only *)
    interval_ns : int64;
    budget : Guard.Budget.t option;
    counter_names : string list;
    resume_cursor : int;
    resume_best : (int * int) option;
    resumed : bool;
    mutable fresh : bool;  (* the next write empties the file first *)
    m : Mutex.t;  (* frontier / pending / best / writes *)
    mutable frontier : int;
    mutable pending : (int * int) list;  (* sorted disjoint [lo, hi) *)
    mutable best : (int * int) option;
    mutable writes : int;
    mutable last_write_frontier : int;
    mutable last_write_ns : int64;
    wm : Mutex.t;  (* serialises snapshot file writes *)
  }

  let make ~active ?(track = active) ?path ?(every = max_int)
      ?(interval_s = default_interval_s) ?budget ?resume ~run_id ~solver () =
    let counter_names =
      [ "erm.hypotheses_enumerated"; "erm.consistency_checks" ]
    in
    {
      active;
      track;
      run_id;
      solver;
      path;
      every = max 1 every;
      interval_ns = Int64.of_float (Float.max 0.001 interval_s *. 1e9);
      budget;
      counter_names;
      resume_cursor =
        (match resume with Some (s : Snapshot.t) -> s.cursor | None -> 0);
      resume_best = (match resume with Some s -> s.best | None -> None);
      resumed = Option.is_some resume;
      fresh = Option.is_none resume;
      m = Mutex.create ();
      frontier = 0;
      pending = [];
      best = None;
      writes = (match resume with Some s -> s.writes | None -> 0);
      last_write_frontier = 0;
      last_write_ns = Obs.Clock.now_ns ();
      wm = Mutex.create ();
    }

  let none = make ~active:false ~run_id:"" ~solver:"" ()

  let create ?path ?every ?interval_s ?budget ?resume ~run_id ~solver () =
    make ~active:true ?path ?every ?interval_s ?budget ?resume ~run_id ~solver
      ()

  (* A passive frontier tracker for live /progress reporting: it keeps
     the settled frontier and best-so-far that [chunk_done] reports but
     is not "active" — solvers still run their admission prechecks and
     never treat the run as checkpointed/resumable. *)
  let observer ~run_id ~solver () =
    make ~active:false ~track:true ~run_id ~solver ()

  let active t = t.active
  let resumed t = t.resumed
  let resume_cursor t = t.resume_cursor
  let writes t = t.writes
  let frontier t = t.frontier

  let best t =
    Mutex.lock t.m;
    let b = t.best in
    Mutex.unlock t.m;
    b

  let should_eval t i =
    (not t.active)
    || i >= t.resume_cursor
    || (match t.resume_best with Some (b, _) -> i = b | None -> false)

  (* lex-min on (errors, index): monotone under re-reporting, so a
     stale caller view can never regress the recorded best *)
  let lex_min a b =
    match (a, b) with
    | None, x | x, None -> x
    | Some (ai, ae), Some (bi, be) ->
        if be < ae || (be = ae && bi <= ai) then b else a

  let merge_best t best = t.best <- lex_min t.best best

  let rec absorb t =
    match t.pending with
    | (lo, hi) :: rest when lo <= t.frontier ->
        if hi > t.frontier then t.frontier <- hi;
        t.pending <- rest;
        absorb t
    | _ -> ()

  let rec insert_interval iv = function
    | [] -> [ iv ]
    | (lo, _) :: _ as rest when fst iv <= lo -> iv :: rest
    | head :: rest -> head :: insert_interval iv rest

  let chunk_done t ~lo ~hi ~best =
    if t.track && hi > lo then begin
      Mutex.lock t.m;
      merge_best t best;
      if lo <= t.frontier then begin
        if hi > t.frontier then t.frontier <- hi;
        absorb t
      end
      else t.pending <- insert_interval (lo, hi) t.pending;
      Mutex.unlock t.m
    end

  let assemble t ~complete =
    (* caller holds [t.m] *)
    t.writes <- t.writes + 1;
    let snap =
      {
        Snapshot.run_id = t.run_id;
        solver = t.solver;
        (* while a resumed run replays the candidates below its resume
           cursor, the snapshot it resumed from still covers them: a
           snapshot never moves back behind it *)
        cursor = max t.frontier t.resume_cursor;
        best = lex_min t.best t.resume_best;
        complete;
        writes = t.writes;
        spent_fuel =
          (match t.budget with
          | Some b -> (Guard.Budget.spent b).Guard.fuel
          | None -> 0);
        elapsed_ns =
          (match t.budget with
          | Some b -> (Guard.Budget.spent b).Guard.elapsed_ns
          | None -> 0L);
        counters =
          List.map
            (fun n -> (n, Obs.Metric.value (Obs.Metric.counter n)))
            t.counter_names;
      }
    in
    t.last_write_frontier <- t.frontier;
    t.last_write_ns <- Obs.Clock.now_ns ();
    snap

  (* caller holds [t.wm] *)
  let write_locked t ~complete =
    match t.path with
    | None -> ()
    | Some path ->
        Mutex.lock t.m;
        let snap = assemble t ~complete in
        Mutex.unlock t.m;
        Snapshot.store ~fresh:t.fresh ~path snap;
        t.fresh <- false

  let candidate_due t =
    t.every < max_int && t.frontier - t.last_write_frontier >= t.every

  let interval_due t =
    Int64.sub (Obs.Clock.now_ns ()) t.last_write_ns >= t.interval_ns

  let visit t =
    if
      t.path <> None
      && (candidate_due t || interval_due t)
      && Mutex.try_lock t.wm
    then
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () -> try write_locked t ~complete:false with _ -> ())

  let flush ?(complete = false) t =
    if t.active && t.path <> None then begin
      Mutex.lock t.wm;
      Fun.protect
        ~finally:(fun () -> Mutex.unlock t.wm)
        (fun () -> write_locked t ~complete)
    end
end
