(* Fault-tolerant multi-process ERM sharding.  See the .mli for the
   protocol; implementation notes:

   - Everything durable goes through [Resil.atomic_write] (or
     [Lease.claim]'s link(2)), so every file in the fleet directory is
     either absent, a previous complete version, or the new complete
     version — the coordinator never parses torn state.
   - The coordinator is a poll loop, not an event loop: each pass
     reaps/respawns workers, ingests published results and failure
     reports, expires dead leases, and refreshes the monitor.  The
     poll period is well below the heartbeat, so a dead worker's chunk
     returns to the pool within one heartbeat of its deadline.
   - Retry policy mirrors [Par]'s in-process fault isolation: failures
     bump the chunk's fence and back off exponentially (capped, with
     deterministic jitter); a chunk that reaches [max_attempts]
     failures is quarantined into the poison list and the run settles
     around it, reporting degradation instead of wedging. *)

module Lease = Lease

let leases_claimed_c = Obs.Metric.counter "fleet.leases_claimed"
let leases_expired_c = Obs.Metric.counter "fleet.leases_expired"
let chunks_done_c = Obs.Metric.counter "fleet.chunks_done"
let chunks_quarantined_c = Obs.Metric.counter "fleet.chunks_quarantined"
let stale_publishes_c = Obs.Metric.counter "fleet.stale_publishes"
let workers_respawned_c = Obs.Metric.counter "fleet.workers_respawned"
let failures_retried_c = Obs.Metric.counter "fleet.failures_retried"

let mkdir_p path =
  let rec go p =
    if p <> "" && p <> "/" && p <> "." && not (Sys.file_exists p) then begin
      go (Filename.dirname p);
      try Unix.mkdir p 0o755
      with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go path

module Layout = struct
  let meta dir = Filename.concat dir "meta.json"
  let leases_dir dir = Filename.concat dir "leases"
  let lease dir c = Filename.concat (leases_dir dir) (Printf.sprintf "%06d.lease" c)
  let fence_dir dir = Filename.concat dir "fence"
  let fence dir c = Filename.concat (fence_dir dir) (Printf.sprintf "%06d.json" c)
  let done_dir dir = Filename.concat dir "done"
  let done_file dir c = Filename.concat (done_dir dir) (Printf.sprintf "%06d.snap" c)
  let fail_dir dir = Filename.concat dir "fail"

  let fail_file dir c ~fence =
    Filename.concat (fail_dir dir) (Printf.sprintf "%06d.f%d.json" c fence)

  let poison_dir dir = Filename.concat dir "poison"

  let poison_file dir c =
    Filename.concat (poison_dir dir) (Printf.sprintf "%06d.json" c)

  let workers_dir dir = Filename.concat dir "workers"
  let worker_reg dir id = Filename.concat (workers_dir dir) (id ^ ".json")
  let done_marker dir = Filename.concat dir "DONE"
  let summary dir = Filename.concat dir "summary.json"

  let ensure dir =
    List.iter mkdir_p
      [
        dir; leases_dir dir; fence_dir dir; done_dir dir; fail_dir dir;
        poison_dir dir; workers_dir dir;
      ]
end

(* ------------------------------------------------------------------ *)
(* Run metadata                                                        *)
(* ------------------------------------------------------------------ *)

module Meta = struct
  type t = {
    run_id : string;
    solver : string;
    total : int;
    chunk_size : int;
    heartbeat_s : float;
    max_attempts : int;
    sample_size : int;
  }

  let to_json m =
    Obs.Json.Obj
      [
        ("schema_version", Obs.Json.Int 1);
        ("run_id", Obs.Json.String m.run_id);
        ("solver", Obs.Json.String m.solver);
        ("total", Obs.Json.Int m.total);
        ("chunk_size", Obs.Json.Int m.chunk_size);
        ("heartbeat_s", Obs.Json.Float m.heartbeat_s);
        ("max_attempts", Obs.Json.Int m.max_attempts);
        ("sample_size", Obs.Json.Int m.sample_size);
      ]

  let of_json j =
    let open Obs.Json in
    let ( let* ) = Result.bind in
    let* run_id = string_field "run_id" j in
    let* solver = string_field "solver" j in
    let* total = int_field "total" j in
    let* chunk_size = int_field "chunk_size" j in
    let* heartbeat_s = float_field "heartbeat_s" j in
    let* max_attempts = int_field "max_attempts" j in
    let* sample_size = int_field "sample_size" j in
    Ok { run_id; solver; total; chunk_size; heartbeat_s; max_attempts;
         sample_size }

  let save ~dir m =
    Resil.atomic_write ~path:(Layout.meta dir) (Obs.Json.to_string (to_json m))

  let load dir =
    let path = Layout.meta dir in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> Error `Not_found
    | data -> (
        match Obs.Json.of_string data with
        | Error e -> Error (`Corrupt ("meta is not JSON: " ^ e))
        | Ok j -> (
            match of_json j with
            | Ok m -> Ok m
            | Error e -> Error (`Corrupt e)))
end

let nchunks ~total ~chunk_size =
  if total <= 0 then 0 else (total + chunk_size - 1) / chunk_size

let chunk_range ~total ~chunk_size c =
  (c * chunk_size, min total ((c + 1) * chunk_size))

(* ------------------------------------------------------------------ *)
(* Fence records                                                       *)
(* ------------------------------------------------------------------ *)

(* The fence token is the chunk's claim epoch: bumped on every lease
   expiry and every processed failure, persisted so a restarted
   coordinator keeps rejecting publishes from before the bump.
   [attempts] counts failures (not expiries) toward quarantine and
   [not_before] is the backoff gate claimants respect. *)
module Fence = struct
  type t = { fence : int; attempts : int; not_before : float }

  let zero = { fence = 0; attempts = 0; not_before = 0.0 }

  let load dir c =
    let path = Layout.fence dir c in
    match In_channel.with_open_bin path In_channel.input_all with
    | exception Sys_error _ -> zero
    | data -> (
        match Obs.Json.of_string data with
        | Error _ -> zero
        | Ok j ->
            let int_f name d =
              match Option.bind (Obs.Json.member name j) Obs.Json.to_int_opt with
              | Some v -> v
              | None -> d
            in
            let nb =
              match
                Option.bind (Obs.Json.member "not_before" j)
                  Obs.Json.to_float_opt
              with
              | Some v -> v
              | None -> 0.0
            in
            { fence = int_f "fence" 0; attempts = int_f "attempts" 0;
              not_before = nb })

  let save dir c f =
    Resil.atomic_write ~fsync:false ~path:(Layout.fence dir c)
      (Obs.Json.to_string
         (Obs.Json.Obj
            [
              ("fence", Obs.Json.Int f.fence);
              ("attempts", Obs.Json.Int f.attempts);
              ("not_before", Obs.Json.Float f.not_before);
            ]))
end

(* ------------------------------------------------------------------ *)
(* Chaos injection                                                     *)
(* ------------------------------------------------------------------ *)

type chaos = Poison of int | Flaky of int * int

let parse_chaos spec =
  let parse_one term =
    match String.split_on_char ':' (String.trim term) with
    | [ "poison"; c ] -> (
        match int_of_string_opt c with
        | Some c -> Ok (Poison c)
        | None -> Error (Printf.sprintf "bad poison chunk %S" c))
    | [ "flaky"; c; n ] -> (
        match (int_of_string_opt c, int_of_string_opt n) with
        | Some c, Some n -> Ok (Flaky (c, n))
        | _ -> Error (Printf.sprintf "bad flaky term %S" term))
    | _ ->
        Error
          (Printf.sprintf "unknown chaos term %S (poison:C or flaky:C:N)" term)
  in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | t :: rest -> (
        match parse_one t with Ok c -> go (c :: acc) rest | Error _ as e -> e)
  in
  go [] (List.filter (( <> ) "") (String.split_on_char ',' spec))

(* Raised inside the worker's fenced chunk evaluation; the exception
   class decides transient (retried) vs deterministic (quarantined). *)
let chaos_trip chaos ~chunk ~fence =
  List.iter
    (function
      | Poison c when c = chunk ->
          invalid_arg (Printf.sprintf "chaos: poisoned chunk %d" chunk)
      | Flaky (c, n) when c = chunk && fence < n ->
          failwith
            (Printf.sprintf "chaos: flaky chunk %d (claim %d of %d)" chunk
               (fence + 1) n)
      | _ -> ())
    chaos

(* ------------------------------------------------------------------ *)
(* Publishing                                                          *)
(* ------------------------------------------------------------------ *)

(* A settled chunk is a [Resil.Snapshot] whose cursor is the chunk's
   upper bound; the chunk id, lower bound and fence ride the counters
   list so the record stays within the standard snapshot schema. *)
let publish_done ~dir ~(meta : Meta.t) ~chunk ~fence ~best =
  let lo, hi =
    chunk_range ~total:meta.Meta.total ~chunk_size:meta.Meta.chunk_size chunk
  in
  Resil.Snapshot.save ~path:(Layout.done_file dir chunk)
    {
      Resil.Snapshot.run_id = meta.Meta.run_id;
      solver = meta.Meta.solver;
      cursor = hi;
      best;
      complete = false;
      writes = 1;
      spent_fuel = 0;
      elapsed_ns = 0L;
      counters =
        [ ("fleet.chunk", chunk); ("fleet.lo", lo); ("fleet.fence", fence) ];
    }

let publish_fail ~dir ~chunk ~fence ~worker ~deterministic ~message =
  Resil.atomic_write ~path:(Layout.fail_file dir chunk ~fence)
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("chunk", Obs.Json.Int chunk);
            ("fence", Obs.Json.Int fence);
            ("worker", Obs.Json.String worker);
            ("deterministic", Obs.Json.Bool deterministic);
            ("message", Obs.Json.String message);
          ]))

let snap_counter name (s : Resil.Snapshot.t) =
  List.assoc_opt name s.Resil.Snapshot.counters

(* ------------------------------------------------------------------ *)
(* Worker                                                              *)
(* ------------------------------------------------------------------ *)

type worker_cfg = {
  w_dir : string;
  w_id : string;
  w_run_id : string;
  w_solver : string;
  w_parent : int option;
  w_chaos : chaos list;
  w_make_budget : unit -> Guard.Budget.t option;
  w_reclaim : unit -> unit;
}

let wait_for_meta dir ~timeout_s =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    match Meta.load dir with
    | Ok m -> Ok m
    | Error (`Corrupt _) as e when Unix.gettimeofday () >= deadline -> e
    | Error `Not_found when Unix.gettimeofday () >= deadline ->
        Error `Not_found
    | Error _ ->
        Unix.sleepf 0.05;
        go ()
  in
  go ()

let register_worker ~dir ~id =
  Resil.atomic_write ~fsync:false ~path:(Layout.worker_reg dir id)
    (Obs.Json.to_string
       (Obs.Json.Obj
          [
            ("id", Obs.Json.String id);
            ("pid", Obs.Json.Int (Unix.getpid ()));
            ("started", Obs.Json.Float (Unix.gettimeofday ()));
          ]))

let orphaned cfg =
  match cfg.w_parent with
  | None -> false
  | Some p -> Unix.getppid () <> p

(* Evaluate one claimed chunk under its own heartbeat renewer (a
   domain that keeps pushing the lease deadline while the evaluation
   runs) and publish the result.  The lease is released only on the
   success path: a failure leaves it in place so other claimants stay
   away until the coordinator has processed the failure report and
   bumped the fence. *)
let process_chunk cfg ~(meta : Meta.t) ~eval ~chunk ~fence (lease : Lease.t) =
  Obs.Metric.incr leases_claimed_c;
  let lease_path = Layout.lease cfg.w_dir chunk in
  let stop = Atomic.make false in
  let renewer =
    Domain.spawn (fun () ->
        let period = Float.max 0.02 (meta.Meta.heartbeat_s /. 3.0) in
        let rec go last =
          if not (Atomic.get stop) then begin
            let now = Unix.gettimeofday () in
            if now -. last >= period then begin
              (try
                 Lease.renew ~path:lease_path
                   { lease with Lease.deadline = now +. meta.Meta.heartbeat_s }
               with _ -> ());
              go now
            end
            else begin
              Unix.sleepf 0.02;
              go last
            end
          end
        in
        go (Unix.gettimeofday ()))
  in
  let lo, hi =
    chunk_range ~total:meta.Meta.total ~chunk_size:meta.Meta.chunk_size chunk
  in
  let result =
    try
      chaos_trip cfg.w_chaos ~chunk ~fence;
      match
        Guard.run
          ?budget:(cfg.w_make_budget ())
          ~salvage:(fun () -> None)
          (fun () -> eval ~lo ~hi)
      with
      | Guard.Complete best -> Ok best
      | Guard.Exhausted { reason; _ } ->
          Error
            ( Guard.reason_is_deterministic reason,
              "budget exhausted: " ^ Guard.reason_to_string reason )
    with e -> Error (Par.non_retryable e, Printexc.to_string e)
  in
  Atomic.set stop true;
  Domain.join renewer;
  match result with
  | Ok best ->
      publish_done ~dir:cfg.w_dir ~meta ~chunk ~fence ~best;
      Lease.release ~path:lease_path ~mine:lease
  | Error (deterministic, message) ->
      publish_fail ~dir:cfg.w_dir ~chunk ~fence ~worker:cfg.w_id ~deterministic
        ~message

let worker cfg ~eval =
  match wait_for_meta cfg.w_dir ~timeout_s:30.0 with
  | Error `Not_found ->
      Printf.eprintf "folearn fleet worker %s: no meta.json in %s\n%!" cfg.w_id
        cfg.w_dir;
      1
  | Error (`Corrupt e) ->
      Printf.eprintf "folearn fleet worker %s: corrupt meta.json: %s\n%!"
        cfg.w_id e;
      1
  | Ok meta ->
      if meta.Meta.run_id <> cfg.w_run_id then begin
        Printf.eprintf
          "folearn fleet worker %s: fleet directory belongs to a different \
           run (id %s, expected %s)\n\
           %!"
          cfg.w_id meta.Meta.run_id cfg.w_run_id;
        1
      end
      else if meta.Meta.solver <> cfg.w_solver then begin
        Printf.eprintf
          "folearn fleet worker %s: fleet directory was sharded for solver \
           %s, this worker runs %s\n\
           %!"
          cfg.w_id meta.Meta.solver cfg.w_solver;
        1
      end
      else begin
        register_worker ~dir:cfg.w_dir ~id:cfg.w_id;
        let n =
          nchunks ~total:meta.Meta.total ~chunk_size:meta.Meta.chunk_size
        in
        (* spread claimants across the chunk space to cut claim races *)
        let start = if n = 0 then 0 else Hashtbl.hash cfg.w_id mod n in
        (* after publishing a failure, stay away from the chunk until
           the coordinator has bumped its fence past the failed claim *)
        let last_failed : (int, int) Hashtbl.t = Hashtbl.create 8 in
        let try_claim c =
          let done_f = Layout.done_file cfg.w_dir c in
          let poison_f = Layout.poison_file cfg.w_dir c in
          let lease_path = Layout.lease cfg.w_dir c in
          if Sys.file_exists done_f || Sys.file_exists poison_f
             || Sys.file_exists lease_path
          then None
          else
            let fence = Fence.load cfg.w_dir c in
            let stale_failure =
              match Hashtbl.find_opt last_failed c with
              | Some f -> fence.Fence.fence <= f
              | None -> false
            in
            if stale_failure || Unix.gettimeofday () < fence.Fence.not_before
            then None
            else
              let lo, hi =
                chunk_range ~total:meta.Meta.total
                  ~chunk_size:meta.Meta.chunk_size c
              in
              let lease =
                {
                  Lease.chunk = c;
                  lo;
                  hi;
                  worker = cfg.w_id;
                  pid = Unix.getpid ();
                  fence = fence.Fence.fence;
                  deadline = Unix.gettimeofday () +. meta.Meta.heartbeat_s;
                }
              in
              if Lease.claim ~path:lease_path lease then
                Some (c, fence.Fence.fence, lease)
              else None
        in
        let claim_somewhere () =
          let rec go i =
            if i >= n then None
            else
              match try_claim ((start + i) mod n) with
              | Some _ as r -> r
              | None -> go (i + 1)
          in
          go 0
        in
        let idle = Float.max 0.02 (Float.min 0.1 (meta.Meta.heartbeat_s /. 5.0)) in
        let rec loop () =
          if Sys.file_exists (Layout.done_marker cfg.w_dir) then 0
          else if orphaned cfg then 0
          else
            match claim_somewhere () with
            | Some (chunk, fence, lease) ->
                process_chunk cfg ~meta ~eval ~chunk ~fence lease;
                (match
                   Sys.file_exists (Layout.fail_file cfg.w_dir chunk ~fence)
                 with
                | true -> Hashtbl.replace last_failed chunk fence
                | false -> ());
                (* quiescent point: the chunk result is published and
                   carries only counters, so the caller may reclaim
                   per-process caches (e.g. intern registries) here *)
                cfg.w_reclaim ();
                loop ()
            | None ->
                Unix.sleepf idle;
                loop ()
        in
        loop ()
      end

(* ------------------------------------------------------------------ *)
(* Coordinator                                                         *)
(* ------------------------------------------------------------------ *)

module Monitor = struct
  type worker_view = { mw_id : string; mw_pid : int; mw_alive : bool }

  type t = {
    mu : Mutex.t;
    mutable workers : worker_view list;
    mutable total_chunks : int;
    mutable settled_chunks : int;
    mutable leased_chunks : int;
    mutable quarantined_chunks : int;
    mutable counters : (string * int) list;
  }

  let create () =
    {
      mu = Mutex.create ();
      workers = [];
      total_chunks = 0;
      settled_chunks = 0;
      leased_chunks = 0;
      quarantined_chunks = 0;
      counters = [];
    }

  let update t ~workers ~total_chunks ~settled_chunks ~leased_chunks
      ~quarantined_chunks ~counters =
    Mutex.lock t.mu;
    t.workers <- workers;
    t.total_chunks <- total_chunks;
    t.settled_chunks <- settled_chunks;
    t.leased_chunks <- leased_chunks;
    t.quarantined_chunks <- quarantined_chunks;
    t.counters <- counters;
    Mutex.unlock t.mu

  let to_json t =
    Mutex.lock t.mu;
    let j =
      Obs.Json.Obj
        [
          ( "workers",
            Obs.Json.List
              (List.map
                 (fun w ->
                   Obs.Json.Obj
                     [
                       ("id", Obs.Json.String w.mw_id);
                       ("pid", Obs.Json.Int w.mw_pid);
                       ("alive", Obs.Json.Bool w.mw_alive);
                     ])
                 t.workers) );
          ( "chunks",
            Obs.Json.Obj
              [
                ("total", Obs.Json.Int t.total_chunks);
                ("settled", Obs.Json.Int t.settled_chunks);
                ("leased", Obs.Json.Int t.leased_chunks);
                ("quarantined", Obs.Json.Int t.quarantined_chunks);
              ] );
          ( "counters",
            Obs.Json.Obj
              (List.map (fun (k, v) -> (k, Obs.Json.Int v)) t.counters) );
        ]
    in
    Mutex.unlock t.mu;
    j
end

type coord_cfg = {
  c_dir : string;
  c_run_id : string;
  c_solver : string;
  c_total : int;
  c_chunk_size : int;
  c_heartbeat_s : float;
  c_max_attempts : int;
  c_sample_size : int;
  c_workers : int;
  c_spawn : int -> int;
  c_backoff_base_s : float;
  c_backoff_cap_s : float;
}

let default_backoff_base_s = 0.1
let default_backoff_cap_s = 2.0

type quarantined = {
  q_chunk : int;
  q_lo : int;
  q_hi : int;
  q_attempts : int;
  q_error : string;
}

type outcome = {
  best : (int * int) option;
  settled : int;
  quarantined : quarantined list;
  interrupted : bool;
  stats : (string * int) list;
}

type chunk_state = Pending | Leased | Settled | Poisoned

(* deterministic jitter in [0.75, 1.25), seeded by (chunk, attempt) so
   retry schedules replay identically across coordinator restarts *)
let backoff cfg ~chunk ~attempts =
  let base =
    Float.min cfg.c_backoff_cap_s
      (cfg.c_backoff_base_s *. Float.pow 2.0 (float_of_int (attempts - 1)))
  in
  let jitter =
    0.75 +. (float_of_int (Hashtbl.hash (chunk, attempts) land 0xFF) /. 512.0)
  in
  base *. jitter

let coordinate ?monitor ?(ctl = Resil.Ctl.none) cfg =
  Layout.ensure cfg.c_dir;
  let meta_result =
    match Meta.load cfg.c_dir with
    | Ok m ->
        if m.Meta.run_id <> cfg.c_run_id then
          Error
            (Printf.sprintf
               "fleet directory %s belongs to a different run (id %s, \
                expected %s); pass a fresh --fleet directory"
               cfg.c_dir m.Meta.run_id cfg.c_run_id)
        else if m.Meta.solver <> cfg.c_solver then
          Error
            (Printf.sprintf
               "fleet directory %s was sharded for solver %s, this run uses \
                %s; pass a fresh --fleet directory"
               cfg.c_dir m.Meta.solver cfg.c_solver)
        else if m.Meta.total <> cfg.c_total then
          Error
            (Printf.sprintf
               "fleet directory %s shards %d candidates, this run has %d; \
                pass a fresh --fleet directory"
               cfg.c_dir m.Meta.total cfg.c_total)
        else Ok m
    | Error `Not_found ->
        let m =
          {
            Meta.run_id = cfg.c_run_id;
            solver = cfg.c_solver;
            total = cfg.c_total;
            chunk_size = cfg.c_chunk_size;
            heartbeat_s = cfg.c_heartbeat_s;
            max_attempts = cfg.c_max_attempts;
            sample_size = cfg.c_sample_size;
          }
        in
        Meta.save ~dir:cfg.c_dir m;
        Ok m
    | Error (`Corrupt e) ->
        Error (Printf.sprintf "corrupt meta.json in %s: %s" cfg.c_dir e)
  in
  match meta_result with
  | Error _ as e -> e
  | Ok meta ->
      let total = meta.Meta.total in
      let chunk_size = meta.Meta.chunk_size in
      let n = nchunks ~total ~chunk_size in
      let state = Array.make (max 1 n) Pending in
      let fences = Array.init (max 1 n) (fun c -> Fence.load cfg.c_dir c) in
      let last_error = Array.make (max 1 n) "" in
      let best = ref None in
      let settled = ref 0 in
      let merge_best b =
        match b with
        | None -> ()
        | Some (i, e) -> (
            match !best with
            | Some (bi, be) when be < e || (be = e && bi <= i) -> ()
            | _ -> best := Some (i, e))
      in
      (* local counters feed summary.json; the Obs counters feed the
         /metrics exporter when telemetry is on *)
      let n_expired = ref 0 and n_done = ref 0 and n_quarantined = ref 0 in
      let n_stale = ref 0 and n_respawned = ref 0 and n_retried = ref 0 in
      let stats () =
        [
          ("workers", cfg.c_workers);
          ("chunks", n);
          ("chunks_done", !n_done);
          ("chunks_quarantined", !n_quarantined);
          ("leases_expired", !n_expired);
          ("stale_publishes", !n_stale);
          ("workers_respawned", !n_respawned);
          ("failures_retried", !n_retried);
          ("settled", !settled);
          ("total", total);
        ]
      in
      let range c = chunk_range ~total ~chunk_size c in
      let unlink_quietly path = try Unix.unlink path with _ -> () in
      let settle c (snap : Resil.Snapshot.t) =
        let lo, hi = range c in
        state.(c) <- Settled;
        settled := !settled + (hi - lo);
        merge_best snap.Resil.Snapshot.best;
        incr n_done;
        Obs.Metric.incr chunks_done_c;
        Resil.Ctl.chunk_done ctl ~lo ~hi ~best:snap.Resil.Snapshot.best
      in
      let reject_done c path reason =
        incr n_stale;
        Obs.Metric.incr stale_publishes_c;
        Obs.Event.record ~kind:"fleet"
          ~args:[ ("chunk", string_of_int c); ("reason", reason) ]
          "fleet.stale_publish";
        unlink_quietly path
      in
      let scan_done () =
        for c = 0 to n - 1 do
          match state.(c) with
          | Settled | Poisoned -> ()
          | Pending | Leased -> (
              let path = Layout.done_file cfg.c_dir c in
              if Sys.file_exists path then
                match
                  Resil.Snapshot.load_for ~run_id:cfg.c_run_id
                    ~solver:cfg.c_solver path
                with
                | Ok snap ->
                    let fence_of_snap =
                      Option.value ~default:(-1)
                        (snap_counter "fleet.fence" snap)
                    in
                    if fence_of_snap <> fences.(c).Fence.fence then
                      reject_done c path
                        (Printf.sprintf "fence %d, current %d" fence_of_snap
                           fences.(c).Fence.fence)
                    else begin
                      settle c snap;
                      (* the publisher normally released its lease; a
                         worker killed in between leaves a dead one *)
                      unlink_quietly (Layout.lease cfg.c_dir c)
                    end
                | Error `Not_found -> ()
                | Error (`Corrupt e) -> reject_done c path ("corrupt: " ^ e)
                | Error (`Mismatch m) ->
                    reject_done c path
                      (Format.asprintf "%a" Resil.Snapshot.pp_mismatch m))
        done
      in
      let quarantine c message =
        let lo, hi = range c in
        state.(c) <- Poisoned;
        last_error.(c) <- message;
        incr n_quarantined;
        Obs.Metric.incr chunks_quarantined_c;
        Resil.atomic_write ~path:(Layout.poison_file cfg.c_dir c)
          (Obs.Json.to_string
             (Obs.Json.Obj
                [
                  ("chunk", Obs.Json.Int c);
                  ("lo", Obs.Json.Int lo);
                  ("hi", Obs.Json.Int hi);
                  ("attempts", Obs.Json.Int fences.(c).Fence.attempts);
                  ("message", Obs.Json.String message);
                ]))
      in
      let scan_fail () =
        for c = 0 to n - 1 do
          match state.(c) with
          | Settled | Poisoned -> ()
          | Pending | Leased ->
              let fence = fences.(c).Fence.fence in
              let path = Layout.fail_file cfg.c_dir c ~fence in
              if Sys.file_exists path then begin
                let message, deterministic =
                  match In_channel.with_open_bin path In_channel.input_all with
                  | exception Sys_error _ -> ("unreadable failure report", true)
                  | data -> (
                      match Obs.Json.of_string data with
                      | Error _ -> ("corrupt failure report", true)
                      | Ok j ->
                          ( (match
                               Option.bind (Obs.Json.member "message" j)
                                 Obs.Json.to_string_opt
                             with
                            | Some m -> m
                            | None -> "unknown failure"),
                            match Obs.Json.member "deterministic" j with
                            | Some (Obs.Json.Bool b) -> b
                            | _ -> true ))
                in
                let attempts = fences.(c).Fence.attempts + 1 in
                last_error.(c) <- message;
                (* the failing worker leaves its lease in place so the
                   chunk stays parked until this very moment *)
                unlink_quietly (Layout.lease cfg.c_dir c);
                Obs.Event.record ~kind:"fleet"
                  ~args:
                    [
                      ("chunk", string_of_int c);
                      ("attempts", string_of_int attempts);
                      ("deterministic", string_of_bool deterministic);
                      ("message", message);
                    ]
                  "fleet.chunk_failed";
                if attempts >= meta.Meta.max_attempts then begin
                  fences.(c) <- { fences.(c) with Fence.fence = fence + 1;
                                  attempts };
                  Fence.save cfg.c_dir c fences.(c);
                  quarantine c message
                end
                else begin
                  (* backoff only helps transient failures; a
                     deterministic one re-runs immediately and burns
                     through its remaining attempts to quarantine *)
                  let delay =
                    if deterministic then 0.0
                    else backoff cfg ~chunk:c ~attempts
                  in
                  fences.(c) <-
                    {
                      Fence.fence = fence + 1;
                      attempts;
                      not_before = Unix.gettimeofday () +. delay;
                    };
                  Fence.save cfg.c_dir c fences.(c);
                  incr n_retried;
                  Obs.Metric.incr failures_retried_c;
                  state.(c) <- Pending
                end
              end
        done
      in
      let expire_leases () =
        let now = Unix.gettimeofday () in
        for c = 0 to n - 1 do
          match state.(c) with
          | Settled | Poisoned -> ()
          | Pending | Leased -> (
              let path = Layout.lease cfg.c_dir c in
              match Lease.load path with
              | Error `Not_found -> state.(c) <- Pending
              | Error (`Corrupt _) ->
                  (* atomic writes make this near-impossible; clear it *)
                  unlink_quietly path;
                  state.(c) <- Pending
              | Ok l ->
                  if l.Lease.deadline < now then begin
                    unlink_quietly path;
                    fences.(c) <-
                      { fences.(c) with
                        Fence.fence = fences.(c).Fence.fence + 1 };
                    Fence.save cfg.c_dir c fences.(c);
                    incr n_expired;
                    Obs.Metric.incr leases_expired_c;
                    Obs.Event.record ~kind:"fleet"
                      ~args:
                        [
                          ("chunk", string_of_int c);
                          ("worker", l.Lease.worker);
                          ("pid", string_of_int l.Lease.pid);
                        ]
                      "fleet.lease_expired";
                    state.(c) <- Pending
                  end
                  else state.(c) <- Leased)
        done
      in
      (* ---- worker process management ---- *)
      let live : (int, int) Hashtbl.t = Hashtbl.create 8 in
      let spawn idx =
        let pid = cfg.c_spawn idx in
        Hashtbl.replace live pid idx
      in
      for i = 0 to cfg.c_workers - 1 do
        spawn i
      done;
      let respawn_budget = ref (100 + (10 * cfg.c_workers)) in
      let reap_and_respawn () =
        let dead =
          Hashtbl.fold
            (fun pid idx acc ->
              match Unix.waitpid [ Unix.WNOHANG ] pid with
              | 0, _ -> acc
              | _, _ -> (pid, idx) :: acc
              | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                  (pid, idx) :: acc)
            live []
        in
        List.iter
          (fun (pid, idx) ->
            Hashtbl.remove live pid;
            decr respawn_budget;
            incr n_respawned;
            Obs.Metric.incr workers_respawned_c;
            if !respawn_budget > 0 then spawn idx)
          dead;
        !respawn_budget > 0
      in
      let kill_workers () =
        Hashtbl.iter
          (fun pid _ -> try Unix.kill pid Sys.sigterm with _ -> ())
          live;
        let deadline = Unix.gettimeofday () +. 2.0 in
        let rec drain () =
          if Hashtbl.length live > 0 then begin
            let pids = Hashtbl.fold (fun pid _ acc -> pid :: acc) live [] in
            List.iter
              (fun pid ->
                match Unix.waitpid [ Unix.WNOHANG ] pid with
                | 0, _ -> ()
                | _, _ -> Hashtbl.remove live pid
                | exception Unix.Unix_error (Unix.ECHILD, _, _) ->
                    Hashtbl.remove live pid)
              pids;
            if Hashtbl.length live > 0 then
              if Unix.gettimeofday () > deadline then begin
                Hashtbl.iter
                  (fun pid _ -> try Unix.kill pid Sys.sigkill with _ -> ())
                  live;
                Hashtbl.iter
                  (fun pid _ -> try ignore (Unix.waitpid [] pid) with _ -> ())
                  live;
                Hashtbl.reset live
              end
              else begin
                Unix.sleepf 0.05;
                drain ()
              end
          end
        in
        drain ()
      in
      let update_monitor () =
        match monitor with
        | None -> ()
        | Some mon ->
            let workers =
              Hashtbl.fold
                (fun pid idx acc ->
                  let alive =
                    match Unix.kill pid 0 with
                    | () -> true
                    | exception _ -> false
                  in
                  {
                    Monitor.mw_id = "w" ^ string_of_int idx;
                    mw_pid = pid;
                    mw_alive = alive;
                  }
                  :: acc)
                live []
            in
            let count st =
              Array.fold_left
                (fun acc s -> if s = st then acc + 1 else acc)
                0 state
            in
            Monitor.update mon ~workers ~total_chunks:n
              ~settled_chunks:(count Settled) ~leased_chunks:(count Leased)
              ~quarantined_chunks:(count Poisoned) ~counters:(stats ())
      in
      (* ---- resume: ingest what a previous coordinator left ---- *)
      for c = 0 to n - 1 do
        if Sys.file_exists (Layout.poison_file cfg.c_dir c) then begin
          let lo, hi = range c in
          ignore lo;
          ignore hi;
          state.(c) <- Poisoned;
          incr n_quarantined;
          last_error.(c) <-
            (match
               In_channel.with_open_bin (Layout.poison_file cfg.c_dir c)
                 In_channel.input_all
             with
            | exception Sys_error _ -> "quarantined by a previous coordinator"
            | data -> (
                match
                  Result.to_option (Obs.Json.of_string data)
                  |> Fun.flip Option.bind (Obs.Json.member "message")
                  |> Fun.flip Option.bind (fun j -> Obs.Json.to_string_opt j)
                with
                | Some m -> m
                | None -> "quarantined by a previous coordinator"))
        end
      done;
      scan_done ();
      let finished () =
        let ok = ref true in
        for c = 0 to n - 1 do
          match state.(c) with
          | Settled | Poisoned -> ()
          | Pending | Leased -> ok := false
        done;
        !ok
      in
      let poll =
        Float.max 0.02 (Float.min 0.25 (meta.Meta.heartbeat_s /. 4.0))
      in
      let wedged = ref false in
      let rec loop () =
        if finished () || Guard.interrupt_requested () || !wedged then ()
        else begin
          if cfg.c_workers > 0 && not (reap_and_respawn ()) then wedged := true
          else begin
            scan_done ();
            scan_fail ();
            expire_leases ();
            update_monitor ();
            Unix.sleepf poll
          end;
          loop ()
        end
      in
      loop ();
      update_monitor ();
      let interrupted = Guard.interrupt_requested () && not (finished ()) in
      let quarantined =
        List.filter_map
          (fun c ->
            if state.(c) = Poisoned then
              let lo, hi = range c in
              Some
                {
                  q_chunk = c;
                  q_lo = lo;
                  q_hi = hi;
                  q_attempts = fences.(c).Fence.attempts;
                  q_error = last_error.(c);
                }
            else None)
          (List.init n Fun.id)
      in
      let result =
        {
          best = !best;
          settled = !settled;
          quarantined;
          interrupted;
          stats = stats ();
        }
      in
      if !wedged then begin
        kill_workers ();
        Error
          "fleet workers keep dying at startup (respawn budget exhausted); \
           see worker stderr"
      end
      else begin
        if not interrupted then begin
          Resil.atomic_write ~path:(Layout.summary cfg.c_dir)
            (Obs.Json.to_string
               (Obs.Json.Obj
                  (("run_id", Obs.Json.String cfg.c_run_id)
                   :: ("solver", Obs.Json.String cfg.c_solver)
                   :: List.map
                        (fun (k, v) -> (k, Obs.Json.Int v))
                        (stats ()))));
          Resil.atomic_write ~fsync:false
            ~path:(Layout.done_marker cfg.c_dir)
            "done\n"
        end;
        kill_workers ();
        Ok result
      end
