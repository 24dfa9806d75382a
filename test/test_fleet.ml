(* Tests for folearn.fleet: the fault-tolerant multi-process sharding
   layer.

   - a QCheck lease codec round-trip (decode . encode = id) plus
     rejection of corrupted bytes and a bad magic;
   - claim atomicity: racing claimants (1, 2 and 4 domains) on the
     same chunk set, exactly one winner per chunk;
   - lease lifecycle: renew pushes the deadline, release is
     ownership-checked;
   - coordinator expiry: a dead claimant's expired lease returns the
     chunk to the pool under a bumped fence within the heartbeat;
   - fencing: a publish carrying a stale fence token is rejected (and
     removed) without corrupting the merged best;
   - corrupt input: a negative-length lease is cleared and a
     negative-length result rejected, never raised on. *)

module Fl = Fleet
module Lease = Fleet.Lease

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let temp_dir () =
  let path =
    Filename.temp_file "folearn_fleet_test" ""
  in
  Sys.remove path;
  Unix.mkdir path 0o755;
  path

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Unix.unlink path

let with_dir f =
  let dir = temp_dir () in
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Lease codec                                                         *)
(* ------------------------------------------------------------------ *)

let lease_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let* chunk = 0 -- 10_000 in
    let* lo = 0 -- 1_000_000 in
    let* span = 0 -- 4096 in
    let* worker = string_size ~gen:printable (0 -- 24) in
    let* pid = 1 -- 4_194_304 in
    let* fence = 0 -- 1000 in
    let* deadline = float_range (-1e9) 1e9 in
    return
      { Lease.chunk; lo; hi = lo + span; worker; pid; fence; deadline }
  in
  let print l = Lease.encode l in
  QCheck.make ~print gen

let prop_lease_roundtrip =
  QCheck.Test.make ~name:"lease codec round-trip" ~count:300 lease_arb
    (fun l -> Lease.decode (Lease.encode l) = Ok l)

let test_lease_rejects_corruption () =
  let l =
    {
      Lease.chunk = 3; lo = 30; hi = 40; worker = "w1"; pid = 123; fence = 2;
      deadline = 99.5;
    }
  in
  let enc = Lease.encode l in
  (* flip one body byte: CRC must catch it *)
  let b = Bytes.of_string enc in
  let i = String.length enc - 3 in
  Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
  (match Lease.decode (Bytes.to_string b) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "corrupted lease must not decode");
  (match Lease.decode ("WRONGMAGIC " ^ enc) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must not decode");
  match Lease.decode (String.sub enc 0 (String.length enc / 2)) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated lease must not decode"

(* ------------------------------------------------------------------ *)
(* Claim atomicity                                                     *)
(* ------------------------------------------------------------------ *)

let mk_lease ~chunk ~worker ~fence ~deadline =
  {
    Lease.chunk;
    lo = chunk * 10;
    hi = (chunk + 1) * 10;
    worker;
    pid = Unix.getpid ();
    fence;
    deadline;
  }

(* [jobs] domains race to claim every chunk; each chunk must be won
   exactly once, and the file on disk must carry the winner's id *)
let claim_race ~jobs () =
  with_dir @@ fun dir ->
  let chunks = 8 in
  let wins = Array.init jobs (fun _ -> Array.make chunks false) in
  let barrier = Atomic.make 0 in
  let racer j () =
    Atomic.incr barrier;
    while Atomic.get barrier < jobs do
      Domain.cpu_relax ()
    done;
    for c = 0 to chunks - 1 do
      let l =
        mk_lease ~chunk:c
          ~worker:("w" ^ string_of_int j)
          ~fence:0
          ~deadline:(Unix.gettimeofday () +. 60.0)
      in
      if Lease.claim ~path:(Filename.concat dir (Printf.sprintf "%d.lease" c)) l
      then wins.(j).(c) <- true
    done
  in
  let doms = List.init jobs (fun j -> Domain.spawn (racer j)) in
  List.iter Domain.join doms;
  for c = 0 to chunks - 1 do
    let winners =
      List.length
        (List.filter Fun.id (List.init jobs (fun j -> wins.(j).(c))))
    in
    check_int (Printf.sprintf "chunk %d claimed exactly once" c) 1 winners;
    (* the file records the winner *)
    match Lease.load (Filename.concat dir (Printf.sprintf "%d.lease" c)) with
    | Ok l ->
        let j = int_of_string (String.sub l.Lease.worker 1 1) in
        check (Printf.sprintf "chunk %d file matches winner" c) true
          wins.(j).(c)
    | Error _ -> Alcotest.failf "chunk %d lease unreadable" c
  done

let test_renew_and_release () =
  with_dir @@ fun dir ->
  let path = Filename.concat dir "0.lease" in
  let mine = mk_lease ~chunk:0 ~worker:"w0" ~fence:0 ~deadline:10.0 in
  check "first claim wins" true (Lease.claim ~path mine);
  check "second claim loses" false
    (Lease.claim ~path (mk_lease ~chunk:0 ~worker:"w1" ~fence:0 ~deadline:10.0));
  Lease.renew ~path { mine with Lease.deadline = 99.0 };
  (match Lease.load path with
  | Ok l -> check "renew pushed the deadline" true (l.Lease.deadline = 99.0)
  | Error _ -> Alcotest.fail "renewed lease unreadable");
  (* someone else's release must not free my claim *)
  Lease.release ~path
    ~mine:(mk_lease ~chunk:0 ~worker:"w1" ~fence:0 ~deadline:10.0);
  check "foreign release is a no-op" true (Sys.file_exists path);
  Lease.release ~path ~mine:{ mine with Lease.deadline = 99.0 };
  check "owner release unlinks" false (Sys.file_exists path);
  check "released chunk is claimable again" true
    (Lease.claim ~path (mk_lease ~chunk:0 ~worker:"w2" ~fence:1 ~deadline:5.0))

(* ------------------------------------------------------------------ *)
(* Coordinator: expiry and fencing                                     *)
(* ------------------------------------------------------------------ *)

let meta_for dir ~total ~chunk_size ~heartbeat_s =
  let m =
    {
      Fl.Meta.run_id = "test-run";
      solver = "brute";
      total;
      chunk_size;
      heartbeat_s;
      max_attempts = 3;
      sample_size = 7;
    }
  in
  Fl.Layout.ensure dir;
  Fl.Meta.save ~dir m;
  m

let coord_cfg dir ~total ~chunk_size ~heartbeat_s =
  {
    Fl.c_dir = dir;
    c_run_id = "test-run";
    c_solver = "brute";
    c_total = total;
    c_chunk_size = chunk_size;
    c_heartbeat_s = heartbeat_s;
    c_max_attempts = 3;
    c_sample_size = 7;
    c_workers = 0;
    c_spawn = (fun _ -> Alcotest.fail "no workers should be spawned");
    c_backoff_base_s = 0.01;
    c_backoff_cap_s = 0.05;
  }

let stat outcome name =
  match List.assoc_opt name outcome.Fl.stats with
  | Some v -> v
  | None -> Alcotest.failf "missing stat %s" name

let wait_for ?(timeout_s = 10.0) what pred =
  let deadline = Unix.gettimeofday () +. timeout_s in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () > deadline then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* A dead worker's lease must not survive past its heartbeat deadline:
   the coordinator reclaims the chunk under a bumped fence, and a
   publish under the new fence settles it. *)
let test_expiry_reclaims_dead_lease () =
  with_dir @@ fun dir ->
  let meta = meta_for dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  (* chunk 1 already settled; chunk 0 held by a dead claimant *)
  Fl.publish_done ~dir ~meta ~chunk:1 ~fence:0 ~best:(Some (2, 5));
  let dead =
    {
      Lease.chunk = 0; lo = 0; hi = 2; worker = "w-dead"; pid = 0; fence = 0;
      deadline = Unix.gettimeofday () -. 5.0;
    }
  in
  check "dead claim staged" true
    (Lease.claim ~path:(Fl.Layout.lease dir 0) dead);
  let cfg = coord_cfg dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  let coord = Domain.spawn (fun () -> Fl.coordinate cfg) in
  (* the expiry must land within ~one heartbeat: fence bumped, lease
     gone *)
  wait_for "lease expiry" (fun () ->
      (Fl.Fence.load dir 0).Fl.Fence.fence = 1
      && not (Sys.file_exists (Fl.Layout.lease dir 0)));
  Fl.publish_done ~dir ~meta ~chunk:0 ~fence:1 ~best:(Some (1, 3));
  (match Domain.join coord with
  | Error m -> Alcotest.failf "coordinate: %s" m
  | Ok out ->
      check_int "one lease expired" 1 (stat out "leases_expired");
      check_int "all candidates settled" 4 out.Fl.settled;
      check "lex-min best merged" true (out.Fl.best = Some (1, 3));
      check "no quarantine" true (out.Fl.quarantined = []));
  check "DONE marker written" true
    (Sys.file_exists (Fl.Layout.done_marker dir))

(* A publish carrying a stale fence token (from a worker that lost its
   lease but not its life) must be rejected and unlinked, never merged. *)
let test_stale_fence_publish_rejected () =
  with_dir @@ fun dir ->
  let meta = meta_for dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  (* the chunk's fence has moved on to 1; a zombie publishes a
     too-good-to-be-true result under fence 0 *)
  Fl.Fence.save dir 0 { Fl.Fence.fence = 1; attempts = 1; not_before = 0.0 };
  Fl.publish_done ~dir ~meta ~chunk:0 ~fence:0 ~best:(Some (0, 0));
  Fl.publish_done ~dir ~meta ~chunk:1 ~fence:0 ~best:(Some (3, 2));
  let cfg = coord_cfg dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  let coord = Domain.spawn (fun () -> Fl.coordinate cfg) in
  wait_for "stale publish rejection" (fun () ->
      not (Sys.file_exists (Fl.Layout.done_file dir 0)));
  Fl.publish_done ~dir ~meta ~chunk:0 ~fence:1 ~best:(Some (0, 4));
  match Domain.join coord with
  | Error m -> Alcotest.failf "coordinate: %s" m
  | Ok out ->
      check_int "one stale publish" 1 (stat out "stale_publishes");
      (* the zombie's (0, 0) must not have won *)
      check "merged best ignores the stale publish" true
        (out.Fl.best = Some (3, 2));
      check_int "all candidates settled" 4 out.Fl.settled

(* A failure report at the current fence retries with a bumped fence
   until max_attempts, then the chunk is quarantined and the run
   settles around it. *)
let test_failures_quarantine () =
  with_dir @@ fun dir ->
  let meta = meta_for dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  Fl.publish_done ~dir ~meta ~chunk:1 ~fence:0 ~best:(Some (2, 1));
  let cfg = coord_cfg dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  let coord = Domain.spawn (fun () -> Fl.coordinate cfg) in
  (* fail chunk 0 at every fence the coordinator offers *)
  for fence = 0 to 2 do
    wait_for
      (Printf.sprintf "fence %d open" fence)
      (fun () -> (Fl.Fence.load dir 0).Fl.Fence.fence = fence);
    Fl.publish_fail ~dir ~chunk:0 ~fence ~worker:"w-test" ~deterministic:false
      ~message:(Printf.sprintf "induced failure %d" fence)
  done;
  match Domain.join coord with
  | Error m -> Alcotest.failf "coordinate: %s" m
  | Ok out ->
      check_int "quarantined exactly one chunk" 1
        (List.length out.Fl.quarantined);
      (match out.Fl.quarantined with
      | [ q ] ->
          check_int "chunk id" 0 q.Fl.q_chunk;
          check_int "attempts" 3 q.Fl.q_attempts;
          check "last error recorded" true
            (q.Fl.q_error = "induced failure 2")
      | _ -> Alcotest.fail "expected one quarantined chunk");
      check_int "two retries before quarantine" 2
        (stat out "failures_retried");
      check_int "settled candidates exclude the poisoned chunk" 2
        out.Fl.settled;
      check "best survives" true (out.Fl.best = Some (2, 1));
      check "poison file written" true
        (Sys.file_exists (Fl.Layout.poison_file dir 0))

(* A lease or a published result whose header announces a negative
   length is corrupt input: the coordinator clears the lease and
   rejects the result, and the run settles once good results arrive. *)
let test_negative_length_files_rejected () =
  with_dir @@ fun dir ->
  let meta = meta_for dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  let lease_path = Fl.Layout.lease dir 0 in
  let done_path = Fl.Layout.done_file dir 1 in
  Out_channel.with_open_bin lease_path (fun oc ->
      output_string oc "FOLEARNLEASE1 00000000 -1\n{}\n");
  Out_channel.with_open_bin done_path (fun oc ->
      output_string oc "FOLEARNSNAP1 00000000 -1\n{}\n");
  let cfg = coord_cfg dir ~total:4 ~chunk_size:2 ~heartbeat_s:0.1 in
  let coord = Domain.spawn (fun () -> Fl.coordinate cfg) in
  wait_for "corrupt lease and result cleared" (fun () ->
      (not (Sys.file_exists lease_path)) && not (Sys.file_exists done_path));
  Fl.publish_done ~dir ~meta ~chunk:0 ~fence:0 ~best:(Some (1, 2));
  Fl.publish_done ~dir ~meta ~chunk:1 ~fence:0 ~best:(Some (3, 1));
  match Domain.join coord with
  | Error m -> Alcotest.failf "coordinate: %s" m
  | Ok out ->
      check_int "the corrupt result was rejected" 1
        (stat out "stale_publishes");
      check_int "all candidates settled" 4 out.Fl.settled;
      check "best from the good results" true (out.Fl.best = Some (3, 1))

(* ------------------------------------------------------------------ *)
(* Chaos spec parsing                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_chaos () =
  check "poison+flaky" true
    (Fl.parse_chaos "poison:3,flaky:1:2"
    = Ok [ Fl.Poison 3; Fl.Flaky (1, 2) ]);
  check "empty spec" true (Fl.parse_chaos "" = Ok []);
  (match Fl.parse_chaos "poison:x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad chunk id must not parse");
  match Fl.parse_chaos "unknown:1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "unknown term must not parse"

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lease_roundtrip;
    Alcotest.test_case "lease rejects corruption" `Quick
      test_lease_rejects_corruption;
    Alcotest.test_case "claim race, 1 domain" `Quick (claim_race ~jobs:1);
    Alcotest.test_case "claim race, 2 domains" `Quick (claim_race ~jobs:2);
    Alcotest.test_case "claim race, 4 domains" `Quick (claim_race ~jobs:4);
    Alcotest.test_case "renew and ownership-checked release" `Quick
      test_renew_and_release;
    Alcotest.test_case "expiry reclaims a dead lease" `Quick
      test_expiry_reclaims_dead_lease;
    Alcotest.test_case "stale fence publish rejected" `Quick
      test_stale_fence_publish_rejected;
    Alcotest.test_case "repeated failures quarantine" `Quick
      test_failures_quarantine;
    Alcotest.test_case "chaos spec parsing" `Quick test_parse_chaos;
    Alcotest.test_case "negative-length lease and result rejected" `Quick
      test_negative_length_files_rejected;
  ]
