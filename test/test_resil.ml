(* Tests for folearn.resil: the crash-safe checkpoint/resume layer.

   - CRC-32 against the published zlib check value;
   - a QCheck codec round-trip (decode . encode = id) plus rejection
     of corrupted bytes, truncation and a bad magic;
   - save/load through a temp file, [`Not_found] on a missing path;
   - the two-slot file: a torn or zeroed slot loads the previous
     snapshot, a fresh controller never leaves an earlier run's slot
     to win a load, and a file of the retired single-frame format
     ([FOLEARNSNAP1]) is refused;
   - the Ctl frontier: out-of-order chunks park until the gap closes,
     the recorded best is lex-min monotone, and should_eval implements
     the replay-skip contract;
   - Guard integration: an interrupt becomes an [Interrupted] trip;
   - the time-driven cadence: a sweep of slow candidates snapshots a
     settled frontier (pool sizes 1 and 4);
   - in-process resume equality: a fuel-tripped solver run, resumed
     from its flushed snapshot, reproduces the uninterrupted result
     bit-identically (pool sizes 1 and 4, every sweep solver). *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Counting = Folearn.Erm_counting
module Local = Folearn.Erm_local
module Hyp = Folearn.Hypothesis
module Snap = Resil.Snapshot

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_pool ~jobs f =
  let pool = Par.Pool.create ~jobs in
  Fun.protect ~finally:(fun () -> Par.Pool.shutdown pool) (fun () -> f pool)

let sample_on g centre =
  Sam.label_with g
    ~target:(fun v -> Bfs.dist g v.(0) centre <= 1)
    (Sam.all_tuples g ~k:1)

(* ------------------------------------------------------------------ *)
(* CRC-32                                                              *)
(* ------------------------------------------------------------------ *)

let crc32_known () =
  (* the IEEE 802.3 check value: crc32("123456789") = 0xCBF43926 *)
  check "zlib check value" true
    (Resil.Crc32.to_hex (Resil.Crc32.string "123456789") = "cbf43926");
  check "empty string" true (Resil.Crc32.string "" = 0l);
  (* running continuation equals one-shot *)
  check "incremental" true
    (Resil.Crc32.string ~crc:(Resil.Crc32.string "1234") "56789"
    = Resil.Crc32.string "123456789")

(* ------------------------------------------------------------------ *)
(* Snapshot codec                                                      *)
(* ------------------------------------------------------------------ *)

let snapshot_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let* run_id = string_size ~gen:printable (0 -- 40) in
    let* solver = oneofl [ "brute"; "counting"; "local"; "nd"; "mc" ] in
    let* cursor = 0 -- 10_000 in
    let* best =
      oneof [ return None; map2 (fun i e -> Some (i, e)) (0 -- 1000) (0 -- 50) ]
    in
    let* complete = bool in
    let* writes = 0 -- 500 in
    let* spent_fuel = 0 -- 1_000_000 in
    let* elapsed = map Int64.of_int (0 -- 1_000_000_000) in
    let* counters =
      list_size (0 -- 4)
        (pair (string_size ~gen:(char_range 'a' 'z') (1 -- 8)) (0 -- 9999))
    in
    return
      {
        Snap.run_id;
        solver;
        cursor;
        best;
        complete;
        writes;
        spent_fuel;
        elapsed_ns = elapsed;
        counters;
      }
  in
  QCheck.make gen

let codec_roundtrip =
  QCheck.Test.make ~count:200 ~name:"snapshot codec: decode . encode = id"
    snapshot_arb
    (fun s -> Snap.decode (Snap.encode s) = Ok s)

let sample_snapshot =
  {
    Snap.run_id = "cafe01";
    solver = "brute";
    cursor = 7;
    best = Some (3, 1);
    complete = false;
    writes = 2;
    spent_fuel = 123;
    elapsed_ns = 456789L;
    counters = [ ("erm.hypotheses_enumerated", 7) ];
  }

let corruption_rejected () =
  let enc = Snap.encode sample_snapshot in
  (* flip one body byte: the CRC must catch it *)
  let flipped =
    let b = Bytes.of_string enc in
    let i = String.index enc '{' + 2 in
    Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
    Bytes.to_string b
  in
  check "flipped byte rejected" true (Result.is_error (Snap.decode flipped));
  check "truncation rejected" true
    (Result.is_error (Snap.decode (String.sub enc 0 (String.length enc - 3))));
  let bad_magic = "X" ^ String.sub enc 1 (String.length enc - 1) in
  check "bad magic rejected" true (Result.is_error (Snap.decode bad_magic));
  check "empty rejected" true (Result.is_error (Snap.decode ""))

let save_load_roundtrip () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Snap.save ~path sample_snapshot;
  (match Snap.load path with
  | Ok s -> check "loaded = saved" true (s = sample_snapshot)
  | Error _ -> Alcotest.fail "load of a fresh save failed");
  Sys.remove path;
  (match Snap.load path with
  | Error `Not_found -> ()
  | Ok _ | Error (`Corrupt _) ->
      Alcotest.fail "missing file must load as `Not_found")

let astr_contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

(* [load_for] layers identity checks over [load]: a snapshot from a
   different run or solver is a structured [`Mismatch] naming the
   field with both values (the CLI renders it with a fresh-checkpoint
   hint), never a silent replay-skip of the wrong candidates. *)
let load_for_mismatch () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Snap.save ~path sample_snapshot;
  (match Snap.load_for ~run_id:"cafe01" ~solver:"brute" path with
  | Ok s -> check "matching identity loads" true (s = sample_snapshot)
  | Error _ -> Alcotest.fail "matching identity must load");
  (match Snap.load_for ~run_id:"deadbf" ~solver:"brute" path with
  | Error (`Mismatch m) ->
      check "field names the run id" true (m.Snap.field = "run id");
      check "expected side" true (m.Snap.expected = "deadbf");
      check "found side" true (m.Snap.found = "cafe01");
      let rendered = Format.asprintf "%a" Snap.pp_mismatch m in
      check "rendering names both ids" true
        (String.length rendered > 0
        && astr_contains rendered "deadbf"
        && astr_contains rendered "cafe01")
  | Ok _ | Error (`Not_found | `Corrupt _) ->
      Alcotest.fail "wrong run id must be `Mismatch");
  (match Snap.load_for ~run_id:"cafe01" ~solver:"counting" path with
  | Error (`Mismatch m) -> check "solver mismatch" true (m.Snap.field = "solver")
  | _ -> Alcotest.fail "wrong solver must be `Mismatch");
  Sys.remove path;
  match Snap.load_for ~run_id:"cafe01" ~solver:"brute" path with
  | Error `Not_found -> ()
  | _ -> Alcotest.fail "missing file stays `Not_found through load_for"

(* ------------------------------------------------------------------ *)
(* The two-slot file                                                   *)
(* ------------------------------------------------------------------ *)

let slot_size = 4096
let snap_at ~writes = { sample_snapshot with cursor = 10 * writes; writes }

let load_both path =
  ( Snap.load path,
    Snap.load_for ~run_id:sample_snapshot.run_id ~solver:"brute" path )

(* Write number [w] overwrites slot [w mod 2] in place.  A crash during
   write 3 leaves slot 1 torn (the file cut at several byte offsets
   into the new frame, or the new frame's first bytes over the old
   ones) or zeroed; every such file loads write 2. *)
let torn_slot_loads_previous () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snap.save ~path (snap_at ~writes:1);
  Snap.save ~path (snap_at ~writes:2);
  let before = In_channel.with_open_bin path In_channel.input_all in
  check_int "two slots" (2 * slot_size) (String.length before);
  let frame3 = Snap.encode (snap_at ~writes:3) in
  let expect_previous what data =
    Out_channel.with_open_bin path (fun oc -> output_string oc data);
    match load_both path with
    | Ok a, Ok b ->
        check (what ^ ": load") true (a = snap_at ~writes:2);
        check (what ^ ": load_for") true (b = snap_at ~writes:2)
    | _ -> Alcotest.failf "%s: the previous snapshot must load" what
  in
  List.iter
    (fun k ->
      expect_previous
        (Printf.sprintf "cut %d bytes into the new frame" k)
        (String.sub before 0 slot_size ^ String.sub frame3 0 k);
      (* with the whole body written the frame may be complete: the
         old slot can hold a '\n' where the new terminator goes *)
      if k < String.length frame3 - 1 then
        expect_previous
          (Printf.sprintf "new frame's first %d bytes over the old" k)
          (String.sub before 0 slot_size
          ^ String.sub frame3 0 k
          ^ String.sub before (slot_size + k) (slot_size - k)))
    (List.sort_uniq compare
       [ 0; 1; 12; 13; String.index frame3 '\n' + 1; String.length frame3 / 2;
         String.length frame3 - 1 ]);
  expect_previous "zeroed slot"
    (String.sub before 0 slot_size ^ String.make slot_size '\000');
  (* the complete write wins over the older slot *)
  Snap.save ~path (snap_at ~writes:3);
  match Snap.load path with
  | Ok s -> check "newest slot wins" true (s = snap_at ~writes:3)
  | Error _ -> Alcotest.fail "two valid slots must load"

(* A fresh controller starts a new file on its first write: a stale
   two-slot file of the same run, with more writes than the new run
   will ever make, never wins a load afterwards. *)
let fresh_run_ignores_stale_slots () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  Snap.save ~path (snap_at ~writes:100);
  Snap.save ~path (snap_at ~writes:101);
  let ckpt = Resil.Ctl.create ~path ~run_id:"cafe01" ~solver:"brute" () in
  Resil.Ctl.chunk_done ckpt ~lo:0 ~hi:3 ~best:(Some (1, 0));
  let fresh_loads what =
    match load_both path with
    | Ok a, Ok b ->
        check (what ^ ": load") true (a.Snap.writes < 100 && a.Snap.cursor = 3);
        check (what ^ ": load_for") true (a = b)
    | _ -> Alcotest.failf "%s: the fresh snapshot must load" what
  in
  Resil.Ctl.flush ckpt;
  fresh_loads "first write";
  Resil.Ctl.flush ckpt;
  fresh_loads "second write"

(* The retired single-frame format is refused, naming its magic; a
   file whose slots are both blank holds no snapshot. *)
let old_format_refused () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let body = {|{"schema_version":1,"run_id":"cafe01","solver":"brute"}|} in
  Out_channel.with_open_bin path (fun oc ->
      Printf.fprintf oc "FOLEARNSNAP1 %s %d\n%s\n"
        (Resil.Crc32.to_hex (Resil.Crc32.string body))
        (String.length body) body);
  (match Snap.load path with
  | Error (`Corrupt msg) ->
      check "names the old magic" true (astr_contains msg "FOLEARNSNAP1")
  | Ok _ | Error `Not_found -> Alcotest.fail "FOLEARNSNAP1 must be refused");
  List.iter
    (fun (what, data) ->
      Out_channel.with_open_bin path (fun oc -> output_string oc data);
      match Snap.load path with
      | Error `Not_found -> ()
      | Ok _ | Error (`Corrupt _) -> Alcotest.failf "%s must be `Not_found" what)
    [ ("an empty file", ""); ("two zeroed slots", String.make (2 * slot_size) '\000') ]

(* The frame is bounded by its slot. *)
let oversized_frame_refused () =
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  match
    Snap.save ~path { sample_snapshot with run_id = String.make slot_size 'x' }
  with
  | () -> Alcotest.fail "a frame larger than its slot must be refused"
  | exception Invalid_argument _ -> ()

let atomic_write_replaces () =
  let path = Filename.temp_file "folearn_resil" ".txt" in
  Resil.atomic_write ~path "first";
  Resil.atomic_write ~fsync:false ~path "second";
  let content = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  check "last write wins, whole" true (content = "second")

(* ------------------------------------------------------------------ *)
(* Ctl: frontier, best, should_eval                                    *)
(* ------------------------------------------------------------------ *)

let frontier_out_of_order () =
  let c = Resil.Ctl.create ~run_id:"t" ~solver:"s" () in
  Resil.Ctl.chunk_done c ~lo:5 ~hi:10 ~best:None;
  check_int "out-of-order chunk parks" 0 (Resil.Ctl.frontier c);
  Resil.Ctl.chunk_done c ~lo:0 ~hi:5 ~best:(Some (2, 3));
  check_int "gap closes, parked chunk absorbed" 10 (Resil.Ctl.frontier c);
  Resil.Ctl.chunk_done c ~lo:12 ~hi:14 ~best:None;
  Resil.Ctl.chunk_done c ~lo:10 ~hi:12 ~best:None;
  check_int "second gap closes" 14 (Resil.Ctl.frontier c)

let should_eval_contract () =
  let snap = { sample_snapshot with Snap.cursor = 10; best = Some (4, 2) } in
  let c = Resil.Ctl.create ~resume:snap ~run_id:"t" ~solver:"s" () in
  check "resumed" true (Resil.Ctl.resumed c);
  check_int "resume cursor" 10 (Resil.Ctl.resume_cursor c);
  check "below cursor replay-skipped" false (Resil.Ctl.should_eval c 3);
  check "recorded best re-evaluated" true (Resil.Ctl.should_eval c 4);
  check "at cursor evaluated" true (Resil.Ctl.should_eval c 10);
  check "past cursor evaluated" true (Resil.Ctl.should_eval c 11);
  check "inert evaluates everything" true
    (Resil.Ctl.should_eval Resil.Ctl.none 0)

(* ------------------------------------------------------------------ *)
(* Guard integration                                                   *)
(* ------------------------------------------------------------------ *)

let interrupt_trips () =
  Guard.clear_interrupt ();
  let budget = Guard.Budget.unlimited () in
  let outcome =
    Guard.run ~budget
      ~salvage:(fun () -> Some 99)
      (fun () ->
        Guard.interrupt ();
        Guard.tick (Some budget) Guard.Solver_loop;
        41)
  in
  (match outcome with
  | Guard.Exhausted
      { reason = Guard.Interrupted; best_so_far = Some 99; _ } ->
      ()
  | Guard.Complete _ -> Alcotest.fail "interrupt did not trip"
  | Guard.Exhausted { reason; _ } ->
      Alcotest.failf "wrong reason %s" (Guard.reason_to_string reason));
  (* the flag is sticky across the trip until cleared *)
  check "still requested" true (Guard.interrupt_requested ());
  Guard.clear_interrupt ();
  check "cleared" false (Guard.interrupt_requested ())

(* ------------------------------------------------------------------ *)
(* Time-driven cadence                                                 *)
(* ------------------------------------------------------------------ *)

(* Twelve slow candidates (5 ms each), later ones better: candidate [i]
   errs [12 - i] times.  With a 1 ms interval and no candidate cadence,
   the cadence is due at every visit after the first, and no flush
   follows, so the file holds the last cadence write.  Its cursor [c]
   is a settled frontier iff every candidate below [c] was scored, so
   its best is at least as good as candidate [c - 1]. *)
let interval_cadence ~jobs () =
  with_pool ~jobs @@ fun pool ->
  let count = 12 in
  let space =
    {
      Folearn.Sweep.count = Some count;
      candidate = (fun i -> [| i |]);
      ctx = (fun () -> ());
      score =
        (fun () params ->
          Unix.sleepf 0.005;
          ([], count - params.(0)));
    }
  in
  let path = Filename.temp_file "folearn_resil" ".snap" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  Sys.remove path;
  let ckpt =
    Resil.Ctl.create ~path ~interval_s:0.001 ~run_id:"t" ~solver:"s" ()
  in
  Folearn.Sweep.run ~pool ~ckpt space (Folearn.Sweep.create ());
  check "the interval cadence wrote" true (Resil.Ctl.writes ckpt >= 1);
  match Snap.load path with
  | Error _ -> Alcotest.fail "no cadence snapshot on disk"
  | Ok s -> (
      check "mid-run snapshot" false s.Snap.complete;
      check "cursor past the first candidate" true
        (s.Snap.cursor >= 1 && s.Snap.cursor <= count);
      match s.Snap.best with
      | None -> Alcotest.fail "a settled candidate must be recorded"
      | Some (_, errors) ->
          check "best covers every candidate below the cursor" true
            (errors <= count - (s.Snap.cursor - 1)))

(* ------------------------------------------------------------------ *)
(* Resume equality, in process                                         *)
(* ------------------------------------------------------------------ *)

(* Run the solver to completion, measure its total fuel, re-run under
   half that fuel so it trips mid-enumeration, flush a snapshot, and
   resume: the resumed Complete result must be bit-identical. *)
let resume_reproduces ~jobs ~solver_name ~solve_budgeted ~project () =
  with_pool ~jobs @@ fun pool ->
  let g = Gen.gnp ~seed:11 ~n:12 ~p:0.25 in
  let lam = sample_on g 6 in
  let full_budget = Guard.Budget.unlimited () in
  let plain =
    match solve_budgeted ?budget:(Some full_budget) ~pool ~ckpt:Resil.Ctl.none g lam with
    | Guard.Complete r -> r
    | Guard.Exhausted _ -> Alcotest.fail "unlimited budget exhausted"
  in
  let total_fuel = (Guard.Budget.spent full_budget).Guard.fuel in
  let path = Filename.temp_file "folearn_resume" ".snap" in
  let ckpt =
    Resil.Ctl.create ~path ~every:1 ~run_id:"test" ~solver:solver_name ()
  in
  (match
     solve_budgeted
       ?budget:(Some (Guard.Budget.make ~fuel:(max 1 (total_fuel / 2)) ()))
       ~pool ~ckpt g lam
   with
  | Guard.Complete _ -> Alcotest.fail "half the fuel must trip"
  | Guard.Exhausted _ -> Resil.Ctl.flush ckpt);
  let snap =
    match Snap.load path with
    | Ok s -> s
    | Error _ -> Alcotest.fail "no snapshot after the tripped run"
  in
  let ckpt2 =
    Resil.Ctl.create ~path ~resume:snap ~run_id:"test" ~solver:solver_name ()
  in
  let resumed =
    match solve_budgeted ?budget:None ~pool ~ckpt:ckpt2 g lam with
    | Guard.Complete r -> r
    | Guard.Exhausted _ -> Alcotest.fail "resumed run exhausted"
  in
  Sys.remove path;
  check
    (Printf.sprintf "%s resumed = uninterrupted (jobs %d)" solver_name jobs)
    true
    (project resumed = project plain)

let resume_brute ~jobs =
  resume_reproduces ~jobs ~solver_name:"brute"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Brute.solve_budgeted ?budget ~pool ~ckpt g ~k:1 ~ell:1 ~q:1 lam)
    ~project:(fun (r : Brute.result) ->
      (Hyp.signature r.Brute.hypothesis, r.Brute.err, r.Brute.params_tried))

let resume_counting ~jobs =
  resume_reproduces ~jobs ~solver_name:"counting"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Counting.solve_budgeted ?budget ~pool ~ckpt g ~k:1 ~ell:1 ~q:1 ~tmax:2
        lam)
    ~project:(fun (r : Counting.result) ->
      ( Hyp.signature r.Counting.hypothesis,
        r.Counting.err,
        r.Counting.params_tried ))

let resume_local ~jobs =
  resume_reproduces ~jobs ~solver_name:"local"
    ~solve_budgeted:(fun ?budget ~pool ~ckpt g lam ->
      Local.solve_budgeted ?budget ~pool ~radius:1 ~ckpt g ~k:1 ~ell:1 ~q:1
        lam)
    ~project:(fun (r : Local.result) ->
      ( Hyp.signature r.Local.hypothesis,
        r.Local.err,
        (r.Local.params_tried, r.Local.pool_size) ))

let suite =
  [
    Alcotest.test_case "crc32 matches zlib" `Quick crc32_known;
    QCheck_alcotest.to_alcotest codec_roundtrip;
    Alcotest.test_case "corrupt snapshots rejected" `Quick corruption_rejected;
    Alcotest.test_case "save/load round-trip and `Not_found" `Quick
      save_load_roundtrip;
    Alcotest.test_case "load_for flags run/solver mismatch" `Quick
      load_for_mismatch;
    Alcotest.test_case "atomic_write replaces whole files" `Quick
      atomic_write_replaces;
    Alcotest.test_case "torn or zeroed slot loads the previous snapshot"
      `Quick torn_slot_loads_previous;
    Alcotest.test_case "fresh run never resumes a stale slot" `Quick
      fresh_run_ignores_stale_slots;
    Alcotest.test_case "FOLEARNSNAP1 file refused, blank file is none" `Quick
      old_format_refused;
    Alcotest.test_case "frame larger than its slot is refused" `Quick
      oversized_frame_refused;
    Alcotest.test_case "frontier absorbs out-of-order chunks" `Quick
      frontier_out_of_order;
    Alcotest.test_case "should_eval replay-skip contract" `Quick
      should_eval_contract;
    Alcotest.test_case "interrupt trips as Interrupted" `Quick interrupt_trips;
    Alcotest.test_case "interval cadence snapshots a settled frontier (jobs 1)"
      `Quick (interval_cadence ~jobs:1);
    Alcotest.test_case "interval cadence snapshots a settled frontier (jobs 4)"
      `Quick (interval_cadence ~jobs:4);
    Alcotest.test_case "brute resume = uninterrupted (jobs 1)" `Quick
      (resume_brute ~jobs:1);
    Alcotest.test_case "brute resume = uninterrupted (jobs 4)" `Quick
      (resume_brute ~jobs:4);
    Alcotest.test_case "counting resume = uninterrupted (jobs 1)" `Quick
      (resume_counting ~jobs:1);
    Alcotest.test_case "local resume = uninterrupted (jobs 1)" `Quick
      (resume_local ~jobs:1);
    Alcotest.test_case "counting resume = uninterrupted (jobs 4)" `Quick
      (resume_counting ~jobs:4);
    Alcotest.test_case "local resume = uninterrupted (jobs 4)" `Quick
      (resume_local ~jobs:4);
  ]
