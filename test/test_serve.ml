(* Tests for folearn.serve: the resident learning service.

   - a QCheck FOLEARNRPC1 codec round-trip (decode . encode = id) plus
     rejection of truncated frames, CRC corruption, a bad magic and
     frames past the size cap — mirroring the framing suite;
   - socket framing over a socketpair, including the SIGPIPE/EPIPE
     regression: writing a frame into a peer-closed socket is a clean
     [Error], not a signal or an exception;
   - request/response protocol round-trip and the status/exit-code
     taxonomy mapping;
   - tenant quota parsing and component-wise budget clamping;
   - the bounded queue: FIFO pop, earliest-deadline shedding under
     pressure, closed-queue drain semantics;
   - the durable job table: persistence across reloads, pending
     recovery, and the structured snapshot-mismatch path;
   - in-engine op execution: warm repeat runs byte-identical, usage
     errors as exit 2, admission precheck rejections. *)

module J = Obs.Json

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let temp_dir () =
  let path = Filename.temp_file "folearn_serve_test" "" in
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
(* Frame codec                                                         *)
(* ------------------------------------------------------------------ *)

let json_arb =
  let open QCheck in
  let gen =
    let open Gen in
    let scalar =
      oneof
        [
          return J.Null;
          map (fun b -> J.Bool b) bool;
          map (fun i -> J.Int i) int;
          map (fun s -> J.String s) (string_size ~gen:printable (0 -- 24));
        ]
    in
    let key = string_size ~gen:(char_range 'a' 'z') (1 -- 8) in
    let* members = list_size (0 -- 6) (pair key scalar) in
    let* extra = list_size (0 -- 4) scalar in
    return (J.Obj (("payload", J.List extra) :: members))
  in
  QCheck.make ~print:J.to_string gen

let prop_frame_roundtrip =
  QCheck.Test.make ~name:"frame codec round-trip" ~count:300 json_arb
    (fun j -> Serve.Frame.decode (Serve.Frame.encode j) = Ok j)

let test_frame_rejects_corruption () =
  let frame = Serve.Frame.encode (J.Obj [ ("op", J.String "ping") ]) in
  (* flip one body byte: the CRC must catch it *)
  let body_at = String.length frame - 3 in
  let corrupt = Bytes.of_string frame in
  Bytes.set corrupt body_at
    (Char.chr (Char.code (Bytes.get corrupt body_at) lxor 1));
  (match Serve.Frame.decode (Bytes.to_string corrupt) with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "CRC-corrupted frame must not decode");
  (* truncation at every prefix length *)
  for len = 0 to String.length frame - 1 do
    match Serve.Frame.decode (String.sub frame 0 len) with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "truncated frame (%d bytes) must not decode" len
  done;
  (* a foreign magic *)
  let bad = "FOLEARNXXX1" ^ String.sub frame 11 (String.length frame - 11) in
  match Serve.Frame.decode bad with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "bad magic must not decode"

let test_frame_size_cap () =
  let big = J.Obj [ ("blob", J.String (String.make 4096 'x')) ] in
  let frame = Serve.Frame.encode big in
  (match Serve.Frame.decode ~max_len:1024 frame with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "oversized frame must be refused");
  match Serve.Frame.decode frame with
  | Ok j -> check "cap-free decode round-trips" true (j = big)
  | Error m -> Alcotest.failf "in-cap frame must decode: %s" m

(* ------------------------------------------------------------------ *)
(* Socket framing and the EPIPE regression                             *)
(* ------------------------------------------------------------------ *)

let test_frame_over_socketpair () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let doc = J.Obj [ ("n", J.Int 42); ("s", J.String "x:y\nz") ] in
      (match Serve.Frame.write a doc with
      | Ok () -> ()
      | Error m -> Alcotest.failf "write failed: %s" m);
      match Serve.Frame.read b with
      | Ok j -> check "socket round-trip" true (j = doc)
      | Error _ -> Alcotest.fail "read failed")

let test_write_to_closed_peer_is_clean () =
  (* the serve loop ignores SIGPIPE process-wide; with the peer gone a
     frame write must surface as Error, never a signal *)
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close b;
  Fun.protect
    ~finally:(fun () -> try Unix.close a with _ -> ())
    (fun () ->
      let big = J.Obj [ ("blob", J.String (String.make 1_000_000 'y')) ] in
      let rec drive n =
        if n > 16 then Alcotest.fail "write into closed peer never errored"
        else
          match Serve.Frame.write a big with
          | Error _ -> ()
          | Ok () -> drive (n + 1)
      in
      drive 0)

let test_read_closed_peer_is_eof () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> try Unix.close b with _ -> ())
    (fun () ->
      match Serve.Frame.read b with
      | Error `Eof -> ()
      | Ok _ | Error (`Error _) ->
          Alcotest.fail "reading a closed peer must be Eof")

let test_mid_frame_disconnect_is_error () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let frame = Serve.Frame.encode (J.Obj [ ("op", J.String "ping") ]) in
  let half = String.length frame / 2 in
  ignore (Unix.write_substring a frame 0 half);
  Unix.close a;
  Fun.protect
    ~finally:(fun () -> try Unix.close b with _ -> ())
    (fun () ->
      match Serve.Frame.read b with
      | Error (`Error _) -> ()
      | Error `Eof -> Alcotest.fail "mid-frame close must not look like Eof"
      | Ok _ -> Alcotest.fail "half a frame must not decode")

(* [read] applies [decode]'s body rules: a frame whose last byte is not
   the newline terminator is an error on the socket as on a string *)
let test_read_checks_terminator () =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.close a with _ -> ());
      try Unix.close b with _ -> ())
    (fun () ->
      let frame = Serve.Frame.encode (J.Obj [ ("op", J.String "ping") ]) in
      let bad = String.sub frame 0 (String.length frame - 1) ^ "X" in
      check "decode rejects it" true (Result.is_error (Serve.Frame.decode bad));
      ignore (Unix.write_substring a bad 0 (String.length bad));
      match Serve.Frame.read b with
      | Error (`Error _) -> ()
      | Error `Eof -> Alcotest.fail "a full bad frame must not look like Eof"
      | Ok _ -> Alcotest.fail "a frame ending in X must not decode")

(* ------------------------------------------------------------------ *)
(* Protocol round-trip and taxonomy                                    *)
(* ------------------------------------------------------------------ *)

let test_request_roundtrip () =
  let req =
    {
      Serve.Proto.tenant = "alice";
      op = "learn";
      budget =
        {
          Guard.Limits.fuel = Some 100;
          deadline_s = Some 1.5;
          max_table = None;
          max_ball = Some 32;
        };
      params = J.Obj [ ("graph", J.String "path:4") ];
    }
  in
  match Serve.Proto.request_of_json (Serve.Proto.request_to_json req) with
  | Ok r -> check "request round-trip" true (r = req)
  | Error m -> Alcotest.failf "request must round-trip: %s" m

let test_status_taxonomy () =
  check_str "0 is complete" "complete" (Serve.Proto.status_of_code 0);
  check_str "3 is degraded" "degraded" (Serve.Proto.status_of_code 3);
  check_str "4 is exhausted" "exhausted" (Serve.Proto.status_of_code 4);
  check_int "complete exits 0" 0 (Serve.Proto.code_of_status "complete");
  check_int "degraded exits 3" 3 (Serve.Proto.code_of_status "degraded");
  check_int "exhausted exits 4" 4 (Serve.Proto.code_of_status "exhausted");
  check_int "overloaded is retryable" Serve.Proto.exit_retry
    (Serve.Proto.code_of_status "overloaded");
  check_int "draining is retryable" Serve.Proto.exit_retry
    (Serve.Proto.code_of_status "draining");
  let r = Serve.Proto.job_mismatch ~field:"run id" ~expected:"a" ~found:"b" in
  check_str "mismatch status" "job_mismatch" (Serve.Proto.resp_status r);
  check_int "mismatch is a usage error" 2 (Serve.Proto.resp_code r)

(* a served usage error replays as the CLI prints it: the message,
   newline-terminated, on stderr *)
let test_error_carries_message () =
  let msg = "folearn learn: --target: line 1, column 17: bad" in
  let r = Serve.Proto.error ~message:msg in
  check_str "stderr is the message" (msg ^ "\n") (Serve.Proto.resp_stderr r);
  check_int "an error is a usage error" 2 (Serve.Proto.resp_code r);
  check_str "stdout stays empty" "" (Serve.Proto.resp_stdout r)

(* ------------------------------------------------------------------ *)
(* Tenant quotas                                                       *)
(* ------------------------------------------------------------------ *)

let test_tenant_parse_and_clamp () =
  let name, q =
    match Serve.Tenant.parse "alice:fuel=100,deadline=2.5,table=10,ball=5" with
    | Ok kv -> kv
    | Error m -> Alcotest.failf "quota must parse: %s" m
  in
  check_str "tenant name" "alice" name;
  check "fuel quota" true (q.Guard.Limits.fuel = Some 100);
  check "deadline quota" true (q.Guard.Limits.deadline_s = Some 2.5);
  (match Serve.Tenant.parse "bob:fuel=-1" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "negative quota must not parse");
  let tenants = Serve.Tenant.make [ (name, q); ("*", q) ] in
  let ask =
    {
      Guard.Limits.fuel = Some 1_000_000;
      deadline_s = Some 0.5;
      max_table = Some 3;
      max_ball = None;
    }
  in
  let clamped =
    Guard.Limits.meet (Serve.Tenant.quota_for tenants "alice") ask
  in
  check "fuel clamped to quota" true (clamped.Guard.Limits.fuel = Some 100);
  check "smaller deadline kept" true
    (clamped.Guard.Limits.deadline_s = Some 0.5);
  check "smaller table kept" true (clamped.Guard.Limits.max_table = Some 3);
  check "ball quota applies" true (clamped.Guard.Limits.max_ball = Some 5);
  (* the * wildcard catches unlisted tenants *)
  let wild = Guard.Limits.meet (Serve.Tenant.quota_for tenants "mallory") ask in
  check "wildcard clamps too" true (wild.Guard.Limits.fuel = Some 100);
  (* and with no wildcard, unlisted tenants are unrestricted *)
  let open_t = Serve.Tenant.make [ (name, q) ] in
  let free = Guard.Limits.meet (Serve.Tenant.quota_for open_t "mallory") ask in
  check "no wildcard: client asks pass" true
    (free.Guard.Limits.fuel = Some 1_000_000)

(* ------------------------------------------------------------------ *)
(* Bounded queue                                                       *)
(* ------------------------------------------------------------------ *)

let entry ~seq ?deadline_ns ~shed () =
  {
    Serve.Sched.e_seq = seq;
    e_tenant = "t";
    e_deadline_ns = deadline_ns;
    e_run = (fun () -> ());
    e_shed = shed;
  }

let test_sched_fifo_and_shed () =
  let q = Serve.Sched.create ~cap:2 in
  let shed = ref [] in
  let mk seq deadline_ns =
    entry ~seq ?deadline_ns ~shed:(fun () -> shed := seq :: !shed) ()
  in
  check "push 1" true (Serve.Sched.push q (mk 1 (Some 900L)) = `Queued);
  check "push 2" true (Serve.Sched.push q (mk 2 (Some 100L)) = `Queued);
  (* full; entry 2 has the earliest deadline, so it is the victim *)
  check "push 3 evicts a queued entry" true
    (Serve.Sched.push q (mk 3 None) = `Queued);
  check "earliest deadline shed" true (!shed = [ 2 ]);
  (* full again; the incoming earliest-deadline entry sheds itself *)
  check "incoming victim" true
    (Serve.Sched.push q (mk 4 (Some 50L)) = `Shed_incoming);
  (* pop order is arrival order of the survivors *)
  let pop_seq () =
    match Serve.Sched.pop q with
    | Some e -> e.Serve.Sched.e_seq
    | None -> -1
  in
  check_int "first survivor" 1 (pop_seq ());
  check_int "second survivor" 3 (pop_seq ());
  check_int "queue drained" 0 (Serve.Sched.depth q)

let test_sched_close_drains () =
  let q = Serve.Sched.create ~cap:4 in
  check "queued before close" true
    (Serve.Sched.push q (entry ~seq:1 ~shed:ignore ()) = `Queued);
  Serve.Sched.close q;
  check "closed refuses pushes" true
    (Serve.Sched.push q (entry ~seq:2 ~shed:ignore ()) = `Closed);
  check "accepted work still pops" true (Serve.Sched.pop q <> None);
  check "then the queue reports empty" true (Serve.Sched.pop q = None)

(* ------------------------------------------------------------------ *)
(* Durable job table                                                   *)
(* ------------------------------------------------------------------ *)

let submit_job jobs ~id =
  Serve.Jobs.submit jobs ~id ~tenant:"t" ~solver:"brute"
    ~params:(J.Obj [ ("graph", J.String "path:4") ])
    ~limits:Guard.Limits.none

let test_jobs_persist_and_resume () =
  with_dir (fun dir ->
      let jobs = Serve.Jobs.load ~dir in
      (match submit_job jobs ~id:"aaa" with
      | `New _ -> ()
      | `Existing _ -> Alcotest.fail "first submit must be new");
      (match submit_job jobs ~id:"aaa" with
      | `Existing _ -> ()
      | `New _ -> Alcotest.fail "resubmit must be idempotent");
      ignore (submit_job jobs ~id:"bbb");
      Serve.Jobs.mark_done jobs "bbb" ~code:0 ~stdout:"out" ~stderr:""
        ~spent:J.Null;
      (* a different incarnation sees the same table *)
      let jobs2 = Serve.Jobs.load ~dir in
      check_int "one job still pending" 1
        (List.length (Serve.Jobs.pending jobs2));
      match Serve.Jobs.get jobs2 "bbb" with
      | Some j ->
          check "done survives reload" true (j.Serve.Jobs.j_status = Done);
          check_str "stdout survives reload" "out" j.Serve.Jobs.j_stdout
      | None -> Alcotest.fail "job lost across reload")

(* a jobs.json as the table wrote it before the limits record: it loads
   with its limits, and is written back with the same members *)
let parent_job_keys =
  [ "id"; "tenant"; "solver"; "params"; "fuel"; "max_table"; "max_ball";
    "status"; "code"; "stdout"; "stderr"; "spent" ]

let test_jobs_parent_format_loads () =
  with_dir (fun dir ->
      let path = Filename.concat dir "jobs.json" in
      let oc = open_out_bin path in
      output_string oc
        "{\"schema_version\":1,\"jobs\":[{\"id\":\"ddd\",\"tenant\":\"t\",\
         \"solver\":\"brute\",\"params\":{\"graph\":\"path:4\"},\
         \"fuel\":100,\"max_table\":null,\"max_ball\":7,\
         \"status\":\"queued\",\"code\":0,\"stdout\":\"\",\"stderr\":\"\",\
         \"spent\":null}]}\n";
      close_out oc;
      let jobs = Serve.Jobs.load ~dir in
      (match Serve.Jobs.pending jobs with
      | [ j ] ->
          check "the job keeps its limits" true
            (j.Serve.Jobs.j_limits
            = { Guard.Limits.fuel = Some 100; deadline_s = None;
                max_table = None; max_ball = Some 7 })
      | _ -> Alcotest.fail "the queued job must load as pending");
      Serve.Jobs.mark_running jobs "ddd";
      let ic = open_in_bin path in
      let doc = really_input_string ic (in_channel_length ic) in
      close_in ic;
      match
        Option.bind
          (Result.to_option (J.of_string doc))
          (fun d -> Option.bind (J.member "jobs" d) J.to_list_opt)
      with
      | Some [ J.Obj kvs ] ->
          Alcotest.(check (list string))
            "written back with the same members" parent_job_keys
            (List.map fst kvs)
      | _ -> Alcotest.fail "jobs.json must hold the one job")

let test_jobs_snapshot_mismatch () =
  with_dir (fun dir ->
      let jobs = Serve.Jobs.load ~dir in
      let j =
        match submit_job jobs ~id:"ccc" with
        | `New j | `Existing j -> j
      in
      (* squat a foreign snapshot on this job's path *)
      Resil.Snapshot.save
        ~path:(Serve.Jobs.snap_path jobs "ccc")
        {
          Resil.Snapshot.run_id = "zzz";
          solver = "brute";
          cursor = 7;
          best = None;
          complete = false;
          writes = 1;
          spent_fuel = 0;
          elapsed_ns = 0L;
          counters = [];
        };
      check "foreign snapshot is not resumed" true
        (Serve.Jobs.resume_snapshot jobs j = None);
      match Serve.Jobs.get jobs "ccc" with
      | Some { Serve.Jobs.j_mismatch = Some m; _ } ->
          check_str "mismatching field" "run id" m.Resil.Snapshot.field;
          check_str "expected our id" "ccc" m.expected;
          check_str "found the squatter" "zzz" m.found
      | _ -> Alcotest.fail "mismatch must be recorded on the job")

(* ------------------------------------------------------------------ *)
(* Engine op execution                                                 *)
(* ------------------------------------------------------------------ *)

let types_params = J.Obj [ ("graph", J.String "path:5"); ("q", J.Int 1) ]

let test_run_op_warm_identical () =
  let r1 = Serve.Exec.run_op ~op:"types" ~params:types_params () in
  let r2 = Serve.Exec.run_op ~op:"types" ~params:types_params () in
  check_int "types completes" 0 r1.Serve.Exec.code;
  check "types prints" true (String.length r1.Serve.Exec.out > 0);
  check_str "warm repeat is byte-identical" r1.Serve.Exec.out
    r2.Serve.Exec.out

let test_run_op_usage () =
  let r = Serve.Exec.run_op ~op:"types" ~params:(J.Obj []) () in
  check_int "missing graph is a usage error" 2 r.Serve.Exec.code;
  check "usage names the parameter" true
    (let err = r.Serve.Exec.err in
     String.length err > 0
     &&
     let has_sub needle =
       let n = String.length needle and l = String.length err in
       let rec go i = i + n <= l && (String.sub err i n = needle || go (i + 1)) in
       go 0
     in
     has_sub "graph")

let contains hay needle =
  let n = String.length needle and l = String.length hay in
  let rec go i = i + n <= l && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* out-of-range learn parameters and colours outside the graph are usage
   errors on every entry point, never an escaping exception *)
let test_params_validated () =
  let learn extra =
    J.Obj
      ([ ("graph", J.String "path:5"); ("target", J.String "x1=x1") ] @ extra)
  in
  let limits =
    { Guard.Limits.fuel = None; deadline_s = None; max_table = None;
      max_ball = None }
  in
  List.iter
    (fun (extra, msg) ->
      let r = Serve.Exec.run_op ~op:"learn" ~params:(learn extra) () in
      check_int ("usage exit for " ^ msg) 2 r.Serve.Exec.code;
      check ("stderr names " ^ msg) true
        (contains r.Serve.Exec.err ("folearn learn: " ^ msg));
      (match Serve.Exec.learn_identity (learn extra) with
      | Error m -> check ("identity names " ^ msg) true (contains m msg)
      | Ok _ -> Alcotest.failf "identity must reject %s" msg);
      match
        Serve.Exec.precheck_rejection ~op:"learn" ~params:(learn extra) ~limits
      with
      | Error m -> check ("precheck names " ^ msg) true (contains m msg)
      | Ok _ -> Alcotest.failf "precheck must reject %s" msg)
    [
      ([ ("ell", J.Int (-1)) ], "--ell must be >= 0");
      ([ ("q", J.Int (-1)) ], "-q must be >= 0");
      ([ ("m", J.Int (-1)) ], "-m must be >= 0");
      ([ ("tmax", J.Int 0) ], "--tmax must be >= 1");
      ([ ("noise", J.Float 2.0) ], "--noise must be in [0, 1]");
      ([ ("noise", J.Float (-0.5)) ], "--noise must be in [0, 1]");
    ];
  let r =
    Serve.Exec.run_op ~op:"mc"
      ~params:
        (J.Obj
           [
             ("graph", J.String "path:5");
             ("colors", J.List [ J.String "Red=99" ]);
             ("formula", J.String "exists x1. Red(x1)");
           ])
      ()
  in
  check_int "colour outside the graph exits 2" 2 r.Serve.Exec.code;
  check "colour error names the vertex and order" true
    (contains r.Serve.Exec.err "--color Red: vertex 99 is outside the graph \
                               (order 5)")

(* --solver local degrades only under a budget with a limit: the
   limitless budget live telemetry installs runs the local solver
   directly *)
let test_local_rule_reads_the_budget () =
  let params =
    J.Obj
      [
        ("graph", J.String "path:5"); ("target", J.String "x1=x1");
        ("solver", J.String "local"); ("ell", J.Int 1);
      ]
  in
  let solver_line budget =
    let r = Serve.Exec.run_op ~budget ~op:"learn" ~params () in
    check_int "local completes" 0 r.Serve.Exec.code;
    List.nth (String.split_on_char '\n' r.Serve.Exec.out) 1
  in
  check "unlimited budget: direct local solver" true
    (contains (solver_line (Guard.Budget.unlimited ())) "local learner (pool");
  check "budget with a limit: degradation chain" true
    (contains
       (solver_line (Guard.Budget.make ~fuel:1_000_000 ()))
       "sublinear local ERM at rank")

let test_precheck_rejects_tiny_fuel () =
  let params =
    J.Obj
      [
        ("graph", J.String "path:6");
        ("target", J.String "E(x1,x2)");
        ("k", J.Int 2);
        ("q", J.Int 1);
      ]
  in
  let limits =
    {
      Guard.Limits.fuel = Some 2;
      deadline_s = None;
      max_table = None;
      max_ball = None;
    }
  in
  match Serve.Exec.precheck_rejection ~op:"learn" ~params ~limits with
  | Ok (Some r) ->
      check_str "fuel is the short resource" "fuel" r.Analysis.Plan.resource
  | Ok None -> Alcotest.fail "fuel 2 must be rejected at admission"
  | Error m -> Alcotest.failf "precheck must not fail: %s" m

(* a learn the zero-fuel precheck refuses prints the CLI's stdout: the
   training line comes before the precheck, in-process and served *)
let test_refused_learn_prints_training () =
  let params =
    J.Obj
      [
        ("graph", J.String "path:6");
        ("target", J.String "exists y. E(x1,y)");
        ("solver", J.String "brute");
        ("ell", J.Int 1);
        ("q", J.Int 2);
      ]
  in
  let r =
    Serve.Exec.run_op ~budget:(Guard.Budget.make ~fuel:1 ()) ~op:"learn"
      ~params ()
  in
  check_int "the CLI path exits 4" 4 r.Serve.Exec.code;
  check_str "the CLI path prints the training line"
    "training sequence: 6 examples (6 positive)\n" r.Serve.Exec.out;
  let limits =
    { Guard.Limits.fuel = Some 1; deadline_s = None; max_table = None;
      max_ball = None }
  in
  (match Serve.Exec.precheck_rejection ~op:"learn" ~params ~limits with
  | Ok (Some _) -> ()
  | Ok None -> Alcotest.fail "fuel 1 must be refused at admission"
  | Error m -> Alcotest.failf "precheck must not fail: %s" m);
  check_str "the daemon's refusal prints the same" r.Serve.Exec.out
    (Serve.Exec.training_line params)

(* One admission rule: the daemon's precheck and the in-process one
   refuse the same limits with the same message, for every op the
   planner models — the budgeted local learn through its degradation
   chain, nd at its ell_star = max 1 ell. *)
let test_admission_agreement () =
  let learn solver ~ell ~q =
    J.Obj
      [
        ("graph", J.String "path:6");
        ("target", J.String "exists y. E(x1,y)");
        ("solver", J.String solver);
        ("ell", J.Int ell);
        ("q", J.Int q);
      ]
  in
  let ops =
    [
      ("learn", learn "brute" ~ell:1 ~q:2);
      ("learn", learn "counting" ~ell:1 ~q:2);
      ("learn", learn "nd" ~ell:0 ~q:1);
      ("learn", learn "local" ~ell:1 ~q:1);
      ( "mc",
        J.Obj
          [
            ("graph", J.String "path:5");
            ("formula", J.String "exists x. exists y. E(x,y)");
            ("via_erm", J.Bool true);
          ] );
    ]
  in
  let limits =
    List.map
      (fun (fuel, max_table, max_ball) ->
        { Guard.Limits.fuel; deadline_s = None; max_table; max_ball })
      [
        (Some 0, None, None); (Some 1, None, None); (Some 2, None, None);
        (Some 40, None, None);
        (None, Some 1, None); (None, None, Some 1);
        (Some 1_000_000, Some 1_000_000, Some 1_000_000);
      ]
  in
  let marker = "refused: " in
  let refusal_in err =
    List.find_map
      (fun line ->
        let n = String.length line and m = String.length marker in
        let rec find i =
          if i + m > n then None
          else if String.sub line i m = marker then
            Some (String.sub line (i + m) (n - i - m))
          else find (i + 1)
        in
        find 0)
      (String.split_on_char '\n' err)
  in
  List.iter
    (fun (op, params) ->
      let refusals =
        List.map
          (fun l ->
            let served =
              match Serve.Exec.precheck_rejection ~op ~params ~limits:l with
              | Ok r -> Option.map (fun r -> r.Analysis.Plan.message) r
              | Error m -> Alcotest.failf "precheck must not fail: %s" m
            in
            let r =
              Serve.Exec.run_op ?budget:(Guard.Budget.of_limits l)
                ~precheck:true ~op ~params ()
            in
            let what = Obs.Json.to_string params in
            Alcotest.(check (option string))
              ("same refusal for " ^ what) served (refusal_in r.Serve.Exec.err);
            if served <> None then check_int ("refused exits 4: " ^ what) 4
                r.Serve.Exec.code;
            served)
          limits
      in
      check ("fuel 0 is refused: " ^ Obs.Json.to_string params) true
        (List.hd refusals <> None))
    ops

(* a submitted job runs checkpointed, so a local learn runs without the
   degradation chain: admission judges the job, not the chain a plain
   learn would walk *)
let test_submit_local_admission () =
  let params =
    J.Obj
      [
        ("graph", J.String "path:8");
        ("target", J.String "exists y. E(x1,y)");
        ("solver", J.String "local");
        ("ell", J.Int 1);
        ("q", J.Int 1);
      ]
  in
  let limits = { Guard.Limits.none with fuel = Some 100 } in
  let refused op =
    match Serve.Exec.precheck_rejection ~op ~params ~limits with
    | Ok r -> r <> None
    | Error m -> Alcotest.failf "precheck must not fail: %s" m
  in
  check "the chain settles a fallback: learn admitted" false (refused "learn");
  check "the local solver alone cannot: submit refused" true
    (refused "submit");
  (* and the job the refusal spares would exhaust with nothing *)
  with_dir (fun dir ->
      let budget = Guard.Budget.make ~fuel:100 () in
      let ckpt =
        Resil.Ctl.create
          ~path:(Filename.concat dir "job.snap")
          ~budget ~run_id:"submit-local" ~solver:"local" ()
      in
      let r = Serve.Exec.run_op ~budget ~ckpt ~op:"learn" ~params () in
      check_int "the job exhausts" 4 r.Serve.Exec.code)

let test_learn_identity_deterministic () =
  let params =
    J.Obj
      [
        ("graph", J.String "path:6");
        ("target", J.String "E(x1,x2)");
        ("k", J.Int 2);
      ]
  in
  match
    ( Serve.Exec.learn_identity params,
      Serve.Exec.learn_identity params,
      Serve.Exec.learn_identity (J.Obj [ ("graph", J.String "path:6") ]) )
  with
  | Ok (id1, solver), Ok (id2, _), Error _ ->
      check_str "identity is deterministic" id1 id2;
      check_str "solver defaults to brute" "brute" solver
  | Ok _, Ok _, Ok _ -> Alcotest.fail "target is required"
  | Error m, _, _ | _, Error m, _ ->
      Alcotest.failf "identity must compute: %s" m

let test_learn_run_id_is_lazy () =
  (* a learn that neither checkpoints nor serves /progress never digests
     the graph; forced, the identity is the one the daemon keys jobs on *)
  let module E = Serve.Exec in
  let params =
    J.Obj
      [
        ("graph", J.String "path:6");
        ("target", J.String "E(x1,x2)");
        ("k", J.Int 2);
      ]
  in
  let l = E.learn_prep (E.learn_params ~op:"learn" params) in
  let code =
    E.learn_solve ~out:Format.str_formatter ~err:Format.str_formatter
      ~ckpt:Resil.Ctl.none ~precheck:true l
  in
  ignore (Format.flush_str_formatter ());
  check_int "learn completes" 0 code;
  check "run id unforced after a plain learn" false (Lazy.is_val l.E.run_id);
  match E.learn_identity params with
  | Ok (id, _) -> check_str "forced id = job id" id (Lazy.force l.E.run_id)
  | Error m -> Alcotest.failf "identity must compute: %s" m

let suite =
  [
    QCheck_alcotest.to_alcotest prop_frame_roundtrip;
    Alcotest.test_case "frame rejects corruption" `Quick
      test_frame_rejects_corruption;
    Alcotest.test_case "frame size cap" `Quick test_frame_size_cap;
    Alcotest.test_case "frame over socketpair" `Quick
      test_frame_over_socketpair;
    Alcotest.test_case "EPIPE on write is a clean error" `Quick
      test_write_to_closed_peer_is_clean;
    Alcotest.test_case "closed peer reads as Eof" `Quick
      test_read_closed_peer_is_eof;
    Alcotest.test_case "mid-frame disconnect is an error" `Quick
      test_mid_frame_disconnect_is_error;
    Alcotest.test_case "request round-trip" `Quick test_request_roundtrip;
    Alcotest.test_case "status taxonomy" `Quick test_status_taxonomy;
    Alcotest.test_case "error responses carry the message on stderr" `Quick
      test_error_carries_message;
    Alcotest.test_case "tenant parse and clamp" `Quick
      test_tenant_parse_and_clamp;
    Alcotest.test_case "queue FIFO and deadline shedding" `Quick
      test_sched_fifo_and_shed;
    Alcotest.test_case "closed queue drains" `Quick test_sched_close_drains;
    Alcotest.test_case "jobs persist across reload" `Quick
      test_jobs_persist_and_resume;
    Alcotest.test_case "jobs.json of the old format loads" `Quick
      test_jobs_parent_format_loads;
    Alcotest.test_case "job snapshot mismatch is structured" `Quick
      test_jobs_snapshot_mismatch;
    Alcotest.test_case "warm repeat op is byte-identical" `Quick
      test_run_op_warm_identical;
    Alcotest.test_case "op usage errors exit 2" `Quick test_run_op_usage;
    Alcotest.test_case "out-of-range parameters are usage errors" `Quick
      test_params_validated;
    Alcotest.test_case "local rule reads the budget" `Quick
      test_local_rule_reads_the_budget;
    Alcotest.test_case "admission precheck rejects tiny fuel" `Quick
      test_precheck_rejects_tiny_fuel;
    Alcotest.test_case "one admission rule, served and in-process" `Quick
      test_admission_agreement;
    Alcotest.test_case "submit judges the checkpointed job" `Quick
      test_submit_local_admission;
    Alcotest.test_case "learn identity is deterministic" `Quick
      test_learn_identity_deterministic;
    Alcotest.test_case "learn run id is computed lazily" `Quick
      test_learn_run_id_is_lazy;
    Alcotest.test_case "read checks the frame terminator" `Quick
      test_read_checks_terminator;
    Alcotest.test_case "refused learn prints the training line" `Quick
      test_refused_learn_prints_training;
  ]
