(* Tests for the live-telemetry layer (folearn.pulse) and the sharded
   metric sink underneath it:
   - a qcheck property that per-domain shard merging loses nothing:
     the merged snapshot of a parallel run equals the sequential
     totals, at jobs 1, 2 and 4,
   - event-ring wrap-around and dump ordering,
   - FOLEARNFDR1 encode/decode round-trips and corruption rejection,
   - Prometheus exposition shape,
   - --metrics-addr address parsing,
   - an end-to-end exporter test: server on an ephemeral port, scraped
     with the in-repo client. *)

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let with_sink f =
  Obs.enable ();
  Obs.reset_all ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------------------------------------------------ *)
(* Sharded metric merging                                              *)
(* ------------------------------------------------------------------ *)

let shard_counters =
  [| Obs.Metric.counter "pulse.shard.c0"; Obs.Metric.counter "pulse.shard.c1" |]

let shard_hist = Obs.Metric.histogram "pulse.shard.h0"

(* ops: (which, amount) — which selects a counter or the histogram *)
let apply_op (which, amount) =
  let amount = 1 + (abs amount mod 50) in
  if which mod 3 < 2 then Obs.Metric.add shard_counters.(which mod 3 mod 2) amount
  else Obs.Metric.observe shard_hist (float_of_int amount)

let expected_totals ops =
  let c = Array.make 2 0 in
  let hn = ref 0 and hsum = ref 0.0 in
  List.iter
    (fun (which, amount) ->
      let amount = 1 + (abs amount mod 50) in
      if which mod 3 < 2 then
        c.(which mod 3 mod 2) <- c.(which mod 3 mod 2) + amount
      else begin
        incr hn;
        hsum := !hsum +. float_of_int amount
      end)
    ops;
  (c, !hn, !hsum)

let merged_totals () =
  let snap = Obs.Metric.snapshot () in
  let c = Array.make (Array.length shard_counters) 0 in
  c.(0) <- Obs.Metric.find_counter snap "pulse.shard.c0";
  c.(1) <- Obs.Metric.find_counter snap "pulse.shard.c1";
  match List.assoc_opt "pulse.shard.h0" snap.Obs.Metric.histograms with
  | None -> (c, 0, 0.0)
  | Some hs -> (c, hs.Obs.Metric.hs_count, hs.Obs.Metric.hs_sum)

let run_sharded ~jobs ops =
  with_sink (fun () ->
      let arr = Array.of_list ops in
      let tasks = 8 in
      let pool = Par.Pool.create ~jobs in
      Fun.protect
        ~finally:(fun () -> Par.Pool.shutdown pool)
        (fun () ->
          Par.map_reduce_chunks pool ~n:tasks
            ~map:(fun lo hi ->
              for t = lo to hi - 1 do
                Array.iteri (fun i op -> if i mod tasks = t then apply_op op) arr
              done)
            ~reduce:(fun () () -> ())
            ~init:());
      merged_totals ())

let prop_shard_merge =
  QCheck.Test.make ~count:30 ~name:"sharded merge equals sequential totals"
    QCheck.(list_of_size (Gen.int_range 0 200) (pair (int_bound 5) small_int))
    (fun ops ->
      let ec, en, esum = expected_totals ops in
      List.for_all
        (fun jobs ->
          let c, n, sum = run_sharded ~jobs ops in
          c = ec && n = en && Float.abs (sum -. esum) < 1e-6)
        [ 1; 2; 4 ])

(* metric identity survives worker-domain death: totals must be read
   back from shards whose owning domain has exited *)
let test_shards_survive_pool_shutdown () =
  let c, n, _sum = run_sharded ~jobs:4 [ (0, 1); (1, 2); (2, 3); (0, 4) ] in
  let ec, en, _ = expected_totals [ (0, 1); (1, 2); (2, 3); (0, 4) ] in
  check "counters" true (c = ec);
  check_int "hist count" en n

(* ------------------------------------------------------------------ *)
(* Event ring                                                          *)
(* ------------------------------------------------------------------ *)

let test_ring_wrap () =
  Obs.Event.set_capacity 8;
  Fun.protect
    ~finally:(fun () -> Obs.Event.set_capacity Obs.Event.default_capacity)
    (fun () ->
      for i = 0 to 10 do
        Obs.Event.record ~kind:"test"
          ~args:[ ("i", string_of_int i) ]
          "ring.tick"
      done;
      check_int "total counts overwritten events" 11 (Obs.Event.total ());
      check_int "dropped = total - capacity" 3 (Obs.Event.dropped ());
      let evs = Obs.Event.dump () in
      check_int "ring keeps capacity events" 8 (List.length evs);
      let seqs = List.map (fun e -> e.Obs.Event.seq) evs in
      check "oldest-first contiguous seqs" true
        (seqs = [ 3; 4; 5; 6; 7; 8; 9; 10 ]);
      let last = List.nth evs 7 in
      check_str "payload survives" "10" (List.assoc "i" last.Obs.Event.args))

let test_event_json_roundtrip () =
  Obs.Event.reset ();
  Obs.Event.record ~kind:"guard" ~args:[ ("reason", "fuel") ] "guard.trip";
  match Obs.Event.dump () with
  | [ e ] -> (
      match Obs.Event.of_json (Obs.Event.to_json e) with
      | Ok e' -> check "event JSON round-trip" true (e = e')
      | Error m -> Alcotest.failf "of_json: %s" m)
  | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Flight-recorder dump format                                         *)
(* ------------------------------------------------------------------ *)

let test_fdr_roundtrip () =
  Obs.Event.reset ();
  Obs.Event.record ~kind:"guard" ~args:[ ("reason", "fuel") ] "guard.trip";
  Obs.Event.record ~kind:"resil" "resil.snapshot.save";
  let d = Pulse.Fdr.capture ~reason:"test" in
  check_int "captured both events" 2 (List.length d.Pulse.Fdr.events);
  match Pulse.Fdr.decode (Pulse.Fdr.encode d) with
  | Ok d' -> check "dump round-trip" true (d = d')
  | Error m -> Alcotest.failf "decode: %s" m

let test_fdr_rejects_corruption () =
  Obs.Event.reset ();
  Obs.Event.record ~kind:"test" "one";
  let s = Bytes.of_string (Pulse.Fdr.encode (Pulse.Fdr.capture ~reason:"t")) in
  (* flip one byte inside the JSON body: the CRC must catch it *)
  let i = Bytes.length s - 3 in
  Bytes.set s i (if Bytes.get s i = 'x' then 'y' else 'x');
  (match Pulse.Fdr.decode (Bytes.to_string s) with
  | Ok _ -> Alcotest.fail "corrupt body decoded"
  | Error _ -> ());
  match Pulse.Fdr.decode "NOTAFDRFILE" with
  | Ok _ -> Alcotest.fail "garbage decoded"
  | Error _ -> ()

let test_fdr_write_load () =
  Obs.Event.reset ();
  Obs.Event.record ~kind:"test" ~args:[ ("n", "1") ] "evt";
  let path = Filename.temp_file "folearn-fdr" ".fdr" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
      Pulse.Fdr.write ~path ~reason:"test.write";
      match Pulse.Fdr.load path with
      | Ok d ->
          check_str "reason" "test.write" d.Pulse.Fdr.reason;
          check_int "events" 1 (List.length d.Pulse.Fdr.events)
      | Error m -> Alcotest.failf "load: %s" m)

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

let test_prom_render () =
  with_sink (fun () ->
      Obs.Metric.add (Obs.Metric.counter "pulse.prom/test-c") 3;
      let h = Obs.Metric.histogram "pulse.prom.h" in
      Obs.Metric.observe h 2.0;
      Obs.Metric.observe h 8.0;
      let text = Pulse.Prom.render (Obs.Metric.snapshot ()) in
      (* names: sanitized, folearn_-prefixed; original kept in HELP *)
      check "counter TYPE line" true
        (contains ~needle:"# TYPE folearn_pulse_prom_test_c counter" text);
      check "counter sample" true
        (contains ~needle:"folearn_pulse_prom_test_c 3" text);
      check "original name in HELP" true
        (contains ~needle:"pulse.prom/test-c" text);
      check "histogram rendered as summary" true
        (contains ~needle:"# TYPE folearn_pulse_prom_h summary" text);
      check "p50 sample" true
        (contains ~needle:"folearn_pulse_prom_h{quantile=\"0.5\"}" text);
      check "count sample" true
        (contains ~needle:"folearn_pulse_prom_h_count 2" text);
      check "sum sample" true
        (contains ~needle:"folearn_pulse_prom_h_sum 10" text);
      check "ends with newline" true
        (String.length text > 0 && text.[String.length text - 1] = '\n'))

(* ------------------------------------------------------------------ *)
(* Address parsing                                                     *)
(* ------------------------------------------------------------------ *)

let test_addr_parse () =
  let ok spec expect =
    match Pulse.Addr.parse spec with
    | Ok a -> check ("parse " ^ spec) true (a = expect)
    | Error m -> Alcotest.failf "parse %s: %s" spec m
  in
  ok "unix:/tmp/m.sock" (Pulse.Addr.Unix_sock "/tmp/m.sock");
  ok "127.0.0.1:9100" (Pulse.Addr.Tcp ("127.0.0.1", 9100));
  ok ":0" (Pulse.Addr.Tcp ("127.0.0.1", 0));
  ok "9100" (Pulse.Addr.Tcp ("127.0.0.1", 9100));
  List.iter
    (fun bad ->
      match Pulse.Addr.parse bad with
      | Ok _ -> Alcotest.failf "parse %s: must fail" bad
      | Error _ -> ())
    [ "host:notaport"; "127.0.0.1:70000"; ""; "unix:" ]

(* ------------------------------------------------------------------ *)
(* Progress payload                                                    *)
(* ------------------------------------------------------------------ *)

let test_progress_json () =
  let j =
    Pulse.Progress.to_json
      {
        Pulse.Progress.run_id = "r";
        solver = "brute";
        frontier = 25;
        total = Some 100;
        best = Some (3, 10);
        sample_size = 200;
        fuel_spent = Some 50;
        elapsed_ns = Some 1_000_000L;
        fuel_lo = Some 40;
        fuel_hi = Some 400;
      }
  in
  let f name =
    match Obs.Json.member name j with
    | Some (Obs.Json.Float v) -> v
    | Some (Obs.Json.Int v) -> float_of_int v
    | _ -> Alcotest.failf "missing %s" name
  in
  check "frontier_frac" true (Float.abs (f "frontier_frac" -. 0.25) < 1e-9);
  check "complete_frac" true (Float.abs (f "complete_frac" -. 0.125) < 1e-9);
  check "best_err" true (Float.abs (f "best_err" -. 0.05) < 1e-9)

(* ------------------------------------------------------------------ *)
(* Exporter end to end                                                 *)
(* ------------------------------------------------------------------ *)

let test_server_end_to_end () =
  with_sink (fun () ->
      Obs.Metric.add (Obs.Metric.counter "pulse.e2e.hits") 7;
      match Pulse.Server.start (Pulse.Addr.Tcp ("127.0.0.1", 0)) with
      | Error m -> Alcotest.failf "server start: %s" m
      | Ok srv ->
          Fun.protect
            ~finally:(fun () ->
              Pulse.Server.set_progress None;
              Pulse.Server.stop srv)
            (fun () ->
              let addr = Pulse.Server.bound_addr srv in
              (match addr with
              | Pulse.Addr.Tcp (_, p) ->
                  check "ephemeral port resolved" true (p > 0)
              | _ -> Alcotest.fail "expected a TCP bound address");
              (match Pulse.Client.get addr "/healthz" with
              | Ok body -> check_str "healthz" "ok\n" body
              | Error m -> Alcotest.failf "/healthz: %s" m);
              (match Pulse.Client.get addr "/metrics" with
              | Ok body ->
                  check "live counter exported" true
                    (contains ~needle:"folearn_pulse_e2e_hits 7" body)
              | Error m -> Alcotest.failf "/metrics: %s" m);
              (match Pulse.Client.get addr "/metrics.json" with
              | Ok body -> (
                  match Obs.Json.of_string body with
                  | Ok _ -> ()
                  | Error m -> Alcotest.failf "/metrics.json re-parse: %s" m)
              | Error m -> Alcotest.failf "/metrics.json: %s" m);
              Pulse.Server.set_progress
                (Some (fun () -> Obs.Json.Obj [ ("x", Obs.Json.Int 42) ]));
              (match Pulse.Client.get addr "/progress" with
              | Ok body -> (
                  match Obs.Json.of_string body with
                  | Ok j ->
                      check "progress sampler answers" true
                        (Obs.Json.member "x" j = Some (Obs.Json.Int 42))
                  | Error m -> Alcotest.failf "/progress re-parse: %s" m)
              | Error m -> Alcotest.failf "/progress: %s" m);
              match Pulse.Client.get addr "/nope" with
              | Ok _ -> Alcotest.fail "unknown route must 404"
              | Error _ -> ()))

(* during signal-graceful shutdown /healthz must answer 503 draining,
   so load balancers and scrape loops stop routing to a run that is
   flushing its last snapshot; the other endpoints keep answering *)
let test_healthz_draining () =
  match Pulse.Server.start (Pulse.Addr.Tcp ("127.0.0.1", 0)) with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
      Fun.protect
        ~finally:(fun () ->
          Pulse.Server.set_draining false;
          Pulse.Server.stop srv)
        (fun () ->
          let addr = Pulse.Server.bound_addr srv in
          (match Pulse.Client.get addr "/healthz" with
          | Ok body -> check_str "healthy before drain" "ok\n" body
          | Error m -> Alcotest.failf "/healthz: %s" m);
          Pulse.Server.set_draining true;
          check "flag readable" true (Pulse.Server.draining ());
          (match Pulse.Client.get addr "/healthz" with
          | Ok body -> Alcotest.failf "draining must not be 200 (got %S)" body
          | Error m ->
              check "503 status" true (contains ~needle:"503" m);
              check "draining body" true (contains ~needle:"draining" m));
          (* only health flips; scrapers can still collect the final
             metrics during the grace period *)
          (match Pulse.Client.get addr "/metrics" with
          | Ok _ -> ()
          | Error m -> Alcotest.failf "/metrics during drain: %s" m);
          Pulse.Server.set_draining false;
          match Pulse.Client.get addr "/healthz" with
          | Ok body -> check_str "drain is reversible" "ok\n" body
          | Error m -> Alcotest.failf "/healthz after undrain: %s" m)

(* a sampler that raises must degrade to an in-band error, never take
   the exporter (or the run) down *)
let test_progress_sampler_exception () =
  match Pulse.Server.start (Pulse.Addr.Tcp ("127.0.0.1", 0)) with
  | Error m -> Alcotest.failf "server start: %s" m
  | Ok srv ->
      Fun.protect
        ~finally:(fun () ->
          Pulse.Server.set_progress None;
          Pulse.Server.stop srv)
        (fun () ->
          Pulse.Server.set_progress (Some (fun () -> failwith "boom"));
          match Pulse.Client.get (Pulse.Server.bound_addr srv) "/progress" with
          | Ok body -> check "error reported in-band" true
              (contains ~needle:"boom" body)
          | Error m -> Alcotest.failf "/progress: %s" m)

let suite =
  [
    Alcotest.test_case "shards survive pool shutdown" `Quick
      test_shards_survive_pool_shutdown;
    QCheck_alcotest.to_alcotest prop_shard_merge;
    Alcotest.test_case "event ring wraps oldest-first" `Quick test_ring_wrap;
    Alcotest.test_case "event JSON round-trip" `Quick test_event_json_roundtrip;
    Alcotest.test_case "FDR encode/decode round-trip" `Quick test_fdr_roundtrip;
    Alcotest.test_case "FDR rejects corruption" `Quick
      test_fdr_rejects_corruption;
    Alcotest.test_case "FDR write/load" `Quick test_fdr_write_load;
    Alcotest.test_case "Prometheus exposition shape" `Quick test_prom_render;
    Alcotest.test_case "address parsing" `Quick test_addr_parse;
    Alcotest.test_case "progress JSON fractions" `Quick test_progress_json;
    Alcotest.test_case "exporter end to end" `Quick test_server_end_to_end;
    Alcotest.test_case "healthz answers 503 while draining" `Quick
      test_healthz_draining;
    Alcotest.test_case "sampler exception stays in-band" `Quick
      test_progress_sampler_exception;
  ]
