(* Tests for the observability layer (folearn.obs):
   - span nesting, ordering and exception safety,
   - histogram percentile math on the log-scale buckets,
   - metric snapshot <-> JSON round-trips and the JSON substrate,
   - clock monotonicity,
   - a qcheck property that enabling the sink never changes what any
     solver learns (instrumentation must be observation-only),
   - fresh-name determinism in Localize. *)

open Cgraph
module F = Fo.Formula
module Hyp = Folearn.Hypothesis
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

(* every test leaves the global sink disabled, whatever happens *)
let with_sink f =
  Obs.enable ();
  Obs.reset_all ();
  Fun.protect ~finally:Obs.disable f

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  with_sink (fun () ->
      Obs.Span.with_ "outer" (fun () ->
          Obs.Span.with_ "inner1" (fun () -> ignore (Sys.opaque_identity 1));
          Obs.Span.with_ "inner2" (fun () -> ignore (Sys.opaque_identity 2)));
      let spans = Obs.Span.finished () in
      check_int "three spans" 3 (List.length spans);
      let names = List.map (fun s -> s.Obs.Span.name) spans in
      (* parents sort before their children, siblings by start time *)
      check "order" true (names = [ "outer"; "inner1"; "inner2" ]);
      let depths = List.map (fun s -> s.Obs.Span.depth) spans in
      check "depths" true (depths = [ 0; 1; 1 ]);
      let outer = List.hd spans in
      List.iter
        (fun s ->
          check "child starts inside parent" true
            (s.Obs.Span.start_ns >= outer.Obs.Span.start_ns);
          check "child ends inside parent" true
            (Int64.add s.Obs.Span.start_ns s.Obs.Span.dur_ns
            <= Int64.add outer.Obs.Span.start_ns outer.Obs.Span.dur_ns))
        (List.tl spans))

let test_span_disabled_records_nothing () =
  with_sink (fun () -> ());
  (* sink is disabled again here *)
  Obs.Span.with_ "invisible" (fun () -> ());
  check_int "nothing recorded while disabled" 0 (Obs.Span.count ())

let test_span_survives_exception () =
  with_sink (fun () ->
      (try Obs.Span.with_ "boom" (fun () -> raise Exit)
       with Exit -> ());
      let names = List.map (fun s -> s.Obs.Span.name) (Obs.Span.finished ()) in
      check "raising span still recorded" true (names = [ "boom" ]))

let test_chrome_trace_shape () =
  with_sink (fun () ->
      Obs.Span.with_ ~args:[ ("k", "2") ] "solve" (fun () -> ());
      let doc = Obs.Span.chrome_trace () in
      (* the export must survive its own serializer *)
      match Obs.Json.of_string (Obs.Json.to_string doc) with
      | Error m -> Alcotest.failf "chrome trace does not re-parse: %s" m
      | Ok doc -> (
          match Obs.Json.member "traceEvents" doc with
          | Some (Obs.Json.List [ ev ]) ->
              let field name =
                Option.bind (Obs.Json.member name ev) Obs.Json.to_string_opt
              in
              check_str "ph" "X" (Option.value ~default:"?" (field "ph"));
              check_str "name" "solve"
                (Option.value ~default:"?" (field "name"))
          | _ -> Alcotest.fail "traceEvents must hold exactly one event"))

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

let test_counter_registry_shared () =
  with_sink (fun () ->
      (* two lookups of one name must address the same cell *)
      let a = Obs.Metric.counter "test.shared" in
      let b = Obs.Metric.counter "test.shared" in
      Obs.Metric.incr a;
      Obs.Metric.add b 2;
      check_int "shared cell" 3 (Obs.Metric.value a);
      let snap = Obs.Metric.snapshot () in
      check_int "snapshot sees it" 3 (Obs.Metric.find_counter snap "test.shared");
      check_int "missing counters read 0" 0
        (Obs.Metric.find_counter snap "test.absent"))

let test_histogram_percentiles () =
  with_sink (fun () ->
      let h = Obs.Metric.histogram "test.hist" in
      (* uniform 1..1000: p50 ~ 500, p90 ~ 900, p99 ~ 990.  The log
         buckets are quarter-doublings, so the representative can be off
         by at most a factor of 2^(1/4) ~ 1.19. *)
      for v = 1 to 1000 do
        Obs.Metric.observe h (float_of_int v)
      done;
      let snap = Obs.Metric.snapshot () in
      let hs = List.assoc "test.hist" snap.Obs.Metric.histograms in
      check_int "count" 1000 hs.Obs.Metric.hs_count;
      check "min" true (hs.Obs.Metric.hs_min = 1.0);
      check "max" true (hs.Obs.Metric.hs_max = 1000.0);
      let within p expected =
        let v = Obs.Metric.quantile hs p in
        v >= expected /. 1.2 && v <= expected *. 1.2
      in
      check "p50" true (within 0.5 500.0);
      check "p90" true (within 0.9 900.0);
      check "p99" true (within 0.99 990.0);
      (* degenerate cases *)
      check "empty hist quantile" true
        (Obs.Metric.quantile
           { hs with Obs.Metric.hs_count = 0; hs_buckets = [] }
           0.5
        = 0.0))

(* regression: on narrow integer data the log-bucket representative can
   exceed the tracked maximum (cgraph.bfs.ball_size once reported
   p99 = 17.45 with max = 18 but p50 = 10.37 on all-10 data) — every
   quantile must be clamped into [min, max] *)
let test_quantile_clamped_to_range () =
  with_sink (fun () ->
      let h = Obs.Metric.histogram "test.clamp" in
      for _ = 1 to 100 do
        Obs.Metric.observe h 10.0
      done;
      let snap = Obs.Metric.snapshot () in
      let hs = List.assoc "test.clamp" snap.Obs.Metric.histograms in
      (* all mass in bucket [9.51, 11.31): the raw midpoint 10.37 > max *)
      List.iter
        (fun p ->
          let v = Obs.Metric.quantile hs p in
          check (Printf.sprintf "p%g within [min, max]" (p *. 100.0)) true
            (v >= hs.Obs.Metric.hs_min && v <= hs.Obs.Metric.hs_max);
          check (Printf.sprintf "p%g is exactly 10" (p *. 100.0)) true
            (v = 10.0))
        [ 0.5; 0.9; 0.99 ];
      (* mixed integer data: quantiles must be monotone and in range *)
      let h2 = Obs.Metric.histogram "test.clamp2" in
      List.iter
        (fun v -> Obs.Metric.observe h2 (float_of_int v))
        [ 10; 10; 10; 10; 12; 13; 14; 15; 17; 18 ];
      let snap = Obs.Metric.snapshot () in
      let hs2 = List.assoc "test.clamp2" snap.Obs.Metric.histograms in
      let p50 = Obs.Metric.quantile hs2 0.5 in
      let p90 = Obs.Metric.quantile hs2 0.9 in
      let p99 = Obs.Metric.quantile hs2 0.99 in
      check "p50 <= p90 <= p99" true (p50 <= p90 && p90 <= p99);
      check "all within [min, max]" true
        (p50 >= hs2.Obs.Metric.hs_min && p99 <= hs2.Obs.Metric.hs_max))

let test_snapshot_json_roundtrip () =
  with_sink (fun () ->
      Obs.Metric.incr (Obs.Metric.counter "rt.counter");
      Obs.Metric.set (Obs.Metric.gauge "rt.gauge") 2.5;
      let h = Obs.Metric.histogram "rt.hist" in
      List.iter (Obs.Metric.observe h) [ 0.5; 1.0; 7.0; 300.0 ];
      let snap = Obs.Metric.snapshot () in
      let json_text =
        Obs.Json.to_string (Obs.Metric.snapshot_to_json snap)
      in
      match Obs.Json.of_string json_text with
      | Error m -> Alcotest.failf "snapshot does not re-parse: %s" m
      | Ok doc -> (
          match Obs.Metric.snapshot_of_json doc with
          | Error m -> Alcotest.failf "snapshot_of_json: %s" m
          | Ok snap' ->
              check "counters round-trip" true
                (snap.Obs.Metric.counters = snap'.Obs.Metric.counters);
              check "gauges round-trip" true
                (snap.Obs.Metric.gauges = snap'.Obs.Metric.gauges);
              check "histograms round-trip" true
                (snap.Obs.Metric.histograms = snap'.Obs.Metric.histograms)))

let test_json_parser () =
  let rt v =
    match Obs.Json.of_string (Obs.Json.to_string v) with
    | Ok v' -> v' = v
    | Error _ -> false
  in
  check "nested round-trip" true
    (rt
       (Obs.Json.Obj
          [
            ( "a",
              Obs.Json.List
                [
                  Obs.Json.Int 1; Obs.Json.Float 2.5; Obs.Json.Null;
                  Obs.Json.Bool true; Obs.Json.String "x\"y\n";
                ] );
            ("b", Obs.Json.Obj [ ("c", Obs.Json.Int (-3)) ]);
          ]));
  check "bare int parses as Int" true
    (Obs.Json.of_string "42" = Ok (Obs.Json.Int 42));
  check "decimal parses as Float" true
    (Obs.Json.of_string "42.0" = Ok (Obs.Json.Float 42.0));
  check "truncated document rejected" true
    (Result.is_error (Obs.Json.of_string "{\"a\": "));
  check "trailing garbage rejected" true
    (Result.is_error (Obs.Json.of_string "1 2"));
  (* non-finite floats must degrade to null, not emit invalid JSON *)
  check "infinity encodes as null" true
    (Obs.Json.to_string (Obs.Json.Float infinity) = "null")

let test_clock_monotone () =
  let last = ref (Obs.Clock.now_ns ()) in
  for _ = 1 to 1000 do
    let t = Obs.Clock.now_ns () in
    if t < !last then Alcotest.fail "clock went backwards";
    last := t
  done;
  check "elapsed is non-negative" true (Obs.Clock.elapsed_s !last >= 0.0)

(* ------------------------------------------------------------------ *)
(* QCheck: instrumentation is observation-only                         *)
(* ------------------------------------------------------------------ *)

let qcheck_tracing_transparent =
  QCheck.Test.make
    ~name:"enabling the sink never changes what Erm_brute learns" ~count:20
    QCheck.small_int (fun seed ->
      let n = 5 + (seed mod 4) in
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed n)
      in
      let w = seed mod n in
      let lam =
        Sam.label_with g
          ~target:(fun v -> Graph.mem_edge g v.(0) w)
          (Sam.all_tuples g ~k:1)
      in
      let solve () = Brute.solve g ~k:1 ~ell:1 ~q:1 lam in
      Obs.disable ();
      let off = solve () in
      let on = with_sink solve in
      off.Brute.err = on.Brute.err
      && off.Brute.params_tried = on.Brute.params_tried
      && List.for_all
           (fun t ->
             Hyp.predict off.Brute.hypothesis t
             = Hyp.predict on.Brute.hypothesis t)
           (Sam.all_tuples g ~k:1))

(* ------------------------------------------------------------------ *)
(* Fresh names in Localize                                             *)
(* ------------------------------------------------------------------ *)

let test_localize_avoids_endpoints () =
  (* an endpoint named like a generated variable must not get captured *)
  let f = Fo.Localize.dist_le ~d:4 "_d1" "y" in
  let frees = List.sort String.compare (F.free_vars f) in
  check "free variables are exactly the endpoints" true
    (frees = [ "_d1"; "y" ]);
  check "deterministic" true (f = Fo.Localize.dist_le ~d:4 "_d1" "y");
  (* and the formula still means distance <= 4 *)
  let g = Gen.path 8 in
  let dist_ok =
    List.for_all
      (fun (u, v) ->
        Modelcheck.Eval.holds g [ ("_d1", u); ("y", v) ] f
        = (abs (u - v) <= 4))
      [ (0, 0); (0, 3); (0, 4); (0, 5); (0, 7); (2, 6); (2, 7) ]
  in
  check "dist_le(4) semantics on the path" true dist_ok

let suite =
  [
    Alcotest.test_case "span nesting and ordering" `Quick test_span_nesting;
    Alcotest.test_case "disabled sink records nothing" `Quick
      test_span_disabled_records_nothing;
    Alcotest.test_case "span survives exception" `Quick
      test_span_survives_exception;
    Alcotest.test_case "chrome trace shape" `Quick test_chrome_trace_shape;
    Alcotest.test_case "counter registry is shared" `Quick
      test_counter_registry_shared;
    Alcotest.test_case "histogram percentiles" `Quick
      test_histogram_percentiles;
    Alcotest.test_case "quantiles clamped to [min, max]" `Quick
      test_quantile_clamped_to_range;
    Alcotest.test_case "snapshot JSON round-trip" `Quick
      test_snapshot_json_roundtrip;
    Alcotest.test_case "json parser" `Quick test_json_parser;
    Alcotest.test_case "clock monotone" `Quick test_clock_monotone;
    QCheck_alcotest.to_alcotest qcheck_tracing_transparent;
    Alcotest.test_case "localize fresh names" `Quick
      test_localize_avoids_endpoints;
  ]
