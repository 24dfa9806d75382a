(* Benchmark harness: regenerates every experiment table of the
   reproduction (E1-E9 in DESIGN.md / EXPERIMENTS.md) plus Bechamel
   micro-benchmarks of the core operations.

   The paper ("On the Parameterized Complexity of Learning First-Order
   Logic", PODS 2022) has no empirical section of its own — every table
   below validates a *claim* of the paper (see EXPERIMENTS.md for the
   claim-by-claim record).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- e5 e7   # selected experiments
     dune exec bench/main.exe -- micro   # Bechamel micro-benchmarks only *)

open Cgraph
module Sam = Folearn.Sample
module Brute = Folearn.Erm_brute
module Real = Folearn.Erm_realizable
module Nd = Folearn.Erm_nd
module Pac = Folearn.Pac
module Vc = Folearn.Vc
module Red = Folearn.Reduction
module S = Splitter.Strategy
module T = Modelcheck.Types

(* monotonic: wall-clock steps (NTP) must not corrupt timings *)
let time f =
  let t0 = Obs.Clock.now_ns () in
  let r = f () in
  (r, Obs.Clock.elapsed_s t0)

let header title = Printf.printf "\n=== %s ===\n" title
let row fmt = Printf.printf fmt

(* ------------------------------------------------------------------ *)
(* Telemetry: every experiment runs with the obs sink enabled and      *)
(* emits BENCH_<name>.json — wall time, the headline counters, its     *)
(* structured table rows, and the full metric snapshot.                *)
(* ------------------------------------------------------------------ *)

let bench_schema_version = 1
let bench_rows : Obs.Json.t list ref = ref []
let add_row kvs = bench_rows := Obs.Json.Obj kvs :: !bench_rows

(* crash-safety headline: experiments that exercise checkpointing (E17)
   report their snapshot writes here; the bench driver itself never
   resumes, so [resumed] is a constant the telemetry schema carries for
   symmetry with the CLI's snapshots *)
let bench_checkpoint_writes = ref 0

(* runs behind each reported timing: an experiment that repeats its
   measurement (min-of-samples, percentiles) sets its count; 1 means
   every figure is a single run *)
let bench_samples = ref 1

(* experiment-specific headline keys (E21 and E22 report their health
   at the top level so check_bench_json.py can gate on them) *)
let bench_extra_headline : (string * Obs.Json.t) list ref = ref []

(* a shape check that does not hold prints FAIL and makes the whole
   bench run exit 1, once every requested experiment has written its
   telemetry *)
let shape_failed = ref false

let shape_fail msg =
  shape_failed := true;
  Printf.printf "FAIL: %s\n%!" msg

let jint n = Obs.Json.Int n
let jfloat x = Obs.Json.Float x
let jstr s = Obs.Json.String s

(* The metrics registered before the first experiment (at module
   initialisation, and the slot counters of the default pool every
   experiment sweeps on) are listed in every snapshot.  One registered
   later (another pool's slot counter, a per-reason exhaustion counter)
   is listed only by the experiment that registers it or records to it,
   so which metrics a snapshot lists does not depend on the experiments
   run before it in the same process.  [before] is the registry as the
   experiment started. *)
let static_metrics =
  lazy
    (ignore (Par.default ());
     Obs.Metric.snapshot ())

let own_metrics ~(before : Obs.Metric.snapshot) (snap : Obs.Metric.snapshot) =
  let static = Lazy.force static_metrics in
  let keep static before recorded =
    List.filter (fun (n, v) ->
        List.mem_assoc n static || (not (List.mem_assoc n before)) || recorded v)
  in
  {
    Obs.Metric.counters =
      keep static.counters before.counters (fun v -> v <> 0) snap.counters;
    gauges = keep static.gauges before.gauges (fun v -> v <> 0.0) snap.gauges;
    histograms =
      keep static.histograms before.histograms
        (fun h -> h.Obs.Metric.hs_count > 0)
        snap.histograms;
  }

let run_instrumented name f =
  ignore (Lazy.force static_metrics);
  let before = Obs.Metric.snapshot () in
  bench_rows := [];
  bench_checkpoint_writes := 0;
  bench_extra_headline := [];
  bench_samples := 1;
  Obs.enable ();
  Obs.reset_all ();
  (* fresh intern tables too, so an experiment's counters do not depend
     on the experiments run before it in the same process *)
  Modelcheck.Types.reset_tables ();
  let t0 = Obs.Clock.now_ns () in
  (* one broken experiment must not cost the others their telemetry *)
  let error =
    match Obs.Span.with_ ("bench." ^ name) f with
    | () -> None
    | exception e -> Some (Printexc.to_string e)
  in
  (match error with
  | Some msg -> Printf.eprintf "experiment %s failed: %s\n%!" name msg
  | None -> ());
  let wall = Obs.Clock.elapsed_s t0 in
  let snap = own_metrics ~before (Obs.Metric.snapshot ()) in
  Obs.disable ();
  let doc =
    Obs.Json.Obj
      ([
         ("experiment", jstr name);
         ("schema_version", jint bench_schema_version);
         ("jobs", jint (Par.jobs ()));
         (* the host: the cores a pool may use, and the compiler *)
         ("cores", jint (Domain.recommended_domain_count ()));
         ("ocaml_version", jstr Sys.ocaml_version);
         ("samples", jint !bench_samples);
         ("wall_time_s", jfloat wall);
         ( "model_check_calls",
           jint (Obs.Metric.find_counter snap "modelcheck.eval.calls") );
         ( "hypotheses_enumerated",
           jint (Obs.Metric.find_counter snap "erm.hypotheses_enumerated") );
         ("resumed", Obs.Json.Bool false);
         ("checkpoint_writes", jint !bench_checkpoint_writes);
         ("events_recorded", jint (Obs.Event.total ()));
       ]
      @ !bench_extra_headline
      @ (match error with
        | Some msg -> [ ("error", jstr msg) ]
        | None -> [])
      @ [
          ("rows", Obs.Json.List (List.rev !bench_rows));
          ("metrics", Obs.Metric.snapshot_to_json snap);
        ])
  in
  let file = Printf.sprintf "BENCH_%s.json" name in
  (* atomic replace: a reader (or a crash mid-write) never sees a
     zero-length or truncated telemetry file.  fsync off — telemetry is
     not crash-durable state, the rename alone gives atomicity. *)
  Resil.atomic_write ~fsync:false ~path:file
    (Obs.Json.to_string doc ^ "\n");
  Printf.printf "telemetry -> %s\n" file

(* ------------------------------------------------------------------ *)
(* E1: XP data complexity of direct FO model checking                  *)
(* ------------------------------------------------------------------ *)

let e1 () =
  header "E1  FO-MC data complexity (naive evaluator, fixed phi)";
  let phi2 = Fo.Parser.parse "forall x. exists y. E(x, y)" in
  let phi3 =
    Fo.Parser.parse
      "forall x. exists y. exists z. E(x, y) /\\ E(y, z) /\\ ~ z = x"
  in
  row "%-10s %6s %14s %14s\n" "graph" "n" "qr2 time (s)" "qr3 time (s)";
  List.iter
    (fun n ->
      List.iter
        (fun (gname, g) ->
          let _, t2 = time (fun () -> Modelcheck.Eval.sentence g phi2) in
          let _, t3 = time (fun () -> Modelcheck.Eval.sentence g phi3) in
          add_row
            [
              ("graph", jstr gname);
              ("n", jint (Graph.order g));
              ("qr2_s", jfloat t2);
              ("qr3_s", jfloat t3);
            ];
          row "%-10s %6d %14.4f %14.4f\n" gname (Graph.order g) t2 t3)
        [
          ("path", Gen.path n);
          ("tree", Gen.random_tree ~seed:n n);
          ("grid", Gen.grid (n / 8) 8);
        ])
    [ 32; 64; 128; 256 ];
  row "shape check: time grows ~ n^(qr), independent of the class.\n"

(* ------------------------------------------------------------------ *)
(* E2: Theorem 1 - model checking via the ERM oracle                   *)
(* ------------------------------------------------------------------ *)

let e2 () =
  header "E2  Theorem 1: FO-MC through the (L,Q)-FO-ERM oracle";
  let sentences =
    [
      "exists x. Red(x) /\\ exists y. E(x, y) /\\ Blue(y)";
      "forall x. exists y. E(x, y)";
      "exists x. forall y. ~ E(x, y)";
    ]
  in
  row "%-8s %-44s %7s %7s %6s %7s %9s\n" "graph" "sentence" "direct" "viaERM"
    "agree" "calls" "|T| (top)";
  List.iter
    (fun (gname, g) ->
      List.iter
        (fun src ->
          let phi = Fo.Parser.parse src in
          let direct = Modelcheck.Eval.sentence g phi in
          let via, stats = Red.model_check ~oracle:Red.exact_oracle g phi in
          row "%-8s %-44s %7b %7b %6b %7d %9s\n" gname src direct via
            (direct = via) stats.Red.oracle_calls
            (match stats.Red.representative_sets with
            | t :: _ -> string_of_int t
            | [] -> "-"))
        sentences)
    [
      ( "P10",
        Graph.with_colors (Gen.path 10) [ ("Red", [ 0; 5 ]); ("Blue", [ 9 ]) ]
      );
      ( "tree12",
        Gen.colored_balanced ~seed:3 ~colors:[ "Red"; "Blue" ]
          (Gen.random_tree ~seed:5 12) );
      ("C8", Gen.cycle 8);
    ];
  row
    "shape check: 100%% agreement; oracle calls stay O(n^2 * depth) and |T| \
     is far below n.\n"

(* ------------------------------------------------------------------ *)
(* E3: Proposition 11 - brute-force ERM scaling in n^ell               *)
(* ------------------------------------------------------------------ *)

(* the least-squares slope of log y against log x *)
let log_log_slope pts =
  let pts = List.map (fun (x, y) -> (log x, log y)) pts in
  let k = float_of_int (List.length pts) in
  let sx = List.fold_left (fun a (x, _) -> a +. x) 0.0 pts
  and sy = List.fold_left (fun a (_, y) -> a +. y) 0.0 pts in
  let mx = sx /. k and my = sy /. k in
  let num = List.fold_left (fun a (x, y) -> a +. ((x -. mx) *. (y -. my))) 0.0 pts
  and den = List.fold_left (fun a (x, _) -> a +. ((x -. mx) *. (x -. mx))) 0.0 pts in
  num /. den

let tp_misses_c = Obs.Metric.counter "modelcheck.types.tp_misses"

let e3 () =
  header "E3  Prop 11: exact ERM, cost n^ell (q = 1, k = 1)";
  row "%-6s %6s %6s %12s %12s %12s %8s\n" "class" "n" "ell" "params"
    "tp rows" "time (s)" "err";
  let rows_at_ell1 = ref [] in
  List.iter
    (fun n ->
      let g =
        Gen.colored ~seed:n ~colors:[ "Red" ] (Gen.random_tree ~seed:n n)
      in
      let w = n / 2 in
      let lam =
        Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
          (Sam.all_tuples g ~k:1)
      in
      List.iter
        (fun ell ->
          if ell = 0 || (ell = 1 && n <= 40) || (ell = 2 && n <= 12) then begin
            let before = Obs.Metric.value tp_misses_c in
            let r, t = time (fun () -> Brute.solve g ~k:1 ~ell ~q:1 lam) in
            let tp_rows = Obs.Metric.value tp_misses_c - before in
            if ell = 1 then rows_at_ell1 := (n, tp_rows) :: !rows_at_ell1;
            add_row
              [
                ("n", jint n);
                ("ell", jint ell);
                ("params_tried", jint r.Brute.params_tried);
                ("tp_rows", jint tp_rows);
                ("time_s", jfloat t);
                ("err", jfloat r.Brute.err);
              ];
            row "%-6s %6d %6d %12d %12d %12.4f %8.3f\n" "tree" n ell
              r.Brute.params_tried tp_rows t r.Brute.err
          end)
        [ 0; 1; 2 ])
    [ 8; 12; 16; 24; 40 ];
  (* Prop 11 at q = 1, m = n: n^ell candidates, m roots each, and a
     root's node and n leaves, so n^(ell+1) (n + 1) rows, slope ~ ell + 2 *)
  let slope =
    log_log_slope
      (List.map
         (fun (n, r) -> (float_of_int n, float_of_int r))
         !rows_at_ell1)
  in
  row "tp-row exponent over n at ell = 1: %.3f (Prop 11: 3 +/- 0.25)\n" slope;
  bench_extra_headline := [ ("tp_row_exponent_ell1", jfloat slope) ];
  if Float.abs (slope -. 3.0) > 0.25 then
    shape_fail
      (Printf.sprintf "E3: tp rows grow as n^%.3f at ell = 1, outside 3 +/- 0.25"
         slope);
  row
    "shape check: tp rows are n^ell * m * (n + 1); their exponent over n \
     at ell = 1 must stay within 3 +/- 0.25 (Prop 11's n^(ell+2) at \
     m = n).  Time no longer follows the rows: a root costs O(deg v + \
     distinct keys).  ell = 1 reaches err 0 (the target uses one \
     constant).\n"

(* ------------------------------------------------------------------ *)
(* E4: Proposition 12 - the realisable k = 1 learner                   *)
(* ------------------------------------------------------------------ *)

let e4 () =
  header "E4  Prop 12: realisable k=1 prefix search vs brute force";
  let target = Fo.Parser.parse "exists z. E(x, z) /\\ E(z, y1)" in
  row "%-6s %6s %10s %12s | %12s %12s\n" "class" "n" "mc calls"
    "prefix t(s)" "brute tried" "brute t(s)";
  List.iter
    (fun n ->
      let g = Gen.path n in
      let hidden = n / 2 in
      let lam =
        Sam.label_with g
          ~target:(fun v ->
            Modelcheck.Eval.holds g [ ("x", v.(0)); ("y1", hidden) ] target)
          (Sam.all_tuples g ~k:1)
      in
      let pre, t_pre =
        time (fun () -> Real.solve g ~ell:1 ~catalogue:[ target ] lam)
      in
      let brute, t_brute =
        time (fun () -> Brute.solve g ~k:1 ~ell:1 ~q:1 lam)
      in
      match pre with
      | Some r ->
          add_row
            [
              ("n", jint n);
              ("mc_calls", jint r.Real.mc_calls);
              ("prefix_time_s", jfloat t_pre);
              ("brute_tried", jint brute.Brute.params_tried);
              ("brute_time_s", jfloat t_brute);
            ];
          row "%-6s %6d %10d %12.4f | %12d %12.4f\n" "path" n r.Real.mc_calls
            t_pre brute.Brute.params_tried t_brute
      | None -> row "%-6s %6d %10s %12s | (reject)\n" "path" n "-" "-")
    [ 8; 12; 16; 24 ];
  row
    "shape check: both reach err 0; the prefix search performs <= ell*n MC \
     calls (each itself poly), the brute force tries n^ell parameter \
     tuples.\n"

(* ------------------------------------------------------------------ *)
(* E5: Theorem 13 - the nowhere dense learner                          *)
(* ------------------------------------------------------------------ *)

let e5 () =
  header "E5  Theorem 13: (L,Q)-FO-ERM on nowhere dense classes";
  row "%-8s %6s %9s %8s %5s %7s %9s | %7s %10s\n" "class" "n" "nd t(s)"
    "nd err" "ell" "rounds" "branches" "eps*" "guarantee";
  let eps = 0.125 in
  List.iter
    (fun (cname, sizes, make_g, cls) ->
      List.iter
        (fun n ->
          let g = make_g n in
          let w = n / 2 in
          let lam =
            Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
              (Sam.all_tuples g ~k:1)
          in
          let cfg =
            Nd.default_config ~epsilon:eps ~radius:1 ~branch_width:8 ~k:1
              ~ell_star:1 ~q_star:1 cls
          in
          let rep, t_nd = time (fun () -> Nd.solve cfg g lam) in
          let eps_star =
            if n <= 40 then Some (Brute.solve g ~k:1 ~ell:1 ~q:1 lam).Brute.err
            else None
          in
          row "%-8s %6d %9.3f %8.3f %5d %7d %9d | %7s %10s\n" cname n t_nd
            rep.Nd.err rep.Nd.ell_used
            (List.length rep.Nd.rounds)
            rep.Nd.branches_explored
            (match eps_star with
            | Some e -> Printf.sprintf "%.3f" e
            | None -> "(skip)")
            (match eps_star with
            | Some e -> if rep.Nd.err <= e +. eps +. 1e-9 then "OK" else "VIOL"
            | None -> if rep.Nd.err <= eps +. 1e-9 then "OK" else "VIOL"))
        sizes)
    [
      ( "tree",
        [ 15; 30; 60; 120 ],
        (fun n -> Gen.random_tree ~seed:n n),
        Splitter.Nowhere_dense.forests );
      ( "grid",
        [ 15; 30; 60 ],
        (fun n -> Gen.grid (max 3 (n / 6)) 6),
        Splitter.Nowhere_dense.planar_like );
      ( "deg3",
        [ 15; 30; 60 ],
        (fun n -> Gen.random_bounded_degree ~seed:n ~n ~d:3),
        Splitter.Nowhere_dense.bounded_degree ~d:3 );
      ( "2tree",
        [ 15; 30; 60 ],
        (fun n -> Gen.ktree ~seed:n ~k:2 ~n),
        Splitter.Nowhere_dense.planar_like );
    ];
  row
    "shape check: err <= eps* + eps everywhere; nd time grows gently with n \
     while the brute-force baseline (E3) multiplies by n per parameter.\n"

(* ------------------------------------------------------------------ *)
(* E6: PAC generalisation via uniform convergence                      *)
(* ------------------------------------------------------------------ *)

let e6 () =
  header "E6  agnostic PAC: generalisation gap vs sample size";
  let g =
    Gen.colored ~seed:41 ~colors:[ "Premium" ]
      (Gen.random_bounded_degree ~seed:13 ~n:40 ~d:4)
  in
  let target v =
    not
      (Array.exists
         (fun u -> Graph.has_color g "Premium" u)
         (Graph.neighbors g v.(0)))
  in
  let solver lam = (Brute.solve g ~k:1 ~ell:0 ~q:1 lam).Brute.hypothesis in
  row "%-8s %6s %12s %12s %10s\n" "noise" "m" "train err" "risk" "gap";
  List.iter
    (fun noise ->
      let d = Pac.uniform_noisy g ~k:1 ~target ~noise in
      List.iter
        (fun m ->
          let runs =
            List.init 5 (fun s -> Pac.run ~solver d ~seed:(97 * s) ~m)
          in
          let avg f = List.fold_left (fun a o -> a +. f o) 0.0 runs /. 5.0 in
          row "%-8.2f %6d %12.3f %12.3f %10.3f\n" noise m
            (avg (fun o -> o.Pac.training_error))
            (avg (fun o -> o.Pac.generalisation_error))
            (avg (fun o -> o.Pac.gap)))
        [ 10; 40; 160; 640 ])
    [ 0.0; 0.15 ];
  row
    "shape check: gap shrinks ~1/sqrt(m); with noise, risk approaches the \
     Bayes risk (= the noise rate) rather than 0.\n"

(* ------------------------------------------------------------------ *)
(* E7: the splitter game characterisation (Fact 4)                     *)
(* ------------------------------------------------------------------ *)

let e7 () =
  header "E7  splitter game: rounds to win across classes";
  row "%-10s %6s %6s %6s %6s\n" "class" "n" "r=1" "r=2" "r=3";
  let rounds g r =
    match
      S.empirical_rounds ~max_rounds:(Graph.order g + 2) g ~r
        ~splitter:S.best_heuristic
    with
    | Some s -> string_of_int s
    | None -> "-"
  in
  List.iter
    (fun (cname, make_g) ->
      List.iter
        (fun n ->
          let g = make_g n in
          row "%-10s %6d %6s %6s %6s\n" cname (Graph.order g) (rounds g 1)
            (rounds g 2) (rounds g 3))
        [ 16; 32; 64 ])
    [
      ("path", Gen.path);
      ("tree", fun n -> Gen.random_tree ~seed:n n);
      ("grid", fun n -> Gen.grid (max 2 (n / 8)) 8);
      ("deg3", fun n -> Gen.random_bounded_degree ~seed:n ~n ~d:3);
      ("2tree", fun n -> Gen.ktree ~seed:n ~k:2 ~n);
      ("clique", Gen.clique);
      ("gnp.5", fun n -> Gen.gnp ~seed:n ~n ~p:0.5);
    ];
  row
    "shape check: sparse classes need a bounded number of rounds as n \
     grows; cliques (and dense G(n,p)) need ~n rounds - the Fact 4 \
     dichotomy.\n"

(* ------------------------------------------------------------------ *)
(* E8: Gaifman locality of types (Fact 5 / Corollary 6)                *)
(* ------------------------------------------------------------------ *)

let e8 () =
  header "E8  locality: Fact 5 at radius r(q), and type growth";
  row "%-12s %6s %4s %16s %12s\n" "class" "n" "q" "violations@r(q)"
    "min radius";
  List.iter
    (fun (cname, g) ->
      List.iter
        (fun q ->
          let r = Fo.Gaifman.radius q in
          let v = Modelcheck.Locality.violations g ~q ~r ~k:1 in
          let min_r = Modelcheck.Locality.minimal_radius g ~q ~k:1 ~max_r:6 in
          row "%-12s %6d %4d %16d %12s\n" cname (Graph.order g) q
            (List.length v)
            (match min_r with Some r -> string_of_int r | None -> ">6"))
        [ 0; 1 ])
    [
      ("col-path", Graph.with_colors (Gen.path 14) [ ("Red", [ 0; 6; 7 ]) ]);
      ( "col-tree",
        Gen.colored ~seed:5 ~colors:[ "Red"; "Blue" ]
          (Gen.random_tree ~seed:9 14) );
      ("cycle", Gen.cycle 12);
    ];
  row "\ntype counts (k = 1): distinct tp_q classes per graph\n";
  row "%-12s %6s %8s %8s %8s\n" "class" "n" "q=0" "q=1" "q=2";
  List.iter
    (fun (cname, g) ->
      row "%-12s %6d %8d %8d %8d\n" cname (Graph.order g)
        (T.count_types g ~q:0 ~k:1)
        (T.count_types g ~q:1 ~k:1)
        (T.count_types g ~q:2 ~k:1))
    [
      ("path", Gen.path 14);
      ("col-path", Graph.with_colors (Gen.path 14) [ ("Red", [ 0; 6; 7 ]) ]);
      ("cycle", Gen.cycle 14);
      ("tree", Gen.random_tree ~seed:9 14);
      ("gnp.4", Gen.gnp ~seed:2 ~n:14 ~p:0.4);
    ];
  row
    "shape check: zero Fact 5 violations at the Gaifman radius; the \
     realised minimal radius is usually much smaller (the bound is \
     worst-case); type counts grow with q and with structural richness.\n"

(* ------------------------------------------------------------------ *)
(* E9: VC dimension / hypothesis-class size (Section 3, Adler-Adler)   *)
(* ------------------------------------------------------------------ *)

let e9 () =
  header "E9  VC dimension of H_{k,ell,q}(G): sparse vs dense (Adler-Adler)";
  (* For ell = 0 the hypotheses are exactly the unions of realised
     q-type classes, so VC(H_{1,0,q}) = #realised classes: with every
     vertex in its own class, every dichotomy is realisable. *)
  row "%-10s %6s %18s %18s\n" "class" "n" "VC(H_{1,0,3}) = #tp" "VC lb, ell=1 q=1";
  List.iter
    (fun (cname, make_g) ->
      List.iter
        (fun n ->
          let g = make_g n in
          let classes = T.count_types g ~q:3 ~k:1 in
          let lb = Vc.lower_bound ~seed:5 g ~k:1 ~ell:1 ~q:1 ~max_d:6 in
          row "%-10s %6d %18d %17d+\n" cname (Graph.order g) classes lb)
        [ 8; 12; 16; 20 ])
    [
      ("path", Gen.path);
      ("tree", fun n -> Gen.random_tree ~seed:n n);
      ("gnp.5", fun n -> Gen.gnp ~seed:n ~n ~p:0.5);
    ];
  row "\nhypothesis-class size |H_{1,ell,1}(G)| = f * n^ell (Section 3):\n";
  row "%-10s %6s %6s %16s\n" "class" "n" "ell" "log2 |H| bound";
  List.iter
    (fun n ->
      let g = Gen.colored ~seed:n ~colors:[ "Red" ] (Gen.random_tree ~seed:n n) in
      List.iter
        (fun ell ->
          row "%-10s %6d %6d %16.1f\n" "col-tree" n ell
            (Pac.log2_hypothesis_count g ~k:1 ~ell ~q:1))
        [ 0; 1; 2 ])
    [ 12; 24 ];
  row
    "shape check: on paths (nowhere dense) the rank-3 type count - and \
     hence VC(H_{1,0,3}) - saturates at a constant (8), while on dense \
     G(n,1/2) every vertex gets its own type: VC grows linearly in n, the \
     Adler-Adler dichotomy.  |H| carries the n^ell factor of Section 3.\n"

(* ------------------------------------------------------------------ *)
(* E10: the counting extension (paper's conclusion / FOC)              *)
(* ------------------------------------------------------------------ *)

let e10 () =
  header "E10  FOC extension: counting quantifiers at fixed rank";
  row "%-14s %6s | %10s %10s | %10s %10s\n" "target" "n" "plain q=1"
    "plain q=2" "cnt q=1,t2" "cnt q=1,t3";
  List.iter
    (fun n ->
      let g = Gen.caterpillar ~seed:n ~spine:(n / 2) ~legs:3 in
      let n_actual = Graph.order g in
      let lam =
        Sam.label_with g ~target:(fun v -> Graph.degree g v.(0) >= 3)
          (Sam.all_tuples g ~k:1)
      in
      let plain q = (Brute.solve g ~k:1 ~ell:0 ~q lam).Brute.err in
      let counting tmax =
        (Brute.solve ~tmax g ~k:1 ~ell:0 ~q:1 lam).Brute.err
      in
      row "%-14s %6d | %10.3f %10.3f | %10.3f %10.3f\n" "degree>=3" n_actual
        (plain 1) (plain 2) (counting 2) (counting 3))
    [ 12; 20; 32 ];
  row "\ncounting-type counts (k = 1, q = 1) vs threshold cap:\n";
  row "%-10s %6s %8s %8s %8s %8s\n" "class" "n" "plain" "t=2" "t=3" "t=4";
  List.iter
    (fun (cname, g) ->
      row "%-10s %6d %8d %8d %8d %8d\n" cname (Graph.order g)
        (T.count_types g ~q:1 ~k:1)
        (T.count_types ~cap:2 g ~q:1 ~k:1)
        (T.count_types ~cap:3 g ~q:1 ~k:1)
        (T.count_types ~cap:4 g ~q:1 ~k:1))
    [
      ("path", Gen.path 14);
      ("star", Gen.star 14);
      ("caterp.", Gen.caterpillar ~seed:2 ~spine:7 ~legs:3);
      ("gnp.3", Gen.gnp ~seed:4 ~n:14 ~p:0.3);
    ];
  row
    "shape check: 'degree >= 3' is inexpressible at plain rank 1 (err > 0) \
     and needs rank 3 in plain FO, but counting rank 1 with threshold 3 is \
     exact; counting types strictly refine plain types as the cap grows.\n"

(* ------------------------------------------------------------------ *)
(* E11: sublinear local learning (Grohe-Ritzert predecessor result)    *)
(* ------------------------------------------------------------------ *)

let e11 () =
  header "E11  sublinear local learner: access independent of |G|";
  (* The examples and the hidden parameter live in a fixed 200-vertex
     block at the start of every graph; only the rest of the graph grows
     with n.  Every ball the learner builds is then the same graph at
     every n >= 800, so touched, pool, error and fuel must not move:
     a BFS that touched anything beyond N_r would show up as fuel. *)
  let block_n = 200 and m = 12 and w = 100 in
  let deg3_block = Gen.random_bounded_degree ~seed:3 ~n:block_n ~d:3 in
  (* deg3 at order n: the block, a 20-vertex path, then a random
     degree-3 background on the rest, joined through the path into one
     component.  No ball reaches 20 steps down the path, but a search
     that ran on past radius r would walk the whole background. *)
  let deg3 n =
    if n <= block_n then deg3_block
    else begin
      let tail = 20 in
      let bg_start = block_n + tail in
      let bg = Gen.random_bounded_degree ~seed:n ~n:(n - bg_start) ~d:3 in
      let free g = List.find (fun v -> Graph.degree g v < 3) (Graph.vertices g) in
      Graph.create ~n ~colors:[]
        ~edges:
          (Graph.edges deg3_block
          @ List.init (tail - 1) (fun i -> (block_n + i, block_n + i + 1))
          @ List.map (fun (u, v) -> (u + bg_start, v + bg_start)) (Graph.edges bg)
          @ [ (free deg3_block, block_n); (bg_start - 1, bg_start + free bg) ])
    end
  in
  (* drawn from the block's vertex ids, which every graph shares *)
  let examples = Sam.random_tuples ~seed:5 (Gen.path block_n) ~k:1 ~m in
  row "%-8s %8s %6s | %9s %9s %10s %9s %10s | %12s\n" "class" "n" "m"
    "touched" "pool" "local t(s)" "err" "fuel" "brute t(s)";
  let fuel_at = Hashtbl.create 8 in
  List.iter
    (fun (cname, make_g) ->
      List.iter
        (fun n ->
          let g = make_g n in
          let lam =
            Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1) examples
          in
          let budget = Guard.Budget.unlimited () in
          let local, t_local =
            time (fun () ->
                match
                  Folearn.Erm_local.solve_budgeted ~budget ~radius:1 g ~k:1
                    ~ell:1 ~q:1 lam
                with
                | Guard.Complete r -> r
                | Guard.Exhausted _ -> failwith "E11: unlimited budget tripped")
          in
          let fuel = (Guard.Budget.spent budget).Guard.fuel in
          Hashtbl.replace fuel_at (cname, n) fuel;
          let t_brute =
            if n <= 200 then
              Printf.sprintf "%.4f"
                (snd (time (fun () -> Brute.solve g ~k:1 ~ell:1 ~q:1 lam)))
            else "(skip)"
          in
          add_row
            [
              ("class", jstr cname);
              ("n", jint n);
              ("touched", jint local.Folearn.Erm_local.vertices_touched);
              ("pool", jint local.Folearn.Erm_local.pool_size);
              ("local_time_s", jfloat t_local);
              ("err", jfloat local.Folearn.Erm_local.err);
              ("fuel", jint fuel);
            ];
          row "%-8s %8d %6d | %9d %9d %10.4f %9.3f %10d | %12s\n" cname n m
            local.Folearn.Erm_local.vertices_touched
            local.Folearn.Erm_local.pool_size t_local
            local.Folearn.Erm_local.err fuel t_brute)
        [ 200; 800; 3200; 12800 ])
    [ ("path", Gen.path); ("deg3", deg3) ];
  List.iter
    (fun cname ->
      let f800 = Hashtbl.find fuel_at (cname, 800)
      and f3200 = Hashtbl.find fuel_at (cname, 3200) in
      if f800 <> f3200 then
        shape_fail
          (Printf.sprintf "E11 %s: fuel %d at n = 800 but %d at n = 3200"
             cname f800 f3200))
    [ "path"; "deg3" ];
  row
    "shape check: vertices touched, fuel (BFS, type and sweep ticks under \
     an unlimited budget) and local time stay flat as n grows 64x (they \
     depend on d, m, r only; fuel at n = 800 and 3200 must be equal), \
     while the brute-force baseline scales with n; the sublinear-regime \
     claim of [22] reproduced.\n"

(* ------------------------------------------------------------------ *)
(* E12: ablations of the Theorem 13 learner's design choices           *)
(* ------------------------------------------------------------------ *)

let e12 () =
  header "E12  ablations: Theorem 13 learner design choices";
  let eps = 0.125 in
  let instance seed =
    let g = Gen.random_tree ~seed 40 in
    let w = seed mod 40 in
    let lam =
      Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
        (Sam.all_tuples g ~k:1)
    in
    (g, lam)
  in
  let seeds = [ 3; 7; 11; 19; 23 ] in
  let run ~branch_width ~splitter (g, lam) =
    let cls =
      {
        Splitter.Nowhere_dense.name = "ablation";
        splitter;
        s_bound = (fun ?budget:_ _ ~r:_ -> 8);
      }
    in
    let cfg =
      Nd.default_config ~epsilon:eps ~radius:1 ~branch_width ~k:1 ~ell_star:1
        ~q_star:1 cls
    in
    Nd.solve cfg g lam
  in
  row "%-28s %10s %10s %10s\n" "variant" "mean err" "max err" "mean t(s)";
  List.iter
    (fun (name, branch_width, splitter) ->
      let errs, times =
        List.split
          (List.map
             (fun seed ->
               let rep, t = time (fun () -> run ~branch_width ~splitter (instance seed)) in
               (rep.Nd.err, t))
             seeds)
      in
      let mean xs = List.fold_left ( +. ) 0.0 xs /. float_of_int (List.length xs) in
      row "%-28s %10.3f %10.3f %10.3f\n" name (mean errs)
        (List.fold_left Float.max 0.0 errs)
        (mean times))
    [
      ("full (width 8, min-max-comp)", 8, S.min_max_component);
      ("greedy only (width 1)", 1, S.min_max_component);
      ("width 3", 3, S.min_max_component);
      ("splitter = centre", 8, S.center);
      ("splitter = top-of-ball", 8, S.top_of_ball);
    ];
  row
    "shape check: the guarantee is robust - even width 1 and weaker \
     splitter strategies stay within eps of the optimum on trees, at \
     lower cost; the full variant dominates on error.\n"

(* ------------------------------------------------------------------ *)
(* E13: MSO on strings - preprocessing-based evaluation ([21])         *)
(* ------------------------------------------------------------------ *)

let e13 () =
  header "E13  MSO on strings: compile once, evaluate in O(log n)";
  let module M = Mso.Formula in
  let module O = Mso.Oracle in
  let module W = Mso.Word in
  let module L = Mso.Learner in
  let sigma = 3 in
  let phi =
    M.ExistsPos ("e", M.And [ M.Less ("e", "x"); M.Letter (2, "e") ])
  in
  let scope = [ ("x", M.Pos) ] in
  let dfa = M.compile ~sigma ~scope phi in
  row "concept: 'some error precedes x' (%d-state track automaton)\n"
    dfa.Mso.Automaton.states;
  row "%10s %14s %16s %16s\n" "n" "preproc (ms)" "naive eval (us)"
    "oracle eval (us)";
  List.iter
    (fun n ->
      let w = W.random ~seed:n ~sigma ~len:n in
      let oracle, t_pre = time (fun () -> O.make ~sigma dfa w) in
      let queries = List.init 200 (fun i -> (i * 7919) mod n) in
      let (), t_naive =
        time (fun () ->
            List.iter
              (fun p -> ignore (O.eval_naive oracle ~marks:[ (p, 1) ]))
              queries)
      in
      let (), t_fast =
        time (fun () ->
            List.iter
              (fun p -> ignore (O.eval_with_marks oracle ~marks:[ (p, 1) ]))
              queries)
      in
      row "%10d %14.1f %16.2f %16.2f\n" n (t_pre *. 1e3)
        (t_naive *. 1e6 /. 200.0)
        (t_fast *. 1e6 /. 200.0))
    [ 1_000; 10_000; 100_000; 1_000_000 ];
  (* end-to-end string learning *)
  let catalogue =
    [
      { L.name = "letter"; phi = M.Letter (2, "x"); xvars = [ "x" ]; yvars = [] };
      { L.name = "threshold"; phi = M.Less ("y1", "x"); xvars = [ "x" ]; yvars = [ "y1" ] };
    ]
  in
  row "\nstring learning (hidden threshold concept):\n";
  row "%10s %8s %10s %12s\n" "n" "m" "err" "time (s)";
  List.iter
    (fun n ->
      let word = W.random ~seed:(n + 1) ~sigma ~len:n in
      let thr = n / 2 in
      let examples =
        List.init 24 (fun i ->
            let p = (i * 4241) mod n in
            ([| p |], p > thr))
      in
      let res, t =
        time (fun () -> L.solve ~sigma ~word ~catalogue examples)
      in
      match res with
      | Some r -> row "%10d %8d %10.3f %12.3f\n" n 24 r.L.err t
      | None -> row "%10d %8d %10s %12.3f\n" n 24 "-" t)
    [ 200; 800; 3200 ];
  (* trees: the [19]-style two-pass preprocessing, then O(1) per node *)
  row "\ntrees: per-node oracle (two passes, then O(1) per query):\n";
  row "%10s %14s %18s\n" "nodes" "preproc (ms)" "classify-all (ms)";
  let module Tf = Mso.Formula in
  let module Tl = Mso.Tree_learner in
  let tree_phi =
    Tf.And
      [
        Tf.Letter (0, "x");
        Tf.ExistsPos
          ( "p",
            Tf.And
              [ Mso.Formula.Or
                  [ Tf.Child1 ("p", "x"); Tf.Child2 ("p", "x") ];
                Tf.Letter (1, "p") ] );
      ]
  in
  let classify ~note t =
    let n = Mso.Tree.size t in
    let oracle, t_pre =
      time (fun () -> Tl.Node_oracle.make ~sigma:2 tree_phi t)
    in
    let (), t_all =
      time (fun () ->
          for v = 0 to n - 1 do
            ignore (Tl.Node_oracle.holds oracle v)
          done)
    in
    row "%10d %14.2f %18.2f%s\n" n (t_pre *. 1e3) (t_all *. 1e3) note
  in
  List.iter
    (fun n -> classify ~note:"" (Mso.Tree.random ~seed:n ~sigma:2 ~size:n))
    [ 1_000; 10_000; 100_000 ];
  (* a left comb: every right child a leaf, so the left spine is as deep
     as the tree is large *)
  let comb = ref (Mso.Tree.Leaf 0) in
  for k = 1 to 50_000 do
    comb := Mso.Tree.Binary (k mod 2, !comb, Mso.Tree.Leaf (k / 2 mod 2))
  done;
  classify ~note:"  (left comb)" !comb;
  row
    "shape check: preprocessing is near-linear, per-query evaluation is \
     logarithmic on strings and O(1) on trees (flat vs the naive O(n) run \
     growing 1000x); the learner recovers the hidden threshold exactly.\n"

(* ------------------------------------------------------------------ *)
(* E14: preprocessing for repeated learning tasks (conclusion §6)      *)
(* ------------------------------------------------------------------ *)

let e14 () =
  header "E14  graph preprocessing: one index, many learning tasks";
  row "%-8s %8s %8s | %12s %14s | %14s\n" "class" "n" "tasks" "build (s)"
    "per task (ms)" "no index (ms)";
  List.iter
    (fun n ->
      let g = Gen.random_bounded_degree ~seed:n ~n ~d:3 in
      let tasks =
        List.init 20 (fun i ->
            Sam.label_with g
              ~target:(fun v -> Graph.degree g v.(0) >= (i mod 3) + 1)
              (Sam.random_tuples ~seed:i g ~k:1 ~m:20))
      in
      let idx, t_build =
        time (fun () -> Folearn.Preindex.build g ~q:1 ~r:1)
      in
      let (), t_tasks =
        time (fun () ->
            List.iter (fun lam -> ignore (Folearn.Preindex.erm idx lam)) tasks)
      in
      let (), t_noindex =
        time (fun () ->
            List.iter
              (fun lam ->
                ignore (Folearn.Erm_local.solve ~radius:1 g ~k:1 ~ell:0 ~q:1 lam))
              tasks)
      in
      add_row
        [
          ("n", jint n);
          ("build_s", jfloat t_build);
          ("per_task_ms", jfloat (t_tasks *. 1e3 /. 20.0));
          ("no_index_ms", jfloat (t_noindex *. 1e3 /. 20.0));
          ("classes", jint (Folearn.Preindex.class_count idx));
        ];
      row "%-8s %8d %8d | %12.3f %14.3f | %14.3f\n" "deg3" n 20 t_build
        (t_tasks *. 1e3 /. 20.0)
        (t_noindex *. 1e3 /. 20.0))
    [ 100; 400; 1600 ];
  row
    "shape check: after the one-off build, each task costs O(m) (flat in \
     n); the per-task baseline redoes neighbourhood work every time - the \
     preprocessing regime the conclusion asks about, on graphs.\n"

(* ------------------------------------------------------------------ *)
(* E15: graceful degradation under a shrinking fuel budget             *)
(* ------------------------------------------------------------------ *)

let e15 () =
  header "E15  graceful degradation: fuel ladder at q* = 2 (local -> brute)";
  let g = Gen.random_tree ~seed:11 20 in
  let w = 10 in
  let lam =
    Sam.label_with g ~target:(fun v -> Bfs.dist g v.(0) w <= 1)
      (Sam.all_tuples g ~k:1)
  in
  row "%10s | %-9s %-8s %5s %8s %7s %10s\n" "fuel" "outcome" "solver" "rank"
    "err" "stages" "fuel spent";
  List.iter
    (fun fuel ->
      let budget = Option.map (fun f -> Guard.Budget.make ~fuel:f ()) fuel in
      let outcome = Folearn.Degrade.learn ?budget g ~k:1 ~ell:1 ~q:2 lam in
      let fuel_str =
        match fuel with Some f -> string_of_int f | None -> "(none)"
      in
      (* stages run on [for_stage] copies, so the parent budget's own
         counters stay at zero; account the exhausted stages instead *)
      let attempts_fuel l =
        List.fold_left
          (fun acc (a : Folearn.Degrade.attempt) ->
            acc + a.Folearn.Degrade.spent.Guard.fuel)
          0 l.Folearn.Degrade.attempts
      in
      let spent_fuel =
        match outcome with
        | Guard.Complete l -> attempts_fuel l
        | Guard.Exhausted { spent; _ } -> spent.Guard.fuel
      in
      let emit status solver q_used err stages =
        add_row
          [
            ( "fuel",
              match fuel with Some f -> jint f | None -> Obs.Json.Null );
            ("status", jstr status);
            ("solver", jstr solver);
            ("q_used", jint q_used);
            ("err", jfloat err);
            ("stages_exhausted", jint stages);
            ("fuel_spent", jint spent_fuel);
          ];
        row "%10s | %-9s %-8s %5d %8.3f %7d %10d\n" fuel_str status solver
          q_used err stages spent_fuel
      in
      match outcome with
      | Guard.Complete l ->
          emit
            (if l.Folearn.Degrade.degraded then "degraded" else "complete")
            l.Folearn.Degrade.solver l.Folearn.Degrade.q_used
            l.Folearn.Degrade.err
            (List.length l.Folearn.Degrade.attempts)
      | Guard.Exhausted { best_so_far = Some l; _ } ->
          emit "salvaged" l.Folearn.Degrade.solver l.Folearn.Degrade.q_used
            l.Folearn.Degrade.err
            (List.length l.Folearn.Degrade.attempts)
      | Guard.Exhausted { best_so_far = None; reason; _ } ->
          add_row
            [
              ( "fuel",
                match fuel with Some f -> jint f | None -> Obs.Json.Null );
              ("status", jstr "exhausted");
              ("reason", jstr (Guard.reason_to_string reason));
              ("fuel_spent", jint spent_fuel);
            ];
          row "%10s | %-9s (%s)\n" fuel_str "exhausted"
            (Guard.reason_to_string reason))
    [ None; Some 2_000_000; Some 200_000; Some 20_000; Some 2_000; Some 200;
      Some 20 ];
  row
    "shape check: every rung answers or exits cleanly — no exception ever \
     escapes; as fuel shrinks the chain falls from the rank-2 local learner \
     to brute-force ERM at smaller rank (err rises gracefully), and at the \
     bottom only a best-so-far salvage or a clean exhaustion remains.\n"

(* ------------------------------------------------------------------ *)
(* E16: deterministic domain parallelism - speedup vs jobs             *)
(* ------------------------------------------------------------------ *)

let e16 () =
  header "E16  parallel ERM: speedup vs jobs (bit-identical hypotheses)";
  (* brute-force ERM, its candidate sweep chunked across the pool.
     jobs = 1 runs first so the global intern tables are warm; every
     later level must then reproduce its hypothesis bit for bit. *)
  let g_erm = Gen.gnp ~seed:7 ~n:36 ~p:0.15 in
  let lam =
    Sam.label_with g_erm ~target:(fun v -> Bfs.dist g_erm v.(0) 18 <= 1)
      (Sam.all_tuples g_erm ~k:1)
  in
  let levels = [ 1; 2; 4 ] in
  row "%-10s %5s %10s %9s %10s %9s\n" "workload" "jobs" "time (s)"
    "speedup" "err" "match";
  let baseline = ref None in
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let erm, t_erm =
        time (fun () -> Brute.solve ~pool g_erm ~k:1 ~ell:1 ~q:2 lam)
      in
      Par.Pool.shutdown pool;
      let here =
        (Folearn.Hypothesis.signature erm.Brute.hypothesis, erm.Brute.err)
      in
      let t1_erm, agree =
        match !baseline with
        | None ->
            baseline := Some (t_erm, here);
            (t_erm, true)
        | Some (a, first) -> (a, first = here)
      in
      add_row
        [
          ("workload", jstr "erm_brute");
          ("jobs", jint jobs);
          ("time_s", jfloat t_erm);
          ("speedup", jfloat (t1_erm /. t_erm));
          ("identical", Obs.Json.Bool agree);
        ];
      row "%-10s %5d %10.3f %9.2f %10.3f %9b\n" "erm_brute" jobs t_erm
        (t1_erm /. t_erm) erm.Brute.err agree)
    levels;
  row
    "shape check: hypotheses and errors are identical at every jobs \
     level; speedup approaches the worker count on multi-core hosts and \
     stays ~1 (never a large slowdown) when the machine has a single \
     core.\n"

(* ------------------------------------------------------------------ *)
(* Bechamel micro-benchmarks                                           *)
(* ------------------------------------------------------------------ *)

let micro () =
  header "micro-benchmarks (Bechamel, monotonic clock)";
  let open Bechamel in
  let g = Gen.colored ~seed:3 ~colors:[ "Red" ] (Gen.random_tree ~seed:7 64) in
  let ctx = T.make_ctx g in
  let phi = Fo.Parser.parse "exists y. E(x1, y) /\\ Red(y)" in
  let tests =
    [
      Test.make ~name:"bfs-ball-r2"
        (Staged.stage (fun () -> Bfs.ball g ~r:2 [ 31 ]));
      Test.make ~name:"eval-rank1"
        (Staged.stage (fun () ->
             Modelcheck.Eval.holds_tuple g ~vars:[ "x1" ] [| 31 |] phi));
      (let compiled = Modelcheck.Compile.compile g ~vars:[ "x1" ] phi in
       Test.make ~name:"eval-rank1-compiled"
         (Staged.stage (fun () ->
              Modelcheck.Compile.holds_tuple compiled [| 31 |])));
      Test.make ~name:"csr-neighbor-scan"
        (Staged.stage (fun () ->
             let acc = ref 0 in
             for v = 0 to Graph.order g - 1 do
               Graph.iter_neighbors g v (fun w -> acc := !acc + w)
             done;
             !acc));
      Test.make ~name:"tp-q1-cold"
        (Staged.stage (fun () -> T.tp (T.make_ctx g) ~q:1 [| 31 |]));
      Test.make ~name:"ltp-q1-r2-memo"
        (Staged.stage (fun () -> T.ltp ctx ~q:1 ~r:2 [| 31 |]));
      Test.make ~name:"induced-half"
        (Staged.stage (fun () -> Ops.induced g (List.init 32 (fun i -> 2 * i))));
      Test.make ~name:"hintikka-q1"
        (Staged.stage (fun () ->
             Modelcheck.Hintikka.of_tuple ~colors:[ "Red" ] g ~q:1 [| 31 |]));
    ]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:300 ~quota:(Time.second 0.5) ~stabilize:false ()
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"core" ~fmt:"%s/%s" tests)
  in
  (* each estimate regresses over its own samples; record the fewest *)
  bench_samples :=
    Hashtbl.fold
      (fun _ (b : Benchmark.t) acc -> min acc (Array.length b.Benchmark.lr))
      raw max_int;
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name v acc ->
        match Analyze.OLS.estimates v with
        | Some [ t ] -> (name, t) :: acc
        | _ -> acc)
      results []
    |> List.sort compare
  in
  row "%-28s %16s\n" "operation" "time/run";
  List.iter
    (fun (name, t) ->
      let pretty =
        if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
        else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
        else Printf.sprintf "%.0f ns" t
      in
      add_row [ ("operation", jstr name); ("ns_per_run", jfloat t) ];
      row "%-28s %16s\n" name pretty)
    rows

(* ------------------------------------------------------------------ *)
(* overhead: instrumentation must be ~free when the sink is disabled   *)
(* ------------------------------------------------------------------ *)

(* Uninstrumented clone of Modelcheck.Eval's recursive evaluator.  It
   exists only as the baseline of the disabled-overhead check below;
   keep it in sync with lib/modelcheck/eval.ml. *)
module Plain_eval = struct
  module VMap = Map.Make (String)

  let lookup env x =
    match VMap.find_opt x env with Some v -> v | None -> raise Not_found

  let rec eval g env (f : Fo.Formula.t) =
    match f with
    | True -> true
    | False -> false
    | Atom (Eq (x, y)) -> lookup env x = lookup env y
    | Atom (Edge (x, y)) -> Graph.mem_edge g (lookup env x) (lookup env y)
    | Atom (Color (c, x)) -> Graph.has_color g c (lookup env x)
    | Not f -> not (eval g env f)
    | And fs -> List.for_all (eval g env) fs
    | Or fs -> List.exists (eval g env) fs
    | Implies (a, b) -> (not (eval g env a)) || eval g env b
    | Iff (a, b) -> eval g env a = eval g env b
    | Exists (x, body) ->
        let n = Graph.order g in
        let rec try_from v =
          v < n && (eval g (VMap.add x v env) body || try_from (v + 1))
        in
        try_from 0
    | Forall (x, body) ->
        let n = Graph.order g in
        let rec all_from v =
          v >= n || (eval g (VMap.add x v env) body && all_from (v + 1))
        in
        all_from 0
    | CountGe (t, x, body) ->
        let n = Graph.order g in
        let rec count_from v found =
          found >= t
          || (v < n
             && count_from (v + 1)
                  (if eval g (VMap.add x v env) body then found + 1 else found))
        in
        count_from 0 0

  let sentence g f = eval g VMap.empty f
end

let overhead () =
  header "overhead  disabled instrumentation vs uninstrumented Eval clone";
  let g = Gen.grid 16 16 in
  let phi = Fo.Parser.parse "forall x. exists y. E(x, y)" in
  let reps = 30 in
  let samples = 11 in
  bench_samples := samples;
  let once f =
    snd
      (time (fun () ->
           for _ = 1 to reps do
             ignore (f ())
           done))
  in
  (* the driver enables the sink around every experiment; this one
     measures the DISABLED cost, so switch it off for the duration *)
  let was_enabled = Obs.enabled () in
  Obs.disable ();
  let f_inst () = Modelcheck.Eval.sentence g phi in
  let f_plain () = Plain_eval.sentence g phi in
  ignore (once f_inst);
  ignore (once f_plain);
  (* interleaved min-of-samples: the minimum is the run least disturbed
     by scheduling noise, and interleaving keeps thermal/frequency drift
     from biasing one side *)
  let t_inst = ref infinity and t_plain = ref infinity in
  for _ = 1 to samples do
    t_inst := Float.min !t_inst (once f_inst);
    t_plain := Float.min !t_plain (once f_plain)
  done;
  let t_inst = !t_inst and t_plain = !t_plain in
  if was_enabled then Obs.enable ();
  let ratio = t_inst /. t_plain in
  add_row
    [
      ("instrumented_disabled_s", jfloat t_inst);
      ("uninstrumented_s", jfloat t_plain);
      ("ratio", jfloat ratio);
    ];
  row "%-28s %12.6f s\n" "instrumented (sink off)" t_inst;
  row "%-28s %12.6f s\n" "uninstrumented clone" t_plain;
  row "%-28s %12.3f  (acceptance: < 1.05)\n" "ratio" ratio;
  row
    "shape check: with the sink disabled each instrumentation point is one \
     atomic load + branch, invisible next to the evaluator's own work.\n"

(* ------------------------------------------------------------------ *)
(* E17: checkpoint cadence overhead                                    *)
(* ------------------------------------------------------------------ *)

let e17 () =
  header "E17  checkpoint cadence overhead (brute ERM, cycle:20, ell 1, q 2)";
  let g = Graph.with_colors (Gen.cycle 20) [ ("Red", [ 0; 5; 10 ]) ] in
  let lam =
    Sam.label_with g
      ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Sam.all_tuples g ~k:1)
  in
  let snap = Filename.temp_file "folearn-e17" ".snap" in
  (* an unlimited budget on every variant, as a CLI `--checkpoint` run
     without budget flags installs; the cadence itself is checked per
     candidate *)
  let once ckpt =
    let budget = Guard.Budget.unlimited () in
    snd
      (time (fun () ->
           ignore (Brute.solve_budgeted ~budget ~ckpt g ~k:1 ~ell:1 ~q:2 lam)))
  in
  (* a controller is single-run state (frontier, resume cursor), so
     each timed run gets a fresh one *)
  let variants =
    [
      ("baseline", fun () -> Resil.Ctl.none);
      ( "default-cadence",
        fun () -> Resil.Ctl.create ~path:snap ~run_id:"e17" ~solver:"brute" () );
      ( "every-64",
        fun () ->
          Resil.Ctl.create ~path:snap ~every:64 ~run_id:"e17" ~solver:"brute" () );
      ( "every-16",
        fun () ->
          Resil.Ctl.create ~path:snap ~every:16 ~run_id:"e17" ~solver:"brute" () );
      ( "every-1",
        fun () ->
          Resil.Ctl.create ~path:snap ~every:1 ~run_id:"e17" ~solver:"brute" () );
    ]
  in
  let samples = 7 in
  bench_samples := samples;
  List.iter (fun (_, mk) -> ignore (once (mk ()))) variants;
  (* interleaved min-of-samples, as in the overhead experiment *)
  let best = Array.make (List.length variants) infinity in
  let writes = Array.make (List.length variants) 0 in
  for _ = 1 to samples do
    List.iteri
      (fun i (_, mk) ->
        let ckpt = mk () in
        let t = once ckpt in
        writes.(i) <- Resil.Ctl.writes ckpt;
        if t < best.(i) then best.(i) <- t)
      variants
  done;
  bench_checkpoint_writes := Array.fold_left ( + ) 0 writes;
  let base = best.(0) in
  row "%-18s %12s %8s %8s\n" "variant" "time (s)" "ratio" "writes";
  List.iteri
    (fun i (name, _) ->
      let ratio = best.(i) /. base in
      add_row
        [
          ("variant", jstr name);
          ("time_s", jfloat best.(i));
          ("ratio", jfloat ratio);
          ("snapshot_writes", jint writes.(i));
        ];
      row "%-18s %12.6f %8.3f %8d%s\n" name best.(i) ratio writes.(i)
        (if name = "default-cadence" then "  (acceptance: < 1.05)" else ""))
    variants;
  (try Sys.remove snap with Sys_error _ -> ());
  row
    "shape check: the default cadence (time-driven, 2 s) adds only a \
     clock read per candidate on a short run; candidate cadences pay \
     one durable snapshot write per [every] settled candidates.\n"

(* ------------------------------------------------------------------ *)
(* E18: static plan calibration (focost)                               *)
(* ------------------------------------------------------------------ *)

(* Replay Analysis.Plan envelopes against the Obs counters of real
   runs.  Acceptance: every observed quantity lies inside its predicted
   [lo, hi] envelope; for the exact solvers (brute, counting) lo = hi =
   observed (calibration factor 1.0); for local and nd the documented
   calibration is the bracket itself, with the hi/observed looseness
   ratio reported per row (the nd branch-and-bound hi is a worst-case
   game-tree bound, so factors of 10^3..10^5 are expected and fine —
   the *sound* side used for admission is lo, which is tight). *)

let e18 () =
  header "E18  static plan calibration (predicted vs observed spend)";
  let module Plan = Analysis.Plan in
  let module Count = Analysis.Cost_model.Count in
  let module Env = Analysis.Cost_model.Env in
  let counter snap name = Obs.Metric.find_counter snap name in
  let configs =
    [
      ("brute", `Brute, Gen.path 12, 1, 1);
      ("brute", `Brute, Gen.random_tree ~seed:7 18, 1, 2);
      ("counting", `Counting, Gen.path 12, 1, 1);
      ("local", `Local, Gen.random_tree ~seed:11 18, 1, 1);
      ("local", `Local, Gen.path 12, 1, 1);
      ("nd", `Nd, Gen.path 10, 1, 1);
    ]
  in
  row "%-10s %6s %14s %14s %14s %8s %8s\n" "solver" "n" "fuel lo" "fuel seen"
    "fuel hi" "bracket" "factor";
  let all_ok = ref true in
  List.iter
    (fun (name, solver, g, ell, q) ->
      let k = 1 in
      let lam =
        Sam.label_with g ~target:(fun v -> v.(0) mod 3 = 0)
          (Sam.all_tuples g ~k)
      in
      let inp = Plan.input g ~k ~ell ~q (List.map fst lam) in
      let p =
        Plan.analyze inp
          (match solver with
          | `Brute -> Plan.Brute
          | `Counting -> Plan.Counting
          | `Local -> Plan.Local
          | `Nd -> Plan.Nd)
      in
      let before = Obs.Metric.snapshot () in
      let budget = Guard.Budget.unlimited () in
      (match solver with
      | `Brute ->
          ignore (Brute.solve_budgeted ~budget g ~k ~ell ~q lam)
      | `Counting ->
          ignore (Brute.solve_budgeted ~budget ~tmax:2 g ~k ~ell ~q lam)
      | `Local ->
          ignore (Folearn.Erm_local.solve_budgeted ~budget g ~k ~ell ~q lam)
      | `Nd ->
          let cls = Splitter.Nowhere_dense.of_graph "e18" g in
          let cfg =
            Nd.default_config ~radius:1 ~k ~ell_star:(max 1 ell) ~q_star:q cls
          in
          ignore (Nd.solve_budgeted ~budget cfg g lam));
      let after = Obs.Metric.snapshot () in
      let spent = Guard.Budget.spent budget in
      let delta cname = counter after cname - counter before cname in
      let observed_evals =
        delta "modelcheck.types.tp_misses"
        + delta "modelcheck.types.ltp_misses"
      in
      let observed_hyp = delta "erm.hypotheses_enumerated" in
      let inside (e : Env.t) v =
        Count.leq e.Env.lo (Count.of_int v)
        && Count.leq (Count.of_int v) e.Env.hi
      in
      (* table/ball envelopes are capacity bounds: observed *peaks* are
         memo-insertion-order dependent and may undershoot lo by a row,
         so only the admission-relevant side (observed <= hi) is checked *)
      let capped (e : Env.t) v = Count.leq (Count.of_int v) e.Env.hi in
      let fuel_ok = inside p.Plan.fuel_total spent.Guard.fuel in
      let hyp_ok = inside p.Plan.hypotheses observed_hyp in
      let evals_ok = inside p.Plan.type_evals observed_evals in
      let table_ok = capped p.Plan.table_total spent.Guard.table_rows in
      let ball_ok = capped p.Plan.ball_total spent.Guard.ball_peak in
      let ok = fuel_ok && hyp_ok && evals_ok && table_ok && ball_ok in
      if not ok then all_ok := false;
      let cint c =
        match Count.to_int_opt c with Some v -> string_of_int v | None -> "sat"
      in
      let factor =
        match Count.to_int_opt p.Plan.fuel_total.Env.hi with
        | Some hi when spent.Guard.fuel > 0 ->
            float_of_int hi /. float_of_int spent.Guard.fuel
        | _ -> Float.infinity
      in
      add_row
        [
          ("solver", jstr name);
          ("n", jint (Graph.order g));
          ("ell", jint ell);
          ("q", jint q);
          ("exact", Obs.Json.Bool p.Plan.exact);
          ("fuel_lo", jstr (cint p.Plan.fuel_total.Env.lo));
          ("fuel_hi", jstr (cint p.Plan.fuel_total.Env.hi));
          ("fuel_observed", jint spent.Guard.fuel);
          ("hypotheses_observed", jint observed_hyp);
          ("type_evals_observed", jint observed_evals);
          ("table_observed", jint spent.Guard.table_rows);
          ("ball_observed", jint spent.Guard.ball_peak);
          ("fuel_factor", jfloat factor);
          ("fuel_ok", Obs.Json.Bool fuel_ok);
          ("hypotheses_ok", Obs.Json.Bool hyp_ok);
          ("type_evals_ok", Obs.Json.Bool evals_ok);
          ("table_ok", Obs.Json.Bool table_ok);
          ("ball_ok", Obs.Json.Bool ball_ok);
          ("within_envelope", Obs.Json.Bool ok);
        ];
      row "%-10s %6d %14s %14d %14s %8s %8.2f\n" name (Graph.order g)
        (cint p.Plan.fuel_total.Env.lo)
        spent.Guard.fuel
        (cint p.Plan.fuel_total.Env.hi)
        (if ok then "ok" else "FAIL") factor)
    configs;
  add_row [ ("all_within_envelope", Obs.Json.Bool !all_ok) ];
  row
    "acceptance: every observed counter (fuel, hypotheses, type \
     evaluations, table rows, ball peak) inside its predicted envelope; \
     brute/counting envelopes are exact (factor 1.00).%s\n"
    (if !all_ok then "" else "  CALIBRATION FAILED")

(* ------------------------------------------------------------------ *)
(* E19: live exporter overhead                                         *)
(* ------------------------------------------------------------------ *)

(* The tentpole question for fopulse: what does serving live telemetry
   cost the learner?  Same interleaved min-of-samples discipline as
   [overhead], but the comparison is (sink enabled + exporter serving +
   a scraper hammering /metrics) against (sink disabled, nothing
   listening).  The exporter runs on its own domain and the sharded
   sink keeps the hot path lock-free, so the ratio should stay inside
   the same < 1.05 bar the disabled-sink path holds itself to. *)

let e19 () =
  header "E19  live exporter overhead (sink + server + scraper vs disabled)";
  (* the workload is the learner's real hot path (brute ERM, the
     mutex-sink bottleneck of ROADMAP item 2 before the sink was
     sharded), not a metric-saturated micro-loop: the bar is what a
     *production run* pays for leaving telemetry on and scraped *)
  let g = Graph.with_colors (Gen.cycle 20) [ ("Red", [ 0; 5; 10 ]) ] in
  let lam =
    Sam.label_with g
      ~target:(fun v -> Graph.has_color g "Red" v.(0))
      (Sam.all_tuples g ~k:1)
  in
  let reps = 12 in
  (* a multiple of 3: the three leg orders appear equally often *)
  let samples = 6 in
  bench_samples := samples;
  let once f =
    snd
      (time (fun () ->
           for _ = 1 to reps do
             ignore (f ())
           done))
  in
  let f () = Brute.solve_budgeted g ~k:1 ~ell:1 ~q:2 lam in
  let was_enabled = Obs.enabled () in
  let run_disabled () =
    Obs.disable ();
    once f
  in
  (* sink-only leg: recording on, nobody scraping — isolates the
     sharded record cost from the exporter's *)
  let run_sink () =
    Obs.enable ();
    once f
  in
  (* live leg: sink on, exporter up, one scraper pulling /metrics at
     1 Hz — the most aggressive scrape_interval Prometheus deployments
     use in practice (the default is 15 s); on a single-core box the
     scraper and server domains timeshare with the workload, which is
     exactly the cost a production run would pay.  Each sample spans
     several scrapes (reps is sized so one sample takes ~3 s), so the
     min over samples cannot dodge the scraper. *)
  let run_live addr =
    Obs.enable ();
    let stop = Atomic.make false in
    let scraper =
      Domain.spawn (fun () ->
          let n = ref 0 in
          while not (Atomic.get stop) do
            (match Pulse.Client.get addr "/metrics" with
            | Ok _ -> Stdlib.incr n
            | Error _ -> ());
            Unix.sleepf 1.0
          done;
          !n)
    in
    let t = once f in
    Atomic.set stop true;
    let scrapes = Domain.join scraper in
    (t, scrapes)
  in
  (* Clock-speed drift on a shared box swamps a ratio of two mins
     taken minutes apart, so the statistic is paired: each sample runs
     the three legs back-to-back (drift cancels inside a triple) and
     the reported ratio is the MEDIAN of the per-sample ratios. *)
  let median a =
    let a = Array.copy a in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (match Pulse.Server.start (Pulse.Addr.Tcp ("127.0.0.1", 0)) with
  | Error m -> row "exporter failed to start: %s\n" m
  | Ok srv ->
      let addr = Pulse.Server.bound_addr srv in
      ignore (run_disabled ());
      ignore (run_live addr);
      let live_r = Array.make samples 0.0 in
      let sink_r = Array.make samples 0.0 in
      let t_live = ref infinity
      and t_sink = ref infinity
      and t_off = ref infinity in
      let scrapes = ref 0 in
      for i = 0 to samples - 1 do
        (* rotate the leg order so no leg always pays the
           first-after-domain-churn position *)
        let tl = ref 0.0 and ts = ref 0.0 and t0 = ref 0.0 in
        let leg = function
          | 0 ->
              let t, s = run_live addr in
              scrapes := !scrapes + s;
              tl := t
          | 1 -> ts := run_sink ()
          | _ -> t0 := run_disabled ()
        in
        leg (i mod 3);
        leg ((i + 1) mod 3);
        leg ((i + 2) mod 3);
        let tl = !tl and ts = !ts and t0 = !t0 in
        live_r.(i) <- tl /. t0;
        sink_r.(i) <- ts /. t0;
        t_live := Float.min !t_live tl;
        t_sink := Float.min !t_sink ts;
        t_off := Float.min !t_off t0
      done;
      Pulse.Server.stop srv;
      let spread a =
        Array.fold_left Float.min a.(0) a, Array.fold_left Float.max a.(0) a
      in
      let ratio = median live_r and sink_ratio = median sink_r in
      let live_lo, live_hi = spread live_r in
      let sink_lo, sink_hi = spread sink_r in
      add_row
        [
          ("live_s", jfloat !t_live);
          ("sink_s", jfloat !t_sink);
          ("disabled_s", jfloat !t_off);
          ("ratio", jfloat ratio);
          ("sink_ratio", jfloat sink_ratio);
          ("ratio_spread", jfloat (live_hi -. live_lo));
          ("sink_ratio_spread", jfloat (sink_hi -. sink_lo));
          ("scrapes", jint !scrapes);
        ];
      row "%-28s %12.6f s\n" "live (sink+server+scraper)" !t_live;
      row "%-28s %12.6f s\n" "sink on, nobody scraping" !t_sink;
      row "%-28s %12.6f s\n" "disabled sink" !t_off;
      row "%-28s %12d\n" "scrapes served" !scrapes;
      (* the spread is the per-sample min..max: when it brackets the
         acceptance bar, the box's scheduling noise floor exceeds the
         effect and the median alone should not be over-read *)
      row "%-28s %12.3f  [%.3f..%.3f]  (acceptance: < 1.05)\n" "sink ratio"
        sink_ratio sink_lo sink_hi;
      (* the live ratio folds in the scraper/server domains' own CPU,
         which on a single-core box timeshares with the solver — the
         gate is looser because that part is deployment topology, not
         exporter cost; with >= 2 cores live converges to sink *)
      row "%-28s %12.3f  [%.3f..%.3f]  (acceptance: < 1.10)\n" "live ratio"
        ratio live_lo live_hi);
  if was_enabled then Obs.enable () else Obs.disable ()

(* ------------------------------------------------------------------ *)
(* E21: hot-path engine - compiled eval, CSR adjacency, sharded intern *)
(* ------------------------------------------------------------------ *)

let e21 () =
  header
    "E21  hot-path engine: compiled evaluation, CSR adjacency, sharded \
     interning";
  let cores = Domain.recommended_domain_count () in
  let compile_hits_c = Obs.Metric.counter "modelcheck.compile.cache_hits" in
  let ty_merges_c = Obs.Metric.counter "modelcheck.types.shard_merges" in
  (* --- A: all four solvers once, sequentially.  The signature rows
     record the exact hypotheses; the deterministic work counters land
     in the metric snapshot for bench/compare.py. *)
  let g = Gen.gnp ~seed:21 ~n:32 ~p:0.15 in
  (* the realizable solver's convention: free variables x, y1 *)
  let target = Fo.Parser.parse "exists z. E(x, z) /\\ E(z, y1)" in
  let lam =
    Sam.label_with g
      ~target:(fun v ->
        Modelcheck.Eval.holds g [ ("x", v.(0)); ("y1", 5) ] target)
      (Sam.all_tuples g ~k:1)
  in
  row "%-12s %8s  %s\n" "solver" "err" "hypothesis";
  let emit solver err hyp =
    let s = Folearn.Hypothesis.signature hyp in
    add_row [ ("solver", jstr solver); ("err", jfloat err); ("sig", jstr s) ];
    row "%-12s %8.4f  %s\n" solver err
      (if String.length s > 48 then String.sub s 0 48 ^ "..." else s)
  in
  let brute = Brute.solve g ~k:1 ~ell:1 ~q:2 lam in
  emit "brute" brute.Brute.err brute.Brute.hypothesis;
  (match Real.solve g ~ell:1 ~catalogue:[ target ] lam with
  | Some r -> emit "realizable" 0.0 r.Real.hypothesis
  | None -> row "%-12s (reject)\n" "realizable");
  let counting = Brute.solve ~tmax:2 g ~k:1 ~ell:1 ~q:1 lam in
  emit "counting" counting.Brute.err counting.Brute.hypothesis;
  let nd_cfg =
    Nd.default_config ~epsilon:0.125 ~radius:1 ~branch_width:8 ~k:1
      ~ell_star:1 ~q_star:1
      (Splitter.Nowhere_dense.of_graph "e21" g)
  in
  let nd = Nd.solve nd_cfg g lam in
  emit "nd" nd.Nd.err nd.Nd.hypothesis;
  (* --- A2: the compiled-evaluation hot path itself.  One staged
     compile, then every 2-tuple through the closure tree; all calls
     after the first hit the per-domain compile cache. *)
  let n = Graph.order g in
  let (pos, evals), t_eval =
    time (fun () ->
        let pos = ref 0 and evals = ref 0 in
        for a = 0 to n - 1 do
          for b = 0 to n - 1 do
            incr evals;
            if
              Modelcheck.Eval.holds_tuple g ~vars:[ "x"; "y1" ] [| a; b |]
                target
            then incr pos
          done
        done;
        (!pos, !evals))
  in
  add_row
    [
      ("workload", jstr "compiled_eval_sweep");
      ("evals", jint evals);
      ("positives", jint pos);
      ("time_s", jfloat t_eval);
    ];
  row "compiled eval sweep: %d evaluations, %d positive, %.3f s\n" evals pos
    t_eval;
  (* --- B: the erm_brute jobs sweep.  jobs = 1 first (the reference);
     every later level must reproduce the hypothesis bit for bit, and
     on a multi-core host the 4-job level carries the CI speedup
     gate. *)
  let g_sweep = Gen.gnp ~seed:22 ~n:44 ~p:0.12 in
  let lam_sweep =
    Sam.label_with g_sweep
      ~target:(fun v -> Bfs.dist g_sweep v.(0) 22 <= 2)
      (Sam.all_tuples g_sweep ~k:1)
  in
  row "%-10s %5s %10s %9s %10s %9s\n" "workload" "jobs" "time (s)" "speedup"
    "err" "match";
  let baseline = ref None in
  let speedup4 = ref 1.0 in
  let all_identical = ref true in
  List.iter
    (fun jobs ->
      let pool = Par.Pool.create ~jobs in
      let erm, t =
        time (fun () -> Brute.solve ~pool g_sweep ~k:1 ~ell:1 ~q:2 lam_sweep)
      in
      Par.Pool.shutdown pool;
      let here =
        (Folearn.Hypothesis.signature erm.Brute.hypothesis, erm.Brute.err)
      in
      let t1, agree =
        match !baseline with
        | None ->
            baseline := Some (t, here);
            (t, true)
        | Some (t1, first) -> (t1, first = here)
      in
      if not agree then all_identical := false;
      if jobs = 4 then speedup4 := t1 /. t;
      add_row
        [
          ("workload", jstr "erm_brute");
          ("jobs", jint jobs);
          ("time_s", jfloat t);
          ("speedup", jfloat (t1 /. t));
          ("identical", Obs.Json.Bool agree);
        ];
      row "%-10s %5d %10.3f %9.2f %10.3f %9b\n" "erm_brute" jobs t (t1 /. t)
        erm.Brute.err agree)
    [ 1; 2; 4 ];
  bench_extra_headline :=
    [
      ("compile_hits", jint (Obs.Metric.value compile_hits_c));
      ("intern_shard_merges", jint (Obs.Metric.value ty_merges_c));
      ("speedup_at_4_jobs", jfloat !speedup4);
      ("identical", Obs.Json.Bool !all_identical);
    ];
  row
    "acceptance: hypotheses bit-identical at every jobs level; on hosts \
     with >= 4 cores the 4-job erm_brute speedup must reach 3x (gated in \
     CI; on this host cores = %d).\n"
    cores

(* ------------------------------------------------------------------ *)
(* E22: resident service - warm latency, admission, shedding, resume   *)
(* ------------------------------------------------------------------ *)

let e22 () =
  header
    "E22  resident service: warm vs cold latency, admission, shedding, \
     resume";
  let requests = ref 0 and rejected = ref 0 and shed = ref 0 in
  (* the chaos harness's SHORT_LEARN workload: the serve identity test
     already proves server output byte-identical to the CLI on it, so
     the latency comparison here is apples to apples *)
  let learn_params =
    Obs.Json.Obj
      [
        ("graph", jstr "cycle:24");
        ("colors", Obs.Json.List [ jstr "Red=0,3,6,9" ]);
        ("target", jstr "exists y. (E(x1,y) & Red(y))");
        ("k", jint 1);
        ("ell", jint 1);
        ("q", jint 2);
        ("solver", jstr "brute");
      ]
  in
  let run_learn ?budget ?ckpt ?precheck () =
    incr requests;
    Serve.Exec.run_op ?budget ?ckpt ?precheck ~op:"learn"
      ~params:learn_params ()
  in
  (* --- A: warm-engine latency vs a cold CLI process.  The warm leg is
     the daemon's engine path (Serve.Exec.run_op in a long-lived
     process, intern tables and evaluator caches carried over); the
     cold leg forks the real one-shot binary per request, so the CLI
     must be built beside this executable. *)
  let pct sorted p =
    let n = Array.length sorted in
    sorted.(min (n - 1) (int_of_float (ceil (p *. float (n - 1)))))
  in
  let samples xs =
    let a = Array.of_list xs in
    Array.sort compare a;
    (pct a 0.5, pct a 0.99)
  in
  let warm_n = 9 and cold_n = 7 in
  bench_samples := min warm_n cold_n;
  ignore (run_learn ());
  (* untimed table warm-up *)
  let warm_times =
    List.init warm_n (fun _ ->
        let r, t = time (fun () -> run_learn ()) in
        assert (r.Serve.Exec.code = 0);
        t)
  in
  let exe =
    Filename.concat
      (Filename.dirname Sys.executable_name)
      "../bin/folearn_cli.exe"
  in
  if not (Sys.file_exists exe) then
    failwith
      (Printf.sprintf
         "e22: the cold leg runs the CLI, but %s does not exist; build \
          bin/folearn_cli.exe first"
         exe);
  let cold_times =
    let args =
      [|
        exe; "learn"; "-g"; "cycle:24"; "--color"; "Red=0,3,6,9"; "--target";
        "exists y. (E(x1,y) & Red(y))"; "-k"; "1"; "-l"; "1"; "-q"; "2";
        "--solver"; "brute";
      |]
    in
    let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
    let times =
      List.init cold_n (fun _ ->
          incr requests;
          snd
            (time (fun () ->
                 let pid =
                   Unix.create_process exe args devnull devnull devnull
                 in
                 match snd (Unix.waitpid [] pid) with
                 | Unix.WEXITED 0 -> ()
                 | _ -> failwith "cold CLI run failed")))
    in
    Unix.close devnull;
    times
  in
  let w50, w99 = samples warm_times and c50, c99 = samples cold_times in
  let warm_speedup = c50 /. w50 in
  row "%-10s %6s %12s %12s\n" "leg" "n" "p50 (s)" "p99 (s)";
  row "%-10s %6d %12.4f %12.4f\n" "warm" warm_n w50 w99;
  row "%-10s %6d %12.4f %12.4f   (cli)\n" "cold" cold_n c50 c99;
  row "warm speedup (cold p50 / warm p50): %.2fx\n" warm_speedup;
  add_row
    [
      ("leg", jstr "warm"); ("n", jint warm_n); ("p50_s", jfloat w50);
      ("p99_s", jfloat w99);
    ];
  add_row
    [
      ("leg", jstr "cold"); ("n", jint cold_n); ("p50_s", jfloat c50);
      ("p99_s", jfloat c99); ("mode", jstr "cli");
    ];
  (* --- B: admission control.  A stingy tenant's fuel quota must be
     refused by the zero-fuel planner precheck - before any enumeration
     runs - exactly as the daemon refuses it before queueing. *)
  let stingy =
    {
      Guard.Limits.fuel = Some 2;
      deadline_s = None;
      max_table = None;
      max_ball = None;
    }
  in
  for _ = 1 to 4 do
    incr requests;
    match
      Serve.Exec.precheck_rejection ~op:"learn" ~params:learn_params
        ~limits:stingy
    with
    | Ok (Some rej) ->
        assert (rej.Analysis.Plan.resource = "fuel");
        incr rejected
    | Ok None -> failwith "fuel=2 must be rejected at admission"
    | Error m -> failwith m
  done;
  add_row [ ("leg", jstr "admission"); ("rejected", jint !rejected) ];
  row "admission: %d/4 stingy requests refused by the planner precheck\n"
    !rejected;
  (* --- C: queue saturation.  12 entries into a cap-4 queue: the
     bounded scheduler sheds the earliest-deadline victims and the
     engine only ever sees what survived. *)
  let q = Serve.Sched.create ~cap:4 in
  let ran = ref 0 in
  let base = Obs.Clock.now_ns () in
  for i = 1 to 12 do
    incr requests;
    let entry =
      {
        Serve.Sched.e_seq = i;
        e_tenant = "bench";
        e_deadline_ns =
          Some
            (Int64.add base
               (Int64.of_int (((i mod 6) + 1) * 1_000_000_000)));
        e_run = (fun () -> incr ran);
        e_shed = (fun () -> incr shed);
      }
    in
    match Serve.Sched.push q entry with
    | `Queued -> ()
    (* a queued victim's [e_shed] ran inside push; the incoming victim
       is answered by the caller, exactly as the daemon replies
       [overloaded] itself *)
    | `Shed_incoming -> incr shed
    | `Closed -> failwith "queue closed unexpectedly"
  done;
  Serve.Sched.close q;
  let rec drain () =
    match Serve.Sched.pop q with
    | Some e ->
        e.Serve.Sched.e_run ();
        drain ()
    | None -> ()
  in
  drain ();
  assert (!ran + !shed = 12);
  add_row [ ("leg", jstr "overload"); ("ran", jint !ran); ("shed", jint !shed) ];
  row "overload: cap 4, 12 pushed -> %d executed, %d shed\n" !ran !shed;
  (* --- D: resume after a kill.  Exhaust the fuel budget mid-
     enumeration (the bench-process stand-in for SIGKILL - same
     snapshot, same skip cursor), then resume from the snapshot and
     demand the answer byte-identical to an uninterrupted run. *)
  let reference = run_learn ~budget:(Guard.Budget.unlimited ()) () in
  assert (reference.Serve.Exec.code = 0);
  let full_fuel =
    match reference.Serve.Exec.spent with
    | Some s -> s.Guard.fuel
    | None -> failwith "reference run must account fuel"
  in
  let snap = Filename.temp_file "folearn-e22" ".snap" in
  let b1 = Guard.Budget.make ~fuel:(max 1 (full_fuel / 2)) () in
  let ck1 =
    Resil.Ctl.create ~path:snap ~every:64 ~budget:b1 ~run_id:"bench-e22"
      ~solver:"brute" ()
  in
  let interrupted = run_learn ~budget:b1 ~ckpt:ck1 ~precheck:false () in
  (* 3 = degraded (a best-so-far was salvaged), 4 = exhausted dry -
     either way the run stopped early with a snapshot on disk *)
  assert (interrupted.Serve.Exec.code = 3 || interrupted.Serve.Exec.code = 4);
  let snapshot =
    match Resil.Snapshot.load snap with
    | Ok s -> s
    | Error `Not_found -> failwith "no snapshot after exhaustion"
    | Error (`Corrupt m) -> failwith ("corrupt snapshot: " ^ m)
  in
  let b2 = Guard.Budget.unlimited () in
  let ck2 =
    Resil.Ctl.create ~path:snap ~every:64 ~budget:b2 ~resume:snapshot
      ~run_id:"bench-e22" ~solver:"brute" ()
  in
  let resumed = run_learn ~budget:b2 ~ckpt:ck2 ~precheck:false () in
  assert (resumed.Serve.Exec.code = 0);
  let identical = resumed.Serve.Exec.out = reference.Serve.Exec.out in
  assert identical;
  bench_checkpoint_writes := Resil.Ctl.writes ck2;
  Sys.remove snap;
  add_row
    [
      ("leg", jstr "resume");
      ("fuel_full", jint full_fuel);
      ("fuel_at_kill", jint (max 1 (full_fuel / 2)));
      ("snapshot_writes", jint (Resil.Ctl.writes ck2));
      ("identical", Obs.Json.Bool identical);
    ];
  row
    "resume: exhausted at fuel %d/%d, resumed run byte-identical: %b (%d \
     snapshot writes)\n"
    (max 1 (full_fuel / 2))
    full_fuel identical (Resil.Ctl.writes ck2);
  bench_extra_headline :=
    [
      ("requests", jint !requests);
      ("rejected", jint !rejected);
      ("shed", jint !shed);
      ("warm_speedup", jfloat warm_speedup);
    ];
  row
    "acceptance: stingy fuel refused before any work; cap-4 queue sheds \
     under 12-deep load; killed run resumes bit-identically.\n"

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let experiments =
  [
    ("e1", e1); ("e2", e2); ("e3", e3); ("e4", e4); ("e5", e5);
    ("e6", e6); ("e7", e7); ("e8", e8); ("e9", e9); ("e10", e10);
    ("e11", e11); ("e12", e12); ("e13", e13); ("e14", e14); ("e15", e15);
    ("e16", e16); ("e17", e17); ("e18", e18); ("e19", e19); ("e21", e21);
    ("e22", e22);
    ("micro", micro);
    ("overhead", overhead);
  ]

(* --metrics-addr: one exporter for the whole bench run, so a dashboard
   can watch the per-experiment counters live *)
let metrics_srv = ref None

let () =
  (* --jobs N sets the default worker-pool size for every experiment
     (E16 additionally sweeps its own explicit pools) *)
  let args =
    let rec strip = function
      | "--jobs" :: n :: rest ->
          (match int_of_string_opt n with
          | Some j when j >= 1 -> Par.set_jobs j
          | _ ->
              Printf.eprintf "bench: --jobs expects an integer >= 1, got %S\n" n;
              exit 2);
          strip rest
      | "--metrics-addr" :: a :: rest ->
          (match Pulse.Addr.parse a with
          | Error m ->
              Printf.eprintf "bench: --metrics-addr %s\n" m;
              exit 2
          | Ok addr -> (
              match Pulse.Server.start addr with
              | Error m ->
                  Printf.eprintf "bench: --metrics-addr %s: %s\n"
                    (Pulse.Addr.to_string addr) m;
                  exit 2
              | Ok srv ->
                  Printf.eprintf "bench: serving telemetry on %s\n%!"
                    (Pulse.Addr.to_string (Pulse.Server.bound_addr srv));
                  metrics_srv := Some srv));
          strip rest
      | a :: rest -> a :: strip rest
      | [] -> []
    in
    strip (List.tl (Array.to_list Sys.argv))
  in
  let requested =
    match args with _ :: _ as names -> names | [] -> List.map fst experiments
  in
  let t0 = Obs.Clock.now_ns () in
  List.iter
    (fun name ->
      match List.assoc_opt name experiments with
      | Some f -> run_instrumented name f
      | None ->
          Printf.eprintf "unknown experiment %S (known: %s)\n" name
            (String.concat ", " (List.map fst experiments));
          exit 2)
    requested;
  (match !metrics_srv with Some srv -> Pulse.Server.stop srv | None -> ());
  Printf.printf "\ntotal bench time: %.1f s\n" (Obs.Clock.elapsed_s t0);
  if !shape_failed then exit 1
