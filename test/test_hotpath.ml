(* Hot-path engine tests: compiled evaluation ≡ reference walker, CSR
   graph ≡ naive reference model (also under concurrent readers), the
   Int.compare sort regressions, and the sharded intern registry
   lifecycle. *)

open Cgraph
module F = Fo.Formula
module E = Modelcheck.Eval
module C = Modelcheck.Compile
module T = Modelcheck.Types

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* counters record only while the sink is on; leave it off afterwards *)
let with_sink f =
  Obs.enable ();
  Fun.protect ~finally:Obs.disable f

let p4 = Gen.path 4

(* ------------------------------------------------------------------ *)
(* Compiled evaluator ≡ reference walker                               *)
(* ------------------------------------------------------------------ *)

let quantifier_nodes = Obs.Metric.counter "modelcheck.eval.quantifier_nodes"

(* Wrap a generated formula in a counting quantifier sometimes:
   [gen_formula] never emits CountGe, and the compiled path must agree
   on it too. *)
let gen_formula_cge vars depth st =
  let f = Test_formula.gen_formula vars depth st in
  if Random.State.int st 3 = 0 then
    F.count_ge (1 + Random.State.int st 3) "c0" (F.Or [ f; F.edge "c0" "c0" ])
  else f

let compiled_agrees_with_reference =
  QCheck.Test.make ~name:"compiled evaluation = reference walker" ~count:150
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xc0 |] in
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.gnp ~seed:(seed + 1) ~n:5 ~p:0.4)
      in
      let f = gen_formula_cge [ "x"; "y" ] 3 st in
      let comp = C.compile g ~vars:[ "x"; "y" ] f in
      List.for_all
        (fun vx ->
          List.for_all
            (fun vy ->
              C.holds_tuple comp [| vx; vy |]
              = E.holds g [ ("x", vx); ("y", vy) ] f)
            [ 0; 2; 4 ])
        [ 1; 3 ])

(* The compiled code must tick and count exactly like the walker: the
   focost fuel envelopes and the E19 counter baselines both assume one
   Eval_step / one quantifier_nodes increment per quantifier visit. *)
let test_compiled_counter_parity () =
  with_sink @@ fun () ->
  let st = Random.State.make [| 7; 0xc1 |] in
  for i = 0 to 30 do
    let g = Gen.gnp ~seed:i ~n:5 ~p:0.5 in
    let f = gen_formula_cge [ "x" ] 4 st in
    let before = Obs.Metric.value quantifier_nodes in
    let r_ref = E.holds g [ ("x", 1) ] f in
    let mid = Obs.Metric.value quantifier_nodes in
    let r_cmp = C.holds_tuple (C.compile g ~vars:[ "x" ] f) [| 1 |] in
    let after = Obs.Metric.value quantifier_nodes in
    check "same verdict" r_ref r_cmp;
    check_int
      (Printf.sprintf "same quantifier-node count (seed %d)" i)
      (mid - before) (after - mid)
  done

let test_compiled_unbound_lazy () =
  (* unbound variables surface when the atom is reached, not at compile
     time — and not at all if short-circuiting skips the atom *)
  let f_skipped = F.Or [ F.tru; F.eq "z" "z" ] in
  check "skipped unbound atom is no error" true
    (C.holds_tuple (C.compile p4 ~vars:[] f_skipped) [||]);
  let f_hit = F.And [ F.tru; F.eq "z" "z" ] in
  let comp = C.compile p4 ~vars:[] f_hit in
  check "reached unbound atom raises" true
    (try
       ignore (C.holds_tuple comp [||]);
       false
     with E.Unbound_variable "z" -> true)

let test_compiled_validation () =
  check "duplicate free variable rejected" true
    (try
       ignore (C.compile p4 ~vars:[ "x"; "x" ] F.tru);
       false
     with Invalid_argument _ -> true);
  check "arity mismatch rejected" true
    (try
       ignore (C.holds_tuple (C.compile p4 ~vars:[ "x" ] F.tru) [| 0; 1 |]);
       false
     with Invalid_argument _ -> true)

let test_compile_cache () =
  with_sink @@ fun () ->
  let g = Gen.cycle 5 in
  let f = F.exists "y" (F.edge "x" "y") in
  let hits = Obs.Metric.counter "modelcheck.compile.cache_hits" in
  ignore (E.holds_tuple g ~vars:[ "x" ] [| 0 |] f);
  let before = Obs.Metric.value hits in
  ignore (E.holds_tuple g ~vars:[ "x" ] [| 1 |] f);
  check "second evaluation hits the compile cache" true
    (Obs.Metric.value hits > before);
  (* colour expansion refreshes the graph uid, so the cache cannot
     serve a closure staged against the old vocabulary *)
  let f = F.color "Fresh" "x" in
  check "before expansion: colour empty" false
    (E.holds_tuple g ~vars:[ "x" ] [| 0 |] f);
  let g' = Graph.with_colors g [ ("Fresh", [ 0 ]) ] in
  check "after expansion: colour seen" true
    (E.holds_tuple g' ~vars:[ "x" ] [| 0 |] f)

(* Edge-guarded quantifiers compile to a loop over the guard vertex's
   neighbour row.  The generator emits every guarded shape, both
   orientations, guards on the quantified variable itself and on an
   unbound one (which keep the scan), and binder names that shadow the
   guard variable; free variables range past the graph order so the
   out-of-range and empty-graph paths are compared too. *)
let rec gen_guarded vars depth st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  if depth = 0 || Random.State.int st 4 = 0 then
    Test_formula.gen_formula vars 0 st
  else
    let sub vars = gen_guarded vars (depth - 1) st in
    match Random.State.int st 8 with
    | 0 -> F.Not (sub vars)
    | 1 -> F.And [ sub vars; sub vars ]
    | 2 -> F.Or [ sub vars; sub vars ]
    | _ -> (
        let x = pick [ "b0"; "b1"; "b2"; "x" ] in
        let z = if Random.State.int st 8 = 0 then "u" else pick (x :: vars) in
        let guard =
          if Random.State.bool st then F.Atom (F.Edge (z, x))
          else F.Atom (F.Edge (x, z))
        in
        let inner = x :: vars in
        match Random.State.int st 5 with
        | 0 -> F.Exists (x, F.And [ guard; sub inner ])
        | 1 -> F.Exists (x, guard)
        | 2 -> F.Forall (x, F.Implies (guard, sub inner))
        | 3 ->
            F.CountGe
              (Random.State.int st 4, x, F.And [ guard; sub inner; sub inner ])
        | _ -> F.CountGe (Random.State.int st 3, x, guard))

(* verdict (or exception), quantifier nodes and fuel of one evaluation *)
let observe eval =
  let budget = Guard.Budget.unlimited () in
  let before = Obs.Metric.value quantifier_nodes in
  let verdict =
    match Guard.run ~budget ~salvage:(fun () -> None) (fun () -> eval budget) with
    | Guard.Complete b -> Ok b
    | Guard.Exhausted _ -> Error "exhausted"
    | exception e -> Error (Printexc.to_string e)
  in
  ( verdict,
    Obs.Metric.value quantifier_nodes - before,
    (Guard.Budget.spent budget).Guard.fuel )

let guarded_compiled_agrees_with_reference =
  QCheck.Test.make ~name:"guarded quantifiers: compiled = walker" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      with_sink @@ fun () ->
      let st = Random.State.make [| seed; 0xc2 |] in
      let n = Random.State.int st 7 in
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.gnp ~seed:(seed + 1) ~n ~p:0.4)
      in
      let f = gen_guarded [ "x"; "y" ] 4 st in
      let comp = C.compile g ~vars:[ "x"; "y" ] f in
      List.for_all
        (fun (vx, vy) ->
          observe (fun budget -> E.holds ~budget g [ ("x", vx); ("y", vy) ] f)
          = observe (fun budget -> C.holds_tuple ~budget comp [| vx; vy |]))
        [ (0, 1); (1, 0); (2, 3); (0, n); (n + 1, 0); (-1, 2) ])

(* One pinned case per exceptional path, so a failure names it. *)
let test_guarded_edge_cases () =
  with_sink @@ fun () ->
  let same name g env f =
    let vars = List.map fst env and tuple = Array.of_list (List.map snd env) in
    let comp = C.compile g ~vars f in
    check name true
      (observe (fun budget -> E.holds ~budget g env f)
      = observe (fun budget -> C.holds_tuple ~budget comp tuple))
  in
  let red = Graph.with_colors (Gen.path 5) [ ("Red", [ 0; 4 ]) ] in
  let ex = F.Exists ("y", F.And [ F.edge "y" "x"; F.color "Red" "y" ]) in
  same "reversed guard, witness" red [ ("x", 1) ] ex;
  same "reversed guard, no witness" red [ ("x", 2) ] ex;
  same "out-of-range guard vertex raises" red [ ("x", 9) ] ex;
  same "empty graph never tests the guard" (Gen.path 0) [ ("x", 9) ] ex;
  same "forall over the row" red [ ("x", 3) ]
    (F.Forall ("y", F.Implies (F.edge "x" "y", F.color "Red" "y")));
  same "atleast 0 tries no vertex" red [ ("x", 9) ]
    (F.CountGe (0, "y", F.edge "x" "y"));
  same "atleast cut-off" red [ ("x", 2) ]
    (F.CountGe
       (2, "y", F.And [ F.edge "x" "y"; F.exists "z" (F.edge "y" "z") ]));
  same "unbound guard variable keeps the scan" red [ ("x", 1) ]
    (F.Exists ("y", F.And [ F.edge "w" "y"; F.color "Red" "y" ]));
  same "guard variable shadowed by an inner binder" red [ ("x", 1) ]
    (F.Exists
       ( "y",
         F.And
           [
             F.edge "x" "y";
             F.Exists ("x", F.And [ F.edge "y" "x"; F.color "Red" "x" ]);
           ] ))

(* Labelling on a long path: one [exists y. E(x,y) /\ Red(y)] per tuple.
   A scan over V would try 2 * 10^8 vertices here (seconds of CPU); the
   row loop tries two per tuple.  Fuel cannot tell the two apart, as
   ticks count quantifier visits, not vertices tried. *)
let test_guarded_label_cost () =
  let n = 200_000 and m = 1_000 in
  let g =
    Graph.with_colors (Gen.path n)
      [ ("Red", List.init ((n + 6) / 7) (fun i -> 7 * i)) ]
  in
  let tuples = List.init m (fun i -> [| n - 1 - (i * 97) |]) in
  let formula = F.Exists ("y", F.And [ F.edge "x" "y"; F.color "Red" "y" ]) in
  let t0 = Sys.time () in
  let lam = Folearn.Sample.label_with_query g ~formula ~xvars:[ "x" ] tuples in
  let cpu = Sys.time () -. t0 in
  List.iter
    (fun (v, b) ->
      let x = v.(0) in
      check "label" ((x - 1) mod 7 = 0 || (x + 1 < n && (x + 1) mod 7 = 0)) b)
    lam;
  check (Printf.sprintf "labelling took %.3f s of CPU (bound 1 s)" cpu) true
    (cpu < 1.0)

(* ------------------------------------------------------------------ *)
(* CSR graph ≡ naive reference model                                   *)
(* ------------------------------------------------------------------ *)

(* An independent model: adjacency matrix + Queue-based BFS, built from
   the same raw edge list the CSR graph was. *)
let naive_model n edges =
  let adj = Array.make_matrix n n false in
  List.iter
    (fun (u, v) ->
      adj.(u).(v) <- true;
      adj.(v).(u) <- true)
    edges;
  let neighbors v =
    List.filter (fun w -> adj.(v).(w)) (List.init n Fun.id)
  in
  let bfs src =
    let dist = Array.make n (-1) in
    let q = Queue.create () in
    dist.(src) <- 0;
    Queue.add src q;
    while not (Queue.is_empty q) do
      let v = Queue.pop q in
      List.iter
        (fun w ->
          if dist.(w) < 0 then begin
            dist.(w) <- dist.(v) + 1;
            Queue.add w q
          end)
        (neighbors v)
    done;
    dist
  in
  (adj, neighbors, bfs)

let random_edges st n =
  let m = Random.State.int st (2 * n) in
  List.init m (fun _ ->
      let u = Random.State.int st n and v = Random.State.int st n in
      if u = v then None else Some (min u v, max u v))
  |> List.filter_map Fun.id

let agree_with_naive g n (adj, nbrs, bfs) =
  List.for_all
    (fun v ->
      Array.to_list (Graph.neighbors g v) = nbrs v
      && Graph.degree g v = List.length (nbrs v)
      && List.for_all (fun w -> Graph.mem_edge g v w = adj.(v).(w))
           (List.init n Fun.id))
    (List.init n Fun.id)
  && List.for_all
       (fun src ->
         let d = Bfs.distances g src in
         let d' = bfs src in
         Array.to_list d
         = List.map
             (fun i -> if d'.(i) < 0 then Bfs.infinity else d'.(i))
             (List.init n Fun.id))
       (List.init n Fun.id)

let csr_agrees_with_naive =
  QCheck.Test.make ~name:"CSR graph = naive reference model" ~count:120
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let st = Random.State.make [| seed; 0xcf |] in
      let n = 1 + Random.State.int st 12 in
      (* duplicates and both orientations on purpose: create must
         merge them *)
      let edges = random_edges st n in
      let doubled = edges @ List.map (fun (u, v) -> (v, u)) edges in
      let g = Graph.create ~n ~edges:doubled ~colors:[] in
      agree_with_naive g n (naive_model n edges))

(* The CSR arrays and colour bitsets are shared, read-only, across
   domains; run the whole naive-model comparison from 1, 2 and 4
   concurrent readers. *)
let test_csr_concurrent_readers () =
  let st = Random.State.make [| 42; 0xd0 |] in
  let n = 14 in
  let edges = random_edges st n in
  let g =
    Graph.with_colors
      (Graph.create ~n ~edges ~colors:[])
      [ ("Red", [ 0; 3; 7 ]) ]
  in
  let model = naive_model n edges in
  let body () =
    agree_with_naive g n model
    && Graph.has_color g "Red" 3
    && not (Graph.has_color g "Red" 1)
    && C.holds_tuple
         (C.compile g ~vars:[ "x" ] (F.color "Red" "x"))
         [| 7 |]
  in
  List.iter
    (fun jobs ->
      let workers = List.init jobs (fun _ -> Domain.spawn body) in
      check
        (Printf.sprintf "consistent under %d readers" jobs)
        true
        (List.for_all Domain.join workers))
    [ 1; 2; 4 ]

(* ------------------------------------------------------------------ *)
(* Int.compare sort regressions                                        *)
(* ------------------------------------------------------------------ *)

let test_rows_sorted_dedup () =
  (* shuffled, duplicated input must come out strictly increasing *)
  let edges = [ (9, 0); (0, 3); (3, 0); (0, 9); (0, 1); (1, 0); (0, 7) ] in
  let g = Graph.create ~n:10 ~edges ~colors:[] in
  check "row sorted and deduplicated" true
    (Array.to_list (Graph.neighbors g 0) = [ 1; 3; 7; 9 ]);
  check_int "degree counts distinct neighbours" 4 (Graph.degree g 0);
  check_int "size counts undirected edges once" 4 (Graph.size g);
  let shuffled = Graph.create ~n:10 ~edges:(List.rev edges) ~colors:[] in
  check "edge-order insensitive" true (Graph.equal g shuffled)

let tuple_compare_is_structural =
  (* Tuple.compare switched to explicit Int.compare; candidate
     enumeration order depends on it agreeing with the polymorphic
     order on int arrays (length first, then elementwise) *)
  QCheck.Test.make ~name:"Tuple.compare agrees with polymorphic compare"
    ~count:200
    QCheck.(pair (array_of_size Gen.(0 -- 4) small_nat)
              (array_of_size Gen.(0 -- 4) small_nat))
    (fun (a, b) ->
      let sign x = Stdlib.compare x 0 in
      sign (Graph.Tuple.compare a b) = sign (Stdlib.compare a b))

(* ------------------------------------------------------------------ *)
(* Sharded intern registry                                             *)
(* ------------------------------------------------------------------ *)

let test_intern_reset_lifecycle () =
  T.reset_tables ();
  check_int "empty after reset" 0 (T.table_stats ()).T.live;
  let t1 = T.tp_graph p4 ~q:1 [| 0 |] in
  let stats = T.table_stats () in
  check "interning grows the registry" true (stats.T.live > 0);
  check "bytes estimate is positive" true (stats.T.bytes > 0);
  T.reset_tables ();
  check_int "reset empties" 0 (T.table_stats ()).T.live;
  check "stale id raises" true
    (try
       ignore (T.rank t1);
       false
     with Invalid_argument _ -> true);
  (* id assignment is deterministic: replaying the same interning from
     an empty registry yields the same ids *)
  let t2 = T.tp_graph p4 ~q:1 [| 0 |] in
  check_int "ids replay identically" 0 (T.compare t1 t2);
  check_int "registry size replays identically" stats.T.live
    (T.table_stats ()).T.live

let test_intern_cross_domain_merge () =
  with_sink @@ fun () ->
  T.reset_tables ();
  let merges = Obs.Metric.counter "modelcheck.types.shard_merges" in
  let t_here = T.tp_graph p4 ~q:1 [| 1 |] in
  let before = Obs.Metric.value merges in
  (* a fresh domain has an empty shard: it must catch up through the
     lock-free merge and agree on the canonical id *)
  let t_there =
    Domain.join (Domain.spawn (fun () -> T.tp_graph p4 ~q:1 [| 1 |]))
  in
  check_int "same canonical id across domains" 0 (T.compare t_here t_there);
  check "merge was lock-free replay, not re-allocation" true
    (Obs.Metric.value merges > before)

(* The one registry also holds the counting types: a cap-2 count
   fills it, and a reset empties it. *)
let test_counting_reset () =
  T.reset_tables ();
  check_int "registry empty after reset" 0 (T.table_stats ()).T.live;
  ignore (T.count_types ~cap:2 p4 ~q:1 ~k:1);
  check "registry grows with counting types" true
    ((T.table_stats ()).T.live > 0);
  T.reset_tables ();
  check_int "reset empties" 0 (T.table_stats ()).T.live

(* Keys that differ only past the polymorphic hash's horizon still get
   distinct dense ids, and the same ids when interned again. *)
module Deep_hash = struct
  type key = int list

  let dummy = []
  let hash = List.fold_left Modelcheck.Intern.mix 0
  let prefix = "test.intern.deep"
end

module Deep = Modelcheck.Intern.Make (Deep_hash)

let test_intern_deep_keys () =
  let key i = List.init 40 (fun _ -> 0) @ [ i ] in
  let distinct hash =
    List.length (List.sort_uniq compare (List.init 100 (fun i -> hash (key i))))
  in
  check_int "the polymorphic hash sees one key" 1 (distinct Hashtbl.hash);
  check_int "the whole-key hash sees them all" 100 (distinct Deep_hash.hash);
  let ids = List.init 100 (fun i -> Deep.intern (key i) 0) in
  check "dense ids in first-sight order" true (ids = List.init 100 Fun.id);
  check "stable on re-intern" true
    (List.init 100 (fun i -> Deep.intern (key (99 - i)) 0) = List.rev ids);
  check "keys round-trip" true (List.for_all (fun i -> Deep.key i = key i) ids)

let suite =
  [
    QCheck_alcotest.to_alcotest compiled_agrees_with_reference;
    Alcotest.test_case "compiled counter parity" `Quick
      test_compiled_counter_parity;
    Alcotest.test_case "compiled unbound laziness" `Quick
      test_compiled_unbound_lazy;
    Alcotest.test_case "compile-time validation" `Quick
      test_compiled_validation;
    Alcotest.test_case "compile cache (hits, uid freshness)" `Quick
      test_compile_cache;
    QCheck_alcotest.to_alcotest csr_agrees_with_naive;
    Alcotest.test_case "CSR under concurrent readers (1/2/4)" `Quick
      test_csr_concurrent_readers;
    Alcotest.test_case "rows sorted + deduplicated" `Quick
      test_rows_sorted_dedup;
    QCheck_alcotest.to_alcotest tuple_compare_is_structural;
    Alcotest.test_case "intern reset lifecycle" `Quick
      test_intern_reset_lifecycle;
    Alcotest.test_case "intern cross-domain merge" `Quick
      test_intern_cross_domain_merge;
    Alcotest.test_case "counting registry lifecycle" `Quick test_counting_reset;
    QCheck_alcotest.to_alcotest guarded_compiled_agrees_with_reference;
    Alcotest.test_case "guarded quantifier edge cases" `Quick
      test_guarded_edge_cases;
    Alcotest.test_case "guarded labelling is O(deg) per tuple" `Quick
      test_guarded_label_cost;
    Alcotest.test_case "intern hashes the whole key" `Quick
      test_intern_deep_keys;
  ]
