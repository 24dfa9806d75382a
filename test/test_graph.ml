(* Unit and property tests for the coloured-graph substrate. *)

open Cgraph

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Fixtures                                                            *)
(* ------------------------------------------------------------------ *)

let p5 = Gen.path 5
let c6 = Gen.cycle 6
let k4 = Gen.clique 4

let coloured_triangle =
  Graph.create ~n:3
    ~edges:[ (0, 1); (1, 2); (2, 0) ]
    ~colors:[ ("Red", [ 0 ]); ("Blue", [ 1; 2 ]) ]

(* ------------------------------------------------------------------ *)
(* Graph construction                                                  *)
(* ------------------------------------------------------------------ *)

let test_create_basic () =
  check_int "order" 5 (Graph.order p5);
  check_int "size" 4 (Graph.size p5);
  check "edge 0-1" true (Graph.mem_edge p5 0 1);
  check "edge symmetric" true (Graph.mem_edge p5 1 0);
  check "no edge 0-2" false (Graph.mem_edge p5 0 2);
  check_int "degree endpoint" 1 (Graph.degree p5 0);
  check_int "degree inner" 2 (Graph.degree p5 2);
  check_int "max degree" 2 (Graph.max_degree p5)

let test_create_dedup () =
  let g = Graph.create ~n:3 ~edges:[ (0, 1); (1, 0); (0, 1) ] ~colors:[] in
  check_int "duplicate edges merged" 1 (Graph.size g)

let test_create_rejects_self_loop () =
  Alcotest.check_raises "self-loop" (Invalid_argument "Graph.create: self-loop")
    (fun () -> ignore (Graph.create ~n:2 ~edges:[ (1, 1) ] ~colors:[]))

let test_create_rejects_bad_vertex () =
  check "raises" true
    (try
       ignore (Graph.create ~n:2 ~edges:[ (0, 5) ] ~colors:[]);
       false
     with Graph.Invalid_vertex 5 -> true)

let test_colors () =
  check "has Red" true (Graph.has_color coloured_triangle "Red" 0);
  check "not Red" false (Graph.has_color coloured_triangle "Red" 1);
  check "unknown colour" false (Graph.has_color coloured_triangle "Green" 0);
  Alcotest.(check (list string))
    "colors_of" [ "Blue" ]
    (Graph.colors_of coloured_triangle 1);
  Alcotest.(check (list int))
    "colour class" [ 1; 2 ]
    (Graph.color_class coloured_triangle "Blue");
  Alcotest.(check (list string))
    "names" [ "Blue"; "Red" ]
    (Graph.color_names coloured_triangle)

let test_with_colors () =
  let g = Graph.with_colors p5 [ ("Mark", [ 0; 4 ]) ] in
  check "expansion holds" true (Graph.has_color g "Mark" 4);
  check "original unchanged" false (Graph.has_color p5 "Mark" 4);
  check "edges preserved" true (Graph.mem_edge g 2 3);
  Alcotest.check_raises "duplicate colour rejected"
    (Invalid_argument "Graph.with_colors: colour \"Mark\" already present")
    (fun () -> ignore (Graph.with_colors g [ ("Mark", []) ]))

let test_restrict_vocabulary () =
  let g = Graph.restrict_vocabulary coloured_triangle [ "Red" ] in
  Alcotest.(check (list string)) "only Red" [ "Red" ] (Graph.color_names g);
  check "Blue gone" false (Graph.has_color g "Blue" 1)

let test_equal () =
  check "reflexive" true (Graph.equal p5 (Gen.path 5));
  check "different order" false (Graph.equal p5 (Gen.path 4));
  check "colour matters" false
    (Graph.equal coloured_triangle
       (Graph.create ~n:3 ~edges:[ (0, 1); (1, 2); (2, 0) ] ~colors:[]))

let test_edges_sorted () =
  Alcotest.(check (list (pair int int)))
    "edge list" [ (0, 1); (1, 2); (2, 3); (3, 4) ] (Graph.edges p5)

let test_to_dot () =
  let dot = Graph.to_dot ~name:"T" coloured_triangle in
  check "has header" true (String.length dot > 0 && String.sub dot 0 7 = "graph T");
  check "mentions an edge" true
    (let rec contains_sub i =
       i + 10 <= String.length dot
       && (String.sub dot i 10 = "v0 -- v1;\n" || contains_sub (i + 1))
     in
     contains_sub 0)

let test_of_adjacency () =
  let g = Ops.induced p5 [ 0; 1; 2 ] in
  ignore g;
  let g2 = Graph.of_adjacency [| [ 1 ]; [ 0; 2 ]; [] |] [] in
  check "symmetrised" true (Graph.mem_edge g2 2 1);
  check_int "order" 3 (Graph.order g2)

(* ------------------------------------------------------------------ *)
(* Tuples                                                              *)
(* ------------------------------------------------------------------ *)

let test_tuple_all () =
  check_int "n^k tuples" 9 (List.length (Graph.Tuple.all ~n:3 ~k:2));
  check_int "k=0" 1 (List.length (Graph.Tuple.all ~n:3 ~k:0));
  Alcotest.(check (list (list int)))
    "lexicographic" [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.map Array.to_list (Graph.Tuple.all ~n:2 ~k:2))

let test_tuple_append () =
  Alcotest.(check (list int))
    "append" [ 1; 2; 3 ]
    (Array.to_list (Graph.Tuple.append [| 1; 2 |] [| 3 |]))

(* ------------------------------------------------------------------ *)
(* BFS                                                                 *)
(* ------------------------------------------------------------------ *)

let test_distances () =
  let d = Bfs.distances p5 0 in
  Alcotest.(check (list int)) "path distances" [ 0; 1; 2; 3; 4 ]
    (Array.to_list d);
  check_int "pairwise" 3 (Bfs.dist c6 0 3);
  check_int "cycle wraps" 1 (Bfs.dist c6 0 5)

let test_unreachable () =
  let g = Graph.create ~n:4 ~edges:[ (0, 1) ] ~colors:[] in
  check "unreachable" true (Bfs.dist g 0 3 = Bfs.infinity);
  check "within false" false (Bfs.within g ~r:10 0 3);
  check "within true" true (Bfs.within g ~r:1 0 1)

let test_multi_source () =
  let d = Bfs.distances_multi p5 [ 0; 4 ] in
  Alcotest.(check (list int)) "from both ends" [ 0; 1; 2; 1; 0 ]
    (Array.to_list d)

let test_ball () =
  Alcotest.(check (list int)) "r=1 ball" [ 1; 2; 3 ] (Bfs.ball p5 ~r:1 [ 2 ]);
  Alcotest.(check (list int))
    "tuple ball" [ 0; 1; 3; 4 ]
    (Bfs.ball_tuple p5 ~r:1 [| 0; 4 |]);
  check_int "eccentricity of end" 4 (Bfs.eccentricity p5 0);
  check_int "eccentricity of middle" 2 (Bfs.eccentricity p5 2)

let test_out_of_range_sources () =
  (* a source outside the graph is a structured error naming the
     vertex, the same one [Ops.induced] raises, never an array fault *)
  List.iter
    (fun v ->
      let raises what f =
        Alcotest.check_raises
          (Printf.sprintf "%s on vertex %d" what v)
          (Graph.Invalid_vertex v)
          (fun () -> ignore (f ()))
      in
      raises "ball" (fun () -> Bfs.ball p5 ~r:1 [ 0; v ]);
      raises "ball_tuple" (fun () -> Bfs.ball_tuple p5 ~r:1 [| v |]);
      raises "distances_multi" (fun () -> Bfs.distances_multi p5 [ v ]);
      raises "Stats.ball_size" (fun () -> Stats.ball_size p5 ~r:2 [ v ]);
      raises "Ops.induced" (fun () -> Ops.induced p5 [ 0; v ]))
    [ 5; 99; -1 ]

let test_dist_tuple () =
  check_int "tuple-tuple" 1 (Bfs.dist_tuple p5 [| 0 |] [| 1; 4 |]);
  check "empty tuple" true (Bfs.dist_tuple p5 [||] [| 1 |] = Bfs.infinity)

let test_dist_swaps_to_lower_degree () =
  (* a star (hub 0, 20 leaves) with a pendant path 0-21-22-23: a BFS
     from the tail reaches the hub after 3 dequeues, a BFS from the hub
     must drain ~n frontier vertices first.  [dist] promises to start
     from the lower-degree endpoint, so both argument orders must cost
     a small, hub-independent number of fuel ticks. *)
  let edges =
    (0, 21) :: (21, 22) :: (22, 23) :: List.init 20 (fun i -> (0, i + 1))
  in
  let g = Graph.create ~n:24 ~edges ~colors:[] in
  let fuel_of u v =
    let budget = Guard.Budget.unlimited () in
    (match
       Guard.run ~budget ~salvage:(fun () -> None) (fun () -> Bfs.dist ~budget g u v)
     with
    | Guard.Complete d -> check_int "dist" 3 d
    | Guard.Exhausted _ -> Alcotest.fail "unlimited budget tripped");
    (Guard.Budget.spent budget).Guard.fuel
  in
  check "hub->tail searches from the tail" true (fuel_of 0 23 <= 5);
  check "tail->hub searches from the tail" true (fuel_of 23 0 <= 5)

let test_tuple_count_of_index () =
  check "count 3^2" true (Graph.Tuple.count ~n:3 ~k:2 = Some 9);
  check "count overflows to None" true
    (Graph.Tuple.count ~n:max_int ~k:2 = None);
  check "count k=0" true (Graph.Tuple.count ~n:5 ~k:0 = Some 1);
  (* of_index must enumerate in exactly the iter_all order *)
  let n = 3 and k = 2 in
  let expected = Graph.Tuple.all ~n ~k in
  List.iteri
    (fun i t ->
      check "of_index matches iter_all order" true
        (Graph.Tuple.of_index ~n ~k i = t))
    expected

(* ------------------------------------------------------------------ *)
(* Ops                                                                 *)
(* ------------------------------------------------------------------ *)

let test_induced () =
  let emb = Ops.induced c6 [ 0; 1; 2 ] in
  check_int "order" 3 (Graph.order emb.Ops.graph);
  check_int "edges (path through cycle)" 2 (Graph.size emb.Ops.graph);
  check "mapping round-trip" true
    (List.for_all
       (fun v -> emb.Ops.to_sub (emb.Ops.of_sub v) = Some v)
       (Graph.vertices emb.Ops.graph));
  check "outside maps to None" true (emb.Ops.to_sub 5 = None)

let test_induced_colors () =
  let emb = Ops.induced coloured_triangle [ 1; 2 ] in
  check "colour restricted" true
    (List.for_all
       (fun v -> Graph.has_color emb.Ops.graph "Blue" v)
       (Graph.vertices emb.Ops.graph));
  Alcotest.(check (list int)) "Red empty" []
    (Graph.color_class emb.Ops.graph "Red")

let test_neighborhood () =
  let emb = Ops.induced p5 (Bfs.ball_tuple p5 ~r:1 [| 2 |]) in
  check_int "N_1(2) has 3 vertices" 3 (Graph.order emb.Ops.graph)

let test_disjoint_union () =
  let u, inj = Ops.disjoint_union [ p5; c6 ] in
  check_int "order adds" 11 (Graph.order u);
  check_int "size adds" 10 (Graph.size u);
  check "no cross edges" false (Graph.mem_edge u (inj 0 4) (inj 1 0));
  check "second copy edges" true (Graph.mem_edge u (inj 1 0) (inj 1 5))

let test_copies_merge_colors () =
  let g, inj = Ops.copies coloured_triangle 2 in
  check "colour in both copies" true
    (Graph.has_color g "Red" (inj 0 0) && Graph.has_color g "Red" (inj 1 0));
  check_int "order" 6 (Graph.order g)

let test_subgraph_of () =
  check "larger graph is not a subgraph" true
    (Ops.subgraph_of (Gen.path 7) c6 = false);
  check "path 6 embeds in cycle 6 under identity" true
    (Ops.subgraph_of (Gen.path 6) c6);
  check "prefix induced is subgraph" true
    (Ops.subgraph_of (Ops.induced c6 [ 0; 1; 2 ]).Ops.graph c6)

(* ------------------------------------------------------------------ *)
(* Generators and invariants                                           *)
(* ------------------------------------------------------------------ *)

let test_generators () =
  check_int "grid order" 12 (Graph.order (Gen.grid 4 3));
  check_int "grid size" 17 (Graph.size (Gen.grid 4 3));
  check_int "clique size" 6 (Graph.size k4);
  check_int "star size" 5 (Graph.size (Gen.star 6));
  check_int "binary tree depth 3" 15 (Graph.order (Gen.complete_binary_tree 3));
  let t = Gen.random_tree ~seed:1 20 in
  check_int "tree size" 19 (Graph.size t);
  check "tree is forest" true (Invariants.is_forest t);
  let b = Gen.random_bounded_degree ~seed:2 ~n:30 ~d:3 in
  check "degree bound respected" true (Graph.max_degree b <= 3)

let test_ktree () =
  let g = Gen.ktree ~seed:3 ~k:2 ~n:20 in
  check_int "order" 20 (Graph.order g);
  (* a 2-tree on n vertices has 2n - 3 edges *)
  check_int "edge count" (2 * 20 - 3) (Graph.size g);
  (* degeneracy of a k-tree is exactly k *)
  check_int "degeneracy" 2 (Invariants.degeneracy g);
  check "connected" true (Invariants.is_connected g);
  let p = Gen.partial_ktree ~seed:4 ~k:2 ~n:20 ~keep:0.6 in
  check "partial has fewer edges" true (Graph.size p <= Graph.size g);
  check "partial degeneracy bounded" true (Invariants.degeneracy p <= 2)

let test_empty_and_tiny_graphs () =
  let empty = Graph.create ~n:0 ~edges:[] ~colors:[] in
  check_int "empty order" 0 (Graph.order empty);
  check "no vertices" true (Graph.vertices empty = []);
  check "empty components" true (Invariants.components empty = []);
  check_int "empty degeneracy" 0 (Invariants.degeneracy empty);
  check_int "empty diameter" 0 (Invariants.diameter empty);
  let single = Graph.create ~n:1 ~edges:[] ~colors:[ ("C", [ 0 ]) ] in
  check "single coloured" true (Graph.has_color single "C" 0);
  check_int "single ecc" 0 (Bfs.eccentricity single 0)

let test_generator_determinism () =
  check "same seed same graph" true
    (Graph.equal (Gen.gnp ~seed:5 ~n:12 ~p:0.3) (Gen.gnp ~seed:5 ~n:12 ~p:0.3));
  check "different seed differs" true
    (not (Graph.equal (Gen.gnp ~seed:5 ~n:12 ~p:0.3) (Gen.gnp ~seed:6 ~n:12 ~p:0.3)))

let test_colored_balanced () =
  let g = Gen.colored_balanced ~seed:3 ~colors:[ "A"; "B" ] (Gen.path 10) in
  let total =
    List.length (Graph.color_class g "A") + List.length (Graph.color_class g "B")
  in
  check_int "every vertex coloured once" 10 total

let test_components () =
  let g = Graph.create ~n:5 ~edges:[ (0, 1); (3, 4) ] ~colors:[] in
  Alcotest.(check (list (list int)))
    "components" [ [ 0; 1 ]; [ 2 ]; [ 3; 4 ] ] (Invariants.components g);
  check "not connected" false (Invariants.is_connected g);
  Alcotest.(check (list int)) "isolated" [ 2 ] (Invariants.isolated_vertices g)

let test_degeneracy () =
  check_int "path degeneracy" 1 (Invariants.degeneracy p5);
  check_int "cycle degeneracy" 2 (Invariants.degeneracy c6);
  check_int "clique degeneracy" 3 (Invariants.degeneracy k4);
  check_int "grid degeneracy" 2 (Invariants.degeneracy (Gen.grid 4 4))

let test_diameter () =
  check_int "path diameter" 4 (Invariants.diameter p5);
  check_int "cycle diameter" 3 (Invariants.diameter c6)

let test_treewidth_exact () =
  let tw g = Option.get (Invariants.treewidth_exact g) in
  check_int "path" 1 (tw (Gen.path 6));
  check_int "cycle" 2 (tw (Gen.cycle 6));
  check_int "clique" 4 (tw (Gen.clique 5));
  check_int "grid 3x4" 3 (tw (Gen.grid 3 4));
  check_int "2-tree" 2 (tw (Gen.ktree ~seed:1 ~k:2 ~n:12));
  check_int "3-tree" 3 (tw (Gen.ktree ~seed:2 ~k:3 ~n:10));
  check "cap respected" true (Invariants.treewidth_exact (Gen.path 20) = None)

let ktree_treewidth_property =
  QCheck.Test.make ~name:"random k-trees have treewidth exactly k" ~count:20
    QCheck.(pair (int_range 1 3) (int_range 0 400))
    (fun (k, seed) ->
      let g = Gen.ktree ~seed ~k ~n:(k + 2 + (seed mod 8)) in
      Invariants.treewidth_exact g = Some k)

let test_treedepth_bound () =
  check_int "single vertex" 1 (Invariants.treedepth_upper_bound (Gen.path 1));
  check "path td bound sane" true
    (Invariants.treedepth_upper_bound (Gen.path 7) <= 4);
  check "non-forest falls back" true
    (Invariants.treedepth_upper_bound c6 = 6)

(* ------------------------------------------------------------------ *)
(* Vitali covering (Lemma 3)                                           *)
(* ------------------------------------------------------------------ *)

let test_vitali_basic () =
  let xs = [ 0; 4; 9 ] in
  let g = Gen.path 10 in
  let c = Vitali.cover g ~r:1 xs in
  check "Lemma 3 conclusions" true (Vitali.check g ~r:1 xs c);
  check "centres from X" true (List.for_all (fun z -> List.mem z xs) c.Vitali.centers)

let test_vitali_singleton () =
  let c = Vitali.cover p5 ~r:2 [ 3 ] in
  check_int "radius unchanged" 2 c.Vitali.radius;
  Alcotest.(check (list int)) "centre kept" [ 3 ] c.Vitali.centers

let test_vitali_collapse () =
  (* all of a clique: everything within distance 1, must collapse *)
  let xs = Graph.vertices k4 in
  let c = Vitali.cover k4 ~r:1 xs in
  check "valid" true (Vitali.check k4 ~r:1 xs c);
  check_int "single centre suffices" 1 (List.length c.Vitali.centers)

let vitali_property =
  QCheck.Test.make ~name:"vitali cover satisfies Lemma 3 on random trees"
    ~count:60
    QCheck.(pair (int_range 2 25) (int_range 1 3))
    (fun (n, r) ->
      let g = Gen.random_tree ~seed:(n * 31 + r) n in
      let st = Random.State.make [| n; r |] in
      let xs =
        List.sort_uniq compare
          (List.init (1 + Random.State.int st (min n 6)) (fun _ ->
               Random.State.int st n))
      in
      let c = Vitali.cover g ~r xs in
      Vitali.check g ~r xs c)

let tuple_all_size =
  QCheck.Test.make ~name:"Tuple.all has n^k elements" ~count:30
    QCheck.(pair (int_range 1 5) (int_range 0 3))
    (fun (n, k) ->
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      List.length (Cgraph.Graph.Tuple.all ~n ~k) = pow n k)

let ball_monotone =
  QCheck.Test.make ~name:"balls grow with radius" ~count:40
    QCheck.(pair (int_range 2 20) (int_range 0 4))
    (fun (n, r) ->
      let g = Gen.random_tree ~seed:(n + (100 * r)) n in
      let b1 = Bfs.ball g ~r [ 0 ] in
      let b2 = Bfs.ball g ~r:(r + 1) [ 0 ] in
      List.for_all (fun v -> List.mem v b2) b1)

let ball_matches_distances =
  QCheck.Test.make ~name:"bounded ball = distance filter, ball_size = length"
    ~count:60
    QCheck.(
      quad (int_range 1 40) (int_range 0 5) (int_range 0 1000)
        (small_list (int_range 0 39)))
    (fun (n, r, seed, srcs) ->
      let g = Gen.random_bounded_degree ~seed ~n ~d:3 in
      let srcs = List.map (fun v -> v mod n) srcs in
      let d = Bfs.distances_multi g srcs in
      let expected = List.filter (fun v -> d.(v) <= r) (Graph.vertices g) in
      let ball = Bfs.ball g ~r srcs in
      ball = expected && Stats.ball_size g ~r srcs = List.length ball)

(* [within] is [dist]'s early-exit search cut at depth [r]: the same
   answer, and from the same start vertex the same fuel when [v] lies
   within [r], never more when it does not *)
let within_matches_dist =
  QCheck.Test.make ~name:"within ~r u v = (dist u v <= r), with equal fuel"
    ~count:200
    QCheck.(quad (int_range 1 30) (int_range (-1) 5) (int_range 0 1000)
      (pair (int_range 0 29) (int_range 0 29)))
    (fun (n, r, seed, (u, v)) ->
      let g =
        if seed mod 2 = 0 then Gen.random_bounded_degree ~seed ~n ~d:3
        else Gen.gnp ~seed ~n ~p:0.1
      in
      let u = u mod n and v = v mod n in
      let fueled f =
        let budget = Guard.Budget.unlimited () in
        match Guard.run ~budget ~salvage:(fun () -> None) (fun () -> f budget) with
        | Guard.Complete x -> (x, (Guard.Budget.spent budget).Guard.fuel)
        | Guard.Exhausted _ -> Alcotest.fail "unlimited budget tripped"
      in
      let w, w_fuel = fueled (fun budget -> Bfs.within ~budget g ~r u v) in
      let d, d_fuel = fueled (fun budget -> Bfs.dist ~budget g u v) in
      w = (d <= r)
      && (Graph.degree g u > Graph.degree g v
         || if w then w_fuel = d_fuel else w_fuel <= d_fuel))

(* [Bfs.ball_sizes] is [n] [Bfs.ball] calls: the same sizes, fuel,
   trips, [cgraph.bfs.calls] and histograms *)
let ball_sizes_match_balls =
  QCheck.Test.make ~name:"ball_sizes = one ball per vertex, fuel and counters"
    ~count:60
    QCheck.(triple (int_range 0 30) (int_range 0 4) (int_range 0 1000))
    (fun (n, r, seed) ->
      let g =
        if seed mod 2 = 0 then Gen.random_bounded_degree ~seed ~n ~d:3
        else Gen.gnp ~seed ~n ~p:0.15
      in
      let by_balls ?budget () =
        Array.init n (fun v -> List.length (Bfs.ball ?budget g ~r [ v ]))
      in
      let by_sizes ?budget () = Bfs.ball_sizes ?budget g ~r in
      let governed mk f =
        let budget = mk () in
        match Guard.run ~budget ~salvage:(fun () -> None) (fun () -> f budget) with
        | Guard.Complete v ->
            let s = Guard.Budget.spent budget in
            (Some v, None, s.Guard.fuel, s.Guard.ball_peak)
        | Guard.Exhausted { reason; spent = s; _ } ->
            (None, Some reason, s.Guard.fuel, s.Guard.ball_peak)
      in
      let observed f =
        Obs.enable ();
        Obs.reset_all ();
        Fun.protect ~finally:Obs.disable (fun () ->
            ignore (f ());
            let s = Obs.Metric.snapshot () in
            let bfs (name, _) = String.starts_with ~prefix:"cgraph.bfs." name in
            (List.filter bfs s.Obs.Metric.counters,
             List.filter bfs s.Obs.Metric.histograms))
      in
      let agree mk =
        governed mk (fun budget -> by_sizes ~budget ())
        = governed mk (fun budget -> by_balls ~budget ())
      in
      let _, _, fuel, peak =
        governed Guard.Budget.unlimited (fun budget -> by_balls ~budget ())
      in
      by_sizes () = by_balls ()
      && observed (fun () -> by_sizes ()) = observed (fun () -> by_balls ())
      && agree Guard.Budget.unlimited
      && List.for_all
           (fun cap -> agree (fun () -> Guard.Budget.make ~max_ball:cap ()))
           (List.init (peak + 2) Fun.id)
      && List.for_all
           (fun cap -> agree (fun () -> Guard.Budget.make ~fuel:cap ()))
           (List.sort_uniq compare
              [ 0; 1; fuel / 3; fuel / 2; max 0 (fuel - 1); fuel; fuel + 1 ]))

let union_properties =
  QCheck.Test.make ~name:"disjoint union: orders and degrees add" ~count:30
    QCheck.(pair (int_range 1 12) (int_range 1 12))
    (fun (n1, n2) ->
      let g1 = Gen.gnp ~seed:n1 ~n:n1 ~p:0.4 in
      let g2 = Gen.random_tree ~seed:n2 n2 in
      let u, inj = Ops.disjoint_union [ g1; g2 ] in
      Graph.order u = n1 + n2
      && Graph.size u = Graph.size g1 + Graph.size g2
      && List.for_all
           (fun v -> Graph.degree u (inj 0 v) = Graph.degree g1 v)
           (Graph.vertices g1)
      && List.for_all
           (fun v -> Graph.degree u (inj 1 v) = Graph.degree g2 v)
           (Graph.vertices g2))

let induced_preserves_edges =
  QCheck.Test.make ~name:"induced subgraph preserves edges and colours"
    ~count:40
    QCheck.(int_range 3 15)
    (fun n ->
      let g =
        Gen.colored ~seed:n ~colors:[ "C" ] (Gen.gnp ~seed:n ~n ~p:0.4)
      in
      let s = List.filter (fun v -> v mod 2 = 0) (Graph.vertices g) in
      let emb = Ops.induced g s in
      let h = emb.Ops.graph in
      List.for_all
        (fun u ->
          List.for_all
            (fun v ->
              Graph.mem_edge h u v
              = Graph.mem_edge g (emb.Ops.of_sub u) (emb.Ops.of_sub v))
            (Graph.vertices h))
        (Graph.vertices h)
      && List.for_all
           (fun v ->
             Graph.has_color h "C" v
             = Graph.has_color g "C" (emb.Ops.of_sub v))
           (Graph.vertices h))

(* ------------------------------------------------------------------ *)
(* Graph files at the input boundary                                   *)
(* ------------------------------------------------------------------ *)

let format_error_of text =
  match Io.of_string text with
  | _ -> None
  | exception Io.Format_error m -> Some m

let test_io_errors_name_the_line () =
  List.iter
    (fun (text, msg) ->
      Alcotest.(check (option string)) (String.escaped text) (Some msg)
        (format_error_of text))
    [
      ("n -1\n", "line 1: order -1 out of range");
      ("n 3\ne 0 1\ne 2 2\n", "line 3: self-loop at 2");
      ("n 2\ne 0 5\n", "line 2: vertex 5 out of range");
      ("n 2\nc Red 1\nc Red -1\n", "line 3: vertex -1 out of range");
      ("e 0 9\nn 4\n", "line 1: vertex 9 out of range");
    ]

(* a valid file (Io.to_string of a small coloured graph) with one to
   three bytes replaced, inserted or deleted; half the new bytes come
   from the format's own alphabet, so signs, digits, separators and
   directives land where they do damage *)
let mutated_graph_file =
  let open QCheck.Gen in
  let alphabet = "0123456789 -\n#nec" in
  let byte =
    oneof
      [
        map (String.get alphabet) (int_bound (String.length alphabet - 1));
        char;
      ]
  in
  let mutate s =
    let len = String.length s in
    let* at = int_bound len and* b = byte and* op = int_bound 2 in
    let keep i = String.sub s 0 i and from i = String.sub s i (len - i) in
    return
      (match op with
      | 0 when at < len -> keep at ^ String.make 1 b ^ from (at + 1)
      | 1 when at < len -> keep at ^ from (at + 1)
      | _ -> keep at ^ String.make 1 b ^ from at)
  in
  let* n = int_range 1 12 and* seed = int_bound 1000 in
  let g =
    Gen.colored ~seed ~colors:[ "Red"; "Blue" ] (Gen.gnp ~seed ~n ~p:0.3)
  in
  let* steps = int_range 1 3 in
  let rec go k s = if k = 0 then return s else mutate s >>= go (k - 1) in
  go steps (Io.to_string g)

let io_mutation_property =
  QCheck.Test.make ~count:2000
    ~name:"mutated graph files parse or raise Format_error"
    (QCheck.make ~print:String.escaped mutated_graph_file)
    (fun text ->
      match Io.of_string text with
      | _ | (exception Io.Format_error _) -> true)

let suite =
  [
    Alcotest.test_case "create basic" `Quick test_create_basic;
    Alcotest.test_case "create dedup" `Quick test_create_dedup;
    Alcotest.test_case "reject self-loop" `Quick test_create_rejects_self_loop;
    Alcotest.test_case "reject bad vertex" `Quick test_create_rejects_bad_vertex;
    Alcotest.test_case "colors" `Quick test_colors;
    Alcotest.test_case "with_colors" `Quick test_with_colors;
    Alcotest.test_case "restrict vocabulary" `Quick test_restrict_vocabulary;
    Alcotest.test_case "equal" `Quick test_equal;
    Alcotest.test_case "edges sorted" `Quick test_edges_sorted;
    Alcotest.test_case "to_dot" `Quick test_to_dot;
    Alcotest.test_case "of_adjacency" `Quick test_of_adjacency;
    Alcotest.test_case "tuple all" `Quick test_tuple_all;
    Alcotest.test_case "tuple append" `Quick test_tuple_append;
    Alcotest.test_case "distances" `Quick test_distances;
    Alcotest.test_case "unreachable" `Quick test_unreachable;
    Alcotest.test_case "multi source" `Quick test_multi_source;
    Alcotest.test_case "ball" `Quick test_ball;
    Alcotest.test_case "dist tuple" `Quick test_dist_tuple;
    Alcotest.test_case "dist starts at the lower-degree endpoint" `Quick
      test_dist_swaps_to_lower_degree;
    Alcotest.test_case "tuple count/of_index" `Quick test_tuple_count_of_index;
    Alcotest.test_case "induced" `Quick test_induced;
    Alcotest.test_case "induced colors" `Quick test_induced_colors;
    Alcotest.test_case "neighborhood" `Quick test_neighborhood;
    Alcotest.test_case "disjoint union" `Quick test_disjoint_union;
    Alcotest.test_case "copies merge colors" `Quick test_copies_merge_colors;
    Alcotest.test_case "subgraph_of" `Quick test_subgraph_of;
    Alcotest.test_case "generators" `Quick test_generators;
    Alcotest.test_case "ktree" `Quick test_ktree;
    Alcotest.test_case "empty and tiny graphs" `Quick test_empty_and_tiny_graphs;
    Alcotest.test_case "generator determinism" `Quick test_generator_determinism;
    Alcotest.test_case "colored balanced" `Quick test_colored_balanced;
    Alcotest.test_case "components" `Quick test_components;
    Alcotest.test_case "degeneracy" `Quick test_degeneracy;
    Alcotest.test_case "diameter" `Quick test_diameter;
    Alcotest.test_case "treewidth exact" `Quick test_treewidth_exact;
    Alcotest.test_case "treedepth bound" `Quick test_treedepth_bound;
    Alcotest.test_case "out-of-range sources" `Quick test_out_of_range_sources;
    Alcotest.test_case "graph file errors name their line" `Quick
      test_io_errors_name_the_line;
    Alcotest.test_case "vitali basic" `Quick test_vitali_basic;
    Alcotest.test_case "vitali singleton" `Quick test_vitali_singleton;
    Alcotest.test_case "vitali collapse" `Quick test_vitali_collapse;
    QCheck_alcotest.to_alcotest vitali_property;
    QCheck_alcotest.to_alcotest tuple_all_size;
    QCheck_alcotest.to_alcotest ball_monotone;
    QCheck_alcotest.to_alcotest ball_matches_distances;
    QCheck_alcotest.to_alcotest ball_sizes_match_balls;
    QCheck_alcotest.to_alcotest within_matches_dist;
    QCheck_alcotest.to_alcotest ktree_treewidth_property;
    QCheck_alcotest.to_alcotest union_properties;
    QCheck_alcotest.to_alcotest induced_preserves_edges;
    QCheck_alcotest.to_alcotest io_mutation_property;
  ]
