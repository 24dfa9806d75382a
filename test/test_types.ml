(* Cross-validation of the canonical type machinery:
   - canonical type equality coincides with EF-game equivalence,
   - Hintikka formulas define their types,
   - Gaifman locality (Fact 5) holds at the configured radius. *)

open Cgraph
module T = Modelcheck.Types
module Ef = Modelcheck.Ef
module H = Modelcheck.Hintikka
module E = Modelcheck.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p6 = Gen.path 6
let c6 = Gen.cycle 6

let coloured_path =
  Graph.with_colors (Gen.path 6) [ ("Red", [ 0; 3 ]); ("Blue", [ 5 ]) ]

(* ------------------------------------------------------------------ *)
(* EF games                                                            *)
(* ------------------------------------------------------------------ *)

let test_partial_iso () =
  check "matching pairs" true (Ef.partial_isomorphism p6 [| 0; 1 |] p6 [| 5; 4 |]);
  check "edge mismatch" false
    (Ef.partial_isomorphism p6 [| 0; 1 |] p6 [| 0; 2 |]);
  check "equality pattern" false
    (Ef.partial_isomorphism p6 [| 0; 0 |] p6 [| 0; 1 |]);
  check "colour mismatch" false
    (Ef.partial_isomorphism coloured_path [| 0 |] coloured_path [| 1 |])

let test_ef_path_endpoints () =
  (* one round cannot see degrees (Duplicator matches any single probe),
     two rounds distinguish the endpoint from a middle vertex *)
  check "0-equivalent" true (Ef.equiv ~q:0 p6 [| 0 |] p6 [| 2 |]);
  check "1 move is not enough" true (Ef.equiv ~q:1 p6 [| 0 |] p6 [| 2 |]);
  check "2 moves distinguish endpoint" false (Ef.equiv ~q:2 p6 [| 0 |] p6 [| 2 |]);
  check "symmetric vertices equivalent" true (Ef.equiv ~q:3 p6 [| 0 |] p6 [| 5 |])

let test_ef_path_vs_cycle () =
  (* P6 and C6 agree up to rank 1 on generic vertices but rank 2 splits
     (endpoints exist) *)
  check "rank 1" true (Ef.equiv ~q:1 p6 [| 2 |] c6 [| 0 |]);
  check "rank 2 splits" false (Ef.equiv ~q:2 p6 [| 2 |] c6 [| 0 |]);
  check "distinguishing rank" true
    (Ef.rank_distinguishing ~max_q:3 p6 [| 2 |] c6 [| 0 |] = Some 2)

let test_ef_sentences () =
  (* empty tuples: C5 vs C6 differ at some small rank *)
  let c5 = Gen.cycle 5 in
  check "graphs 1-equivalent" true (Ef.equiv ~q:1 c5 [||] c6 [||]);
  check "eventually split" true
    (Ef.rank_distinguishing ~max_q:3 c5 [||] c6 [||] <> None)

(* ------------------------------------------------------------------ *)
(* Canonical types vs EF                                               *)
(* ------------------------------------------------------------------ *)

let types_match_ef ~q g tuples =
  let ctx = T.make_ctx g in
  List.for_all
    (fun u ->
      List.for_all
        (fun v ->
          T.equal (T.tp ctx ~q u) (T.tp ctx ~q v) = Ef.equiv ~q g u g v)
        tuples)
    tuples

let test_types_vs_ef_1tuples () =
  check "rank 0" true (types_match_ef ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 1" true (types_match_ef ~q:1 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 2" true (types_match_ef ~q:2 coloured_path (Graph.Tuple.all ~n:6 ~k:1))

let test_types_vs_ef_2tuples () =
  check "rank 1 pairs" true
    (types_match_ef ~q:1 p6 (Graph.Tuple.all ~n:6 ~k:2))

let types_vs_ef_random =
  QCheck.Test.make ~name:"canonical type equality = EF equivalence" ~count:25
    QCheck.(pair (int_range 0 1000) (int_range 0 2))
    (fun (seed, q) ->
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.random_tree ~seed:(seed + 3) 7)
      in
      types_match_ef ~q g (Graph.Tuple.all ~n:7 ~k:1))

let test_types_cross_graph () =
  (* a path endpoint in P6 looks like a path endpoint in P7 at rank 1 *)
  let p7 = Gen.path 7 in
  let t6 = T.tp_graph p6 ~q:1 [| 0 |] in
  let t7 = T.tp_graph p7 ~q:1 [| 0 |] in
  check "cross-graph endpoint types agree at rank 1" true (T.equal t6 t7);
  check "EF agrees" true (Ef.equiv ~q:1 p6 [| 0 |] p7 [| 0 |]);
  (* ... but rank 3 tells P6 from P7 even at the endpoint *)
  check "cross-graph EF splits eventually" true
    (Ef.rank_distinguishing ~max_q:4 p6 [| 0 |] p7 [| 0 |] <> None)

let test_rank_arity () =
  let t = T.tp_graph coloured_path ~q:2 [| 1; 4 |] in
  check_int "rank recorded" 2 (T.rank t);
  check_int "arity recorded" 2 (T.arity t)

let test_partition () =
  let ctx = T.make_ctx p6 in
  let classes = T.partition_by_tp ctx ~q:1 (Graph.Tuple.all ~n:6 ~k:1) in
  (* rank 1 sees only the one-extension patterns {equal, edge, neither},
     which every P6 vertex realises: a single class *)
  check_int "one rank-1 class" 1 (List.length classes);
  let classes2 = T.partition_by_tp ctx ~q:2 (Graph.Tuple.all ~n:6 ~k:1) in
  (* rank 2: endpoints {0,5}, their neighbours {1,4}, middles {2,3} *)
  check_int "three rank-2 classes" 3 (List.length classes2)

let test_count_types () =
  check_int "count matches partition" 1 (T.count_types p6 ~q:1 ~k:1);
  check_int "rank 2 splits the path" 3 (T.count_types p6 ~q:2 ~k:1);
  check "cycle is vertex-transitive" true (T.count_types c6 ~q:2 ~k:1 = 1)

(* ------------------------------------------------------------------ *)
(* Local types                                                         *)
(* ------------------------------------------------------------------ *)

let test_ltp_refines () =
  (* equal local types at generous radius imply equal global types *)
  let ctx = T.make_ctx coloured_path in
  let tuples = Graph.Tuple.all ~n:6 ~k:1 in
  List.iter
    (fun u ->
      List.iter
        (fun v ->
          let lu = T.ltp ctx ~q:1 ~r:3 u and lv = T.ltp ctx ~q:1 ~r:3 v in
          let gu = T.tp ctx ~q:1 u and gv = T.tp ctx ~q:1 v in
          if T.equal lu lv && not (T.equal gu gv) then
            Alcotest.failf "locality violated at %d vs %d" u.(0) v.(0))
        tuples)
    tuples

let test_ltp_small_radius_coarser () =
  (* at radius 0 a local type sees only the vertex itself *)
  let ctx = T.make_ctx p6 in
  check "r=0 merges endpoint and middle" true
    (T.equal (T.ltp ctx ~q:0 ~r:0 [| 0 |]) (T.ltp ctx ~q:0 ~r:0 [| 3 |]))

let test_fact5_holds () =
  check "Fact 5 on coloured path, q=1, r=3" true
    (Modelcheck.Locality.fact5_holds coloured_path ~q:1 ~r:3 ~k:1);
  check "Fact 5 pairs" true
    (Modelcheck.Locality.fact5_holds p6 ~q:1 ~r:3 ~k:2)

let fact5_random =
  QCheck.Test.make ~name:"Fact 5 at the Gaifman radius (q=1, random trees)"
    ~count:30
    QCheck.(int_range 0 2000)
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Gen.random_tree ~seed:(seed + 11) 9)
      in
      Modelcheck.Locality.fact5_holds g ~q:1 ~r:(Fo.Gaifman.radius 1) ~k:1)

let test_minimal_radius () =
  match Modelcheck.Locality.minimal_radius p6 ~q:1 ~k:1 ~max_r:5 with
  | Some r -> check "minimal radius sane" true (r <= 3)
  | None -> Alcotest.fail "expected locality to hold within r=5"

(* ------------------------------------------------------------------ *)
(* Hintikka formulas                                                   *)
(* ------------------------------------------------------------------ *)

let hintikka_defines_type ~q g tuples =
  let ctx = T.make_ctx g in
  let colors = Graph.color_names g in
  List.for_all
    (fun u ->
      let theta = T.tp ctx ~q u in
      let f = H.of_type ~colors theta in
      List.for_all
        (fun v ->
          E.holds_tuple g ~vars:(H.variables (Array.length v)) v f
          = T.equal (T.tp ctx ~q v) theta)
        tuples)
    tuples

let test_hintikka_rank0 () =
  check "rank 0 singles" true
    (hintikka_defines_type ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:1));
  check "rank 0 pairs" true
    (hintikka_defines_type ~q:0 coloured_path (Graph.Tuple.all ~n:6 ~k:2))

let test_hintikka_rank1 () =
  check "rank 1 singles" true
    (hintikka_defines_type ~q:1 coloured_path (Graph.Tuple.all ~n:6 ~k:1))

let test_hintikka_rank2 () =
  check "rank 2 singles" true
    (hintikka_defines_type ~q:2 p6 (Graph.Tuple.all ~n:6 ~k:1))

let hintikka_random =
  QCheck.Test.make ~name:"Hintikka formula defines its type (random)" ~count:15
    QCheck.(int_range 0 1000)
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red" ] (Gen.gnp ~seed:(seed + 5) ~n:5 ~p:0.5)
      in
      hintikka_defines_type ~q:1 g (Graph.Tuple.all ~n:5 ~k:1))

let test_hintikka_cross_graph () =
  (* the Hintikka formula of a C6 vertex at rank 1 holds of C7 (and even
     P6) vertices: rank 1 only sees the extension patterns
     {equal, edge, neither} *)
  let c7 = Gen.cycle 7 in
  let f = H.of_tuple ~colors:[] c6 ~q:1 [| 0 |] in
  check "transfers to C7" true (E.holds_tuple c7 ~vars:[ "x1" ] [| 0 |] f);
  check "transfers to P6" true (E.holds_tuple p6 ~vars:[ "x1" ] [| 0 |] f);
  (* a triangle vertex has no "neither" extension: rejected already at
     rank 1 *)
  check "rejects K3" false
    (E.holds_tuple (Gen.clique 3) ~vars:[ "x1" ] [| 0 |] f);
  (* at rank 2, C6 and C7 part ways (antipodal pairs behave differently) *)
  let f2 = H.of_tuple ~colors:[] c6 ~q:2 [| 0 |] in
  check "rank 2 rejects C7" false (E.holds_tuple c7 ~vars:[ "x1" ] [| 0 |] f2)

let test_hintikka_quantifier_rank () =
  let f = H.of_tuple ~colors:[] p6 ~q:2 [| 0 |] in
  check_int "rank exactly q" 2 (Fo.Formula.quantifier_rank f)

let test_hintikka_vocabulary_guard () =
  let theta = T.tp_graph coloured_path ~q:0 [| 0 |] in
  check "missing colour rejected" true
    (try
       ignore (H.of_type ~colors:[] theta);
       false
     with Invalid_argument _ -> true)

let test_of_types_disjunction () =
  let ctx = T.make_ctx p6 in
  let t0 = T.tp ctx ~q:1 [| 0 |] and t2 = T.tp ctx ~q:1 [| 2 |] in
  let f = H.of_types ~colors:[] [ t0; t2 ] in
  (* every vertex is endpoint-like or middle-like at rank 1 *)
  check "covers all vertices" true
    (List.for_all
       (fun v -> E.holds_tuple p6 ~vars:[ "x1" ] [| v |] f)
       (Graph.vertices p6));
  (* the roots' variables can be named; the quantified ones stay x2.. *)
  let named = H.of_types ~vars:[ "u" ] ~colors:[] [ t0; t2 ] in
  check "named free variable" true (Fo.Formula.free_vars named = [ "u" ]);
  check "same formula up to the name" true
    (Fo.Formula.equal named (Fo.Formula.substitute [ ("x1", "u") ] f));
  check "names must match the arity" true
    (try
       ignore (H.of_types ~vars:[ "u"; "v" ] ~colors:[] [ t0 ]);
       false
     with Invalid_argument _ -> true)

(* The tree build that made every occurrence of a node afresh, followed
   by the renaming of x(k+1)..x(k+l) to y1..yl that hypotheses used to
   apply, kept verbatim as the reference for the shared build. *)
module Reference_hintikka = struct
  let atomic_formula ~colors (sg : T.atomsig) vars =
    let var = Array.of_list vars in
    let k = sg.T.sig_arity in
    if Array.length var <> k then
      invalid_arg "Hintikka: variable/arity mismatch";
    let conjuncts = ref [] in
    let push f = conjuncts := f :: !conjuncts in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        let e = Fo.Formula.eq var.(i) var.(j) in
        push (if List.mem (i, j) sg.T.eqs then e else Fo.Formula.not_ e);
        let a = Fo.Formula.edge var.(i) var.(j) in
        push (if List.mem (i, j) sg.T.edgs then a else Fo.Formula.not_ a)
      done
    done;
    for i = 0 to k - 1 do
      let held = sg.T.cols.(i) in
      List.iter
        (fun c ->
          if not (List.mem c colors) then
            invalid_arg
              (Printf.sprintf "Hintikka.of_type: colour %S not in vocabulary" c))
        held;
      List.iter
        (fun c ->
          let a = Fo.Formula.color c var.(i) in
          push (if List.mem c held then a else Fo.Formula.not_ a))
        colors
    done;
    Fo.Formula.and_ (List.rev !conjuncts)

  let of_type ?budget ~colors theta =
    let rec go theta vars =
      Guard.tick budget Guard.Hintikka_build;
      let sg, children = T.node theta in
      let atomic = atomic_formula ~colors sg vars in
      match children with
      | None -> atomic
      | Some kids ->
          let y = Printf.sprintf "x%d" (List.length vars + 1) in
          let vars' = vars @ [ y ] in
          let realised =
            List.map (fun kid -> Fo.Formula.exists y (go kid vars')) kids
          in
          let exhausted =
            Fo.Formula.forall y (Fo.Formula.or_ (List.map (fun kid -> go kid vars') kids))
          in
          Fo.Formula.and_ ((atomic :: realised) @ [ exhausted ])
    in
    go theta (H.variables (T.arity theta))

  let to_xy ~k ~ell f =
    let assoc =
      List.init ell (fun i ->
          (Printf.sprintf "x%d" (k + i + 1), Printf.sprintf "y%d" (i + 1)))
    in
    Fo.Formula.substitute assoc f

  let of_types ?budget ~colors ~k ~ell thetas =
    to_xy ~k ~ell
      (Fo.Formula.or_ (List.map (fun t -> of_type ?budget ~colors t) thetas))
end

(* a random instance: a small coloured graph, k <= 2, l <= 2, q <= 2,
   and up to 8 of the types its (k+l)-tuples realise *)
let random_type_set seed =
  let st = Random.State.make [| seed |] in
  let n = 3 + Random.State.int st 3 in
  let g =
    Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
      (Gen.gnp ~seed:(seed + 1) ~n ~p:0.4)
  in
  let k = 1 + Random.State.int st 2 and ell = Random.State.int st 3 in
  let q = Random.State.int st 3 in
  let ctx = T.make_ctx g in
  let types =
    List.sort_uniq T.compare
      (List.map (T.tp ctx ~q) (Graph.Tuple.all ~n ~k:(k + ell)))
    |> List.filter (fun _ -> Random.State.int st 3 > 0)
    |> List.filteri (fun i _ -> i < 8)
  in
  (g, k, ell, types)

let xy_names ~k ~ell =
  List.init k (fun i -> Printf.sprintf "x%d" (i + 1))
  @ List.init ell (fun i -> Printf.sprintf "y%d" (i + 1))

let shared_build_matches_tree_build =
  QCheck.Test.make
    ~name:"shared Hintikka build = tree build + renaming, same fuel"
    ~count:40
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let g, k, ell, types = random_type_set seed in
      let colors = Graph.color_names g in
      let fuel f =
        let b = Guard.Budget.unlimited () in
        let formula = f b in
        (formula, (Guard.Budget.spent b).Guard.fuel)
      in
      let shared, shared_fuel =
        fuel (fun b ->
            H.of_types ~budget:b ~vars:(xy_names ~k ~ell) ~colors types)
      in
      let tree, tree_fuel =
        fuel (fun b -> Reference_hintikka.of_types ~budget:b ~colors ~k ~ell types)
      in
      Fo.Formula.equal shared tree && shared_fuel = tree_fuel)

let test_node_decomposition () =
  (* rank-0 nodes have no children; rank-1 children are rank-0 *)
  let ctx = T.make_ctx p6 in
  let t0 = T.tp ctx ~q:0 [| 2 |] in
  (match T.node t0 with
  | _, None -> ()
  | _ -> Alcotest.fail "rank 0 should have no children");
  let t1 = T.tp ctx ~q:1 [| 2 |] in
  (match T.node t1 with
  | sg, Some kids ->
      check "arity recorded in signature" true (sg.T.sig_arity = 1);
      check "children nonempty" true (kids <> []);
      check "children are rank 0" true (List.for_all (fun k -> T.rank k = 0) kids)
  | _ -> Alcotest.fail "rank 1 should have children");
  (* signature structure of a pair with an edge *)
  let sg = T.atomic_signature p6 [| 1; 2 |] in
  check "edge recorded" true (sg.T.edgs = [ (0, 1) ]);
  check "no equalities" true (sg.T.eqs = []);
  let sg' = T.atomic_signature p6 [| 3; 3 |] in
  check "equality recorded" true (sg'.T.eqs = [ (0, 1) ])

let test_rank_distinguishing_bounds () =
  check "equal tuples never distinguished" true
    (Ef.rank_distinguishing ~max_q:3 p6 [| 2 |] p6 [| 2 |] = None);
  check "distinguishing rank is minimal" true
    (match Ef.rank_distinguishing ~max_q:3 p6 [| 0 |] p6 [| 2 |] with
    | Some q -> Ef.equiv ~q:(q - 1) p6 [| 0 |] p6 [| 2 |]
    | None -> false)

let test_partition_order () =
  (* classes come out in first-occurrence order of their representatives *)
  let ctx = T.make_ctx p6 in
  match T.partition_by_tp ctx ~q:2 (Graph.Tuple.all ~n:6 ~k:1) with
  | (_, first_class) :: _ ->
      check "vertex 0 leads the first class" true
        (List.hd first_class = [| 0 |])
  | [] -> Alcotest.fail "expected classes"

(* ------------------------------------------------------------------ *)
(* Leaf kernel                                                         *)
(* ------------------------------------------------------------------ *)

(* For every parent ū and vertex w, the kernel's child is the rank-0
   type of ū·w, at cap 1 and at a counting cap alike, and each
   id it returns carries the number of w that reach it. *)
let leaf_kernel_random =
  QCheck.Test.make ~name:"leaf kernel child = rank-0 type of u.w" ~count:40
    QCheck.(quad (int_range 0 1000) (int_range 0 8) (int_range 0 3) (int_range 0 2))
    (fun (seed, n, k, ncolors) ->
      let colors = List.filteri (fun i _ -> i < ncolors) [ "Red"; "Blue" ] in
      let g = Gen.colored ~seed ~colors (Gen.gnp ~seed:(seed + 1) ~n ~p:0.4) in
      let cctx = T.make_ctx ~cap:2 g in
      let agrees lv mk direct u =
        let ok = ref true and counts = Hashtbl.create 8 in
        let got =
          T.extend lv mk (T.atomic_signature g u) u (fun child ->
              for w = 0 to n - 1 do
                let id = child w in
                if id <> direct (Graph.Tuple.append u [| w |]) then ok := false;
                Hashtbl.replace counts id
                  (1 + Option.value (Hashtbl.find_opt counts id) ~default:0)
              done)
        in
        !ok
        && got = List.sort compare (Hashtbl.fold (fun id c l -> (id, c) :: l) counts [])
      in
      (* one kernel per cap, each reused across all parents *)
      let plain = T.whole (T.leaves g) and counting = T.whole (T.leaves g) in
      List.for_all
        (fun u ->
          agrees plain
            (fun sg -> (T.leaf sg :> int))
            (fun t -> (T.tp_graph g ~q:0 t :> int))
            u
          && agrees counting
               (fun sg -> (T.leaf ~cap:2 sg :> int))
               (fun t -> (T.tp cctx ~q:0 t :> int))
               u)
        (Graph.Tuple.all ~n ~k))

(* A rank-2 node's children come from its open parent by a delta on
   N[x]; the reference computes each ū·w as a rank-1 root in a second
   context, by the position-order kernel.  [children t] must be the
   sorted, distinct reference types, with their multiplicities capped at
   the context's cap, as [node] and [counted] give them. *)
let children_are_roots ~cap t reference =
  let refs = List.sort T.compare reference in
  let runs =
    List.fold_right
      (fun t acc ->
        match acc with
        | (t', c) :: rest when T.equal t t' -> (t, c + 1) :: rest
        | _ -> (t, 1) :: acc)
      refs []
  in
  let capped = List.map (fun (t, c) -> (t, min cap c)) runs in
  snd (T.node t) = Some (List.map fst capped)
  && T.counted t = (cap, Some capped)

(* n <= 8, up to 2 colours, k in {1, 2}, caps 1 and 2 *)
let rank1_case =
  QCheck.(
    make
      ~print:(fun (seed, n, k, cap) ->
        Printf.sprintf "seed %d: n=%d k=%d cap=%d" seed n k cap)
      Gen.(quad (int_range 0 100_000) (int_range 1 8) (int_range 1 2) (int_range 1 2)))

let rank1_graph seed n =
  let st = Random.State.make [| seed |] in
  let colors =
    List.filteri (fun i _ -> i < Random.State.int st 3) [ "Red"; "Blue" ]
  in
  Gen.colored ~seed ~colors
    (Gen.gnp ~seed:(seed + 1) ~n ~p:(Random.State.float st 0.7))

let rank1_children_tp =
  QCheck.Test.make ~name:"tp ~q:2 children = rank-1 roots (node, counted)"
    ~count:150 rank1_case (fun (seed, n, k, cap) ->
      let g = rank1_graph seed n in
      (* one context over every parent, so its kernel warms up *)
      let ctx = T.make_ctx ~cap g and roots = T.make_ctx ~cap g in
      List.for_all
        (fun u ->
          children_are_roots ~cap (T.tp ctx ~q:2 u)
            (List.map
               (fun w -> T.tp roots ~q:1 (Graph.Tuple.append u [| w |]))
               (Graph.vertices g)))
        (Graph.Tuple.all ~n ~k))

let rank1_children_ltp =
  QCheck.Test.make ~name:"ltp ~q:2 children = rank-1 roots on the ball"
    ~count:150
    QCheck.(pair rank1_case (int_range 0 2))
    (fun ((seed, n, k, cap), r) ->
      let g = rank1_graph seed n in
      let ctx = T.make_ctx ~cap g in
      List.for_all
        (fun u ->
          let emb = Ops.induced g (Bfs.ball_tuple g ~r u) in
          let sub v = Option.get (emb.Ops.to_sub v) in
          let roots = T.make_ctx ~cap emb.Ops.graph in
          let u' = Array.map sub u in
          children_are_roots ~cap (T.ltp ctx ~q:2 ~r u)
            (List.map
               (fun w -> T.tp roots ~q:1 (Graph.Tuple.append u' [| w |]))
               (Graph.vertices emb.Ops.graph)))
        (Graph.Tuple.all ~n ~k))

(* ------------------------------------------------------------------ *)
(* Local types on the host graph                                       *)
(* ------------------------------------------------------------------ *)

(* [Types.ltp] as it was defined before it ran on the host graph:
   [tp] in a fresh context on the induced neighbourhood graph *)
let ltp_via_induced ?budget g ~q ~r u =
  Guard.tick budget Guard.Hintikka_build;
  let emb = Ops.induced g (Bfs.ball_tuple ?budget g ~r u) in
  let u' =
    Array.map
      (fun v ->
        match emb.Ops.to_sub v with
        | Some v' -> v'
        | None -> assert false (* members of ū are in their own ball *))
      u
  in
  T.tp (T.make_ctx ?budget emb.Ops.graph) ~q u'

type local_case = {
  lg : Graph.t;
  lu : Graph.Tuple.t;
  lq : int;
  lr : int;
  desc : string;
}

(* n <= 12, 0-3 colours drawn independently (so classes overlap),
   k <= 3 with repeated entries, q <= [max_q], r in {0, 1, 2}.  At
   r = 0 the neighbours of ū lie outside the ball. *)
let local_case ~max_q =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let n = 1 + Random.State.int st 12 in
        let p = Random.State.float st 0.6 in
        let colours =
          List.init (Random.State.int st 4) (fun c ->
              ( Printf.sprintf "C%d" c,
                List.filter
                  (fun _ -> Random.State.bool st)
                  (List.init n Fun.id) ))
        in
        let lg = Graph.with_colors (Gen.gnp ~seed ~n ~p) colours in
        let k = Random.State.int st 4 in
        let lu = Array.init k (fun _ -> Random.State.int st n) in
        if k >= 2 && Random.State.bool st then lu.(k - 1) <- lu.(0);
        let lq = Random.State.int st (max_q + 1) in
        let lr = Random.State.int st 3 in
        let desc =
          Printf.sprintf "seed %d: n=%d p=%.2f colours=%d u=[%s] q=%d r=%d"
            seed n p (List.length colours)
            (String.concat ";" (Array.to_list (Array.map string_of_int lu)))
            lq lr
        in
        { lg; lu; lq; lr; desc })
      (QCheck.Gen.int_range 0 1_000_000)
  in
  QCheck.make ~print:(fun c -> c.desc) gen

(* The answer under a budget made by [mk], the reason of its trip, and
   the fuel, table rows and ball peak it spent *)
let governed mk f =
  let budget = mk () in
  match Guard.run ~budget ~salvage:(fun () -> None) (fun () -> f budget) with
  | Guard.Complete v ->
      let s = Guard.Budget.spent budget in
      (Some v, None, s.Guard.fuel, s.Guard.table_rows, s.Guard.ball_peak)
  | Guard.Exhausted { reason; spent = s; _ } ->
      (None, Some reason, s.Guard.fuel, s.Guard.table_rows, s.Guard.ball_peak)

(* [host] and [induced] agree under no limit and under every cap up to
   one past what the unlimited run used: each table row, each ball
   size, and a spread of fuel caps *)
let same_under_budgets host induced =
  let unlimited = governed Guard.Budget.unlimited host in
  let _, _, fuel, rows, ball = unlimited in
  let agree mk = governed mk host = governed mk induced in
  unlimited = governed Guard.Budget.unlimited induced
  && List.for_all
       (fun cap -> agree (fun () -> Guard.Budget.make ~max_table:cap ()))
       (List.init (rows + 2) Fun.id)
  && List.for_all
       (fun cap -> agree (fun () -> Guard.Budget.make ~max_ball:cap ()))
       (List.init (ball + 2) Fun.id)
  && List.for_all
       (fun cap -> agree (fun () -> Guard.Budget.make ~fuel:cap ()))
       (List.sort_uniq compare
          [ 0; 1; fuel / 3; fuel / 2; max 0 (fuel - 1); fuel; fuel + 1 ])

let ltp_matches_induced =
  QCheck.Test.make ~name:"ltp on the host graph = tp on the induced ball"
    ~count:120 (local_case ~max_q:2) (fun c ->
      (* two misses in one context: each counts its rows from 0 *)
      let second = Array.append c.lu [| 0 |] in
      let host budget =
        let ctx = T.make_ctx ~budget c.lg in
        List.map (T.ltp ctx ~q:c.lq ~r:c.lr) [ second; c.lu ]
      in
      let induced budget =
        List.map (ltp_via_induced ~budget c.lg ~q:c.lq ~r:c.lr) [ second; c.lu ]
      in
      (* one context answering every tuple shares its kernel across misses *)
      let ctx = T.make_ctx c.lg in
      T.ltp ctx ~q:c.lq ~r:c.lr c.lu = ltp_via_induced c.lg ~q:c.lq ~r:c.lr c.lu
      && List.for_all
           (fun v ->
             let u = Graph.Tuple.append c.lu [| v |] in
             T.ltp ctx ~q:c.lq ~r:c.lr u
             = ltp_via_induced c.lg ~q:c.lq ~r:c.lr u)
           (Graph.vertices c.lg)
      (* and with [tp] over the whole graph *)
      && T.tp ctx ~q:c.lq c.lu = T.tp (T.make_ctx c.lg) ~q:c.lq c.lu
      && same_under_budgets host induced)

(* ------------------------------------------------------------------ *)
(* Opened candidates                                                   *)
(* ------------------------------------------------------------------ *)

type sweep_case = {
  sg : Graph.t;
  cands : Graph.Tuple.t list;  (* distinct, each of length ell *)
  sample : Graph.Tuple.t list;  (* arity k, drawn with repeats *)
  sq : int;
  scap : int;
  warm : bool;  (* [tp] is asked for the first root before the sweep *)
  sdesc : string;
}

(* n in 3..10 (3..6 at q = 2) with at least three colour classes
   (vertices 0, 1 and 2 differ), ell in 0..3, q in 0..2, k in {1, 2},
   caps 1-3, up to six candidates and up to nine examples *)
let sweep_case =
  let gen =
    QCheck.Gen.map
      (fun seed ->
        let st = Random.State.make [| seed |] in
        let sq = Random.State.int st 3 in
        let n = 3 + Random.State.int st (if sq = 2 then 4 else 8) in
        let p = Random.State.float st 0.6 in
        let colours =
          List.init 3 (fun c ->
              ( Printf.sprintf "C%d" c,
                List.filter
                  (fun v ->
                    if v < 3 then v = c + 1 else Random.State.bool st)
                  (List.init n Fun.id) ))
        in
        let sg = Graph.with_colors (Gen.gnp ~seed ~n ~p) colours in
        let tuple k = Array.init k (fun _ -> Random.State.int st n) in
        let ell = Random.State.int st 4 and k = 1 + Random.State.int st 2 in
        let cands =
          List.sort_uniq Graph.Tuple.compare
            (List.init (1 + Random.State.int st 6) (fun _ -> tuple ell))
        in
        let sample = List.init (1 + Random.State.int st 8) (fun _ -> tuple k) in
        let sample =
          (* a repeat, which is a hit *)
          match sample with v :: _ -> sample @ [ v ] | [] -> sample
        in
        let scap = 1 + Random.State.int st 3 and warm = Random.State.bool st in
        let tuples ts =
          String.concat " "
            (List.map
               (fun t ->
                 "["
                 ^ String.concat ";" (Array.to_list (Array.map string_of_int t))
                 ^ "]")
               ts)
        in
        let sdesc =
          Printf.sprintf
            "seed %d: n=%d p=%.2f q=%d cap=%d warm=%b cands=%s sample=%s" seed
            n p sq scap warm (tuples cands) (tuples sample)
        in
        { sg; cands; sample; sq; scap; warm; sdesc })
      (QCheck.Gen.int_range 0 1_000_000)
  in
  QCheck.make ~print:(fun c -> c.sdesc) gen

(* The roots v̄·w̄ of every candidate w̄ and example v̄, in sweep order:
   through [with_candidate], or through [tp] one tuple at a time.  Each
   root comes with its decomposition, as ints, so two legs compare
   across a registry reset. *)
let candidate_roots ~opened ?budget c =
  let ctx = T.make_ctx ?budget ~cap:c.scap c.sg in
  let shown (t : T.ty) =
    let cap, kids = T.counted t in
    let kid (k, n) = ((k : T.ty :> int), n) in
    ((t :> int), cap, Option.map (List.map kid) kids)
  in
  (* a root [tp] memoised is a hit for [with_candidate] too *)
  (match (c.warm, c.cands, c.sample) with
  | true, w :: _, v :: _ -> ignore (T.tp ctx ~q:c.sq (Graph.Tuple.append v w))
  | _ -> ());
  List.map
    (fun w ->
      if opened then
        T.with_candidate ctx ~q:c.sq w (fun tp ->
            List.map (fun v -> shown (tp v)) c.sample)
      else
        List.map
          (fun v -> shown (T.tp ctx ~q:c.sq (Graph.Tuple.append v w)))
          c.sample)
    c.cands

let tp_hits_c = Obs.Metric.counter "modelcheck.types.tp_hits"
let tp_misses_c = Obs.Metric.counter "modelcheck.types.tp_misses"

(* one leg from an empty registry: its roots, the registry's size after
   it, its hits and misses, and the rows its context counted *)
let from_empty ~opened c =
  T.reset_tables ();
  Obs.enable ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let h0 = Obs.Metric.value tp_hits_c
      and m0 = Obs.Metric.value tp_misses_c in
      let budget = Guard.Budget.unlimited () in
      let roots = candidate_roots ~opened ~budget c in
      ( roots,
        (T.table_stats ()).T.live,
        Obs.Metric.value tp_hits_c - h0,
        Obs.Metric.value tp_misses_c - m0,
        (Guard.Budget.spent budget).Guard.table_rows ))

let opened_roots_match_tp =
  QCheck.Test.make ~name:"with_candidate roots = tp roots (ids, order, rows)"
    ~count:150 sweep_case (fun c ->
      from_empty ~opened:true c = from_empty ~opened:false c)

(* the same trip, fuel and table row under every fuel limit and table
   cap up to one past the whole cost, so also inside a root *)
let opened_roots_same_trips =
  QCheck.Test.make ~name:"with_candidate trips = tp trips (every limit)"
    ~count:60 sweep_case (fun c ->
      (* the first three candidates and four examples and a repeat:
         every limit runs both legs again *)
      let first n l = List.filteri (fun i _ -> i < n) l in
      let sample = first 4 c.sample @ [ List.hd c.sample ] in
      let c = { c with cands = first 3 c.cands; sample } in
      let leg opened budget = candidate_roots ~opened ~budget c in
      let _, _, fuel, rows, _ = governed Guard.Budget.unlimited (leg false) in
      let agree mk = governed mk (leg true) = governed mk (leg false) in
      List.for_all
        (fun cap -> agree (fun () -> Guard.Budget.make ~fuel:cap ()))
        (List.init (fuel + 2) Fun.id)
      && List.for_all
           (fun cap -> agree (fun () -> Guard.Budget.make ~max_table:cap ()))
           (List.init (rows + 2) Fun.id))

let suite =
  [
    Alcotest.test_case "node decomposition" `Quick test_node_decomposition;
    Alcotest.test_case "rank distinguishing bounds" `Quick
      test_rank_distinguishing_bounds;
    Alcotest.test_case "partition order" `Quick test_partition_order;
    Alcotest.test_case "partial isomorphism" `Quick test_partial_iso;
    Alcotest.test_case "EF path endpoints" `Quick test_ef_path_endpoints;
    Alcotest.test_case "EF path vs cycle" `Quick test_ef_path_vs_cycle;
    Alcotest.test_case "EF sentences" `Quick test_ef_sentences;
    Alcotest.test_case "types=EF on 1-tuples" `Quick test_types_vs_ef_1tuples;
    Alcotest.test_case "types=EF on 2-tuples" `Quick test_types_vs_ef_2tuples;
    Alcotest.test_case "cross-graph types" `Quick test_types_cross_graph;
    Alcotest.test_case "rank and arity" `Quick test_rank_arity;
    Alcotest.test_case "partition by type" `Quick test_partition;
    Alcotest.test_case "count types" `Quick test_count_types;
    Alcotest.test_case "ltp refines tp" `Quick test_ltp_refines;
    Alcotest.test_case "ltp radius 0" `Quick test_ltp_small_radius_coarser;
    Alcotest.test_case "Fact 5 holds" `Quick test_fact5_holds;
    Alcotest.test_case "minimal radius" `Quick test_minimal_radius;
    Alcotest.test_case "Hintikka rank 0" `Quick test_hintikka_rank0;
    Alcotest.test_case "Hintikka rank 1" `Quick test_hintikka_rank1;
    Alcotest.test_case "Hintikka rank 2" `Quick test_hintikka_rank2;
    Alcotest.test_case "Hintikka cross-graph" `Quick test_hintikka_cross_graph;
    Alcotest.test_case "Hintikka rank exact" `Quick test_hintikka_quantifier_rank;
    Alcotest.test_case "Hintikka vocabulary guard" `Quick
      test_hintikka_vocabulary_guard;
    Alcotest.test_case "type-set disjunction" `Quick test_of_types_disjunction;
    QCheck_alcotest.to_alcotest types_vs_ef_random;
    QCheck_alcotest.to_alcotest fact5_random;
    QCheck_alcotest.to_alcotest hintikka_random;
    QCheck_alcotest.to_alcotest leaf_kernel_random;
    QCheck_alcotest.to_alcotest rank1_children_tp;
    QCheck_alcotest.to_alcotest rank1_children_ltp;
    QCheck_alcotest.to_alcotest ltp_matches_induced;
    QCheck_alcotest.to_alcotest shared_build_matches_tree_build;
    QCheck_alcotest.to_alcotest opened_roots_match_tp;
    QCheck_alcotest.to_alcotest opened_roots_same_trips;
  ]
