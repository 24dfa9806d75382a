(* Tests for the splitter game engine and strategies. *)

open Cgraph
module G = Splitter.Game
module S = Splitter.Strategy
module Nd = Splitter.Nowhere_dense

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let p9 = Gen.path 9

let test_start_state () =
  let st = G.start p9 ~r:2 in
  check_int "arena is the graph" 9 (Graph.order (G.arena st));
  check_int "no rounds yet" 0 (G.rounds_played st);
  check "not won" false (G.is_won st);
  check_int "identity embedding" 4 (G.to_original st 4)

let test_one_round () =
  let st = G.start p9 ~r:2 in
  (* Connector picks 4; ball = {2..6}; Splitter answers 4 *)
  let st' = G.play st ~connector:4 ~splitter:4 in
  check_int "arena shrinks to ball minus answer" 4 (Graph.order (G.arena st'));
  check_int "one round played" 1 (G.rounds_played st');
  (* remaining original vertices are {2,3,5,6} *)
  let originals =
    List.map (G.to_original st') (Graph.vertices (G.arena st'))
    |> List.sort compare
  in
  Alcotest.(check (list int)) "remaining" [ 2; 3; 5; 6 ] originals

let test_illegal_moves () =
  let st = G.start p9 ~r:2 in
  check "answer outside ball" true
    (try
       ignore (G.play st ~connector:0 ~splitter:8);
       false
     with G.Illegal_move _ -> true);
  check "oversized radius" true
    (try
       ignore (G.play ~radius':5 st ~connector:0 ~splitter:0);
       false
     with G.Illegal_move _ -> true);
  check "reduced radius fine" true
    (ignore (G.play ~radius':1 st ~connector:4 ~splitter:4);
     true)

let test_game_over_detection () =
  let single = Gen.path 1 in
  let st = G.start single ~r:1 in
  let st' = G.play st ~connector:0 ~splitter:0 in
  check "won after removing the only vertex" true (G.is_won st');
  check "playing after the end raises" true
    (try
       ignore (G.play st' ~connector:0 ~splitter:0);
       false
     with G.Illegal_move _ -> true)

let test_splitter_wins_path () =
  match
    G.play_out p9 ~r:2 ~connector:(S.connector_max_ball ~r:2)
      ~splitter:S.min_max_component
  with
  | Some rounds -> check "wins within 5 rounds on P9" true (rounds <= 5)
  | None -> Alcotest.fail "Splitter lost on a path"

let test_splitter_wins_tree () =
  let t = Gen.random_tree ~seed:5 40 in
  List.iter
    (fun r ->
      match
        G.play_out t ~r ~connector:S.connector_max_ecc
          ~splitter:S.best_heuristic
      with
      | Some rounds -> check "wins on tree" true (rounds <= 2 * r + 6)
      | None -> Alcotest.fail "Splitter lost on a tree")
    [ 1; 2 ]

let test_trace () =
  let tr =
    G.trace p9 ~r:2 ~connector:(S.connector_random ~seed:3)
      ~splitter:S.min_max_component
  in
  check "trace nonempty" true (List.length tr >= 1);
  check "arena sizes decrease to zero" true
    (match List.rev tr with (_, _, last) :: _ -> last = 0 | [] -> false)

let test_minimax_star () =
  (* star: Splitter takes the centre; remaining isolated leaves die in one
     more round each... in fact after removing the centre every leaf is
     isolated, balls are singletons: ball of leaf = {leaf}, remove it;
     but Connector picks only one leaf per round, so value is larger on
     raw stars — on K1 it's 1. *)
  check_int "single vertex" 1 (Option.get (S.minimax_rounds (Gen.path 1) ~r:1));
  check_int "edge" 2 (Option.get (S.minimax_rounds (Gen.path 2) ~r:1))

let test_minimax_matches_heuristic_on_small () =
  let g = Gen.path 5 in
  let exact = Option.get (S.minimax_rounds ~cap:6 g ~r:1) in
  (match
     G.play_out g ~r:1 ~connector:(S.connector_max_ball ~r:1)
       ~splitter:S.min_max_component
   with
  | Some h -> check "heuristic within exact bound" true (h >= exact)
  | None -> Alcotest.fail "heuristic lost");
  check "exact small" true (exact <= 3)

let test_minimax_move () =
  (* on P5 with r=1 the optimal first answer to a middle pick exists and
     playing optimally meets the exact game value *)
  let g = Gen.path 5 in
  (match S.minimax_move ~cap:6 g ~r:1 ~connector:2 with
  | Some w -> check "answer inside the ball" true (List.mem w [ 1; 2; 3 ])
  | None -> Alcotest.fail "P5 is winnable");
  let exact = Option.get (S.minimax_rounds ~cap:6 g ~r:1) in
  (match
     G.play_out g ~r:1 ~connector:(S.connector_max_ball ~r:1)
       ~splitter:(S.optimal ~cap:6)
   with
  | Some rounds -> check "optimal play achieves the game value" true (rounds <= exact)
  | None -> Alcotest.fail "optimal splitter lost");
  (* optimal never worse than the heuristic on tiny graphs *)
  List.iter
    (fun (name, g) ->
      let rounds strat =
        match
          G.play_out ~max_rounds:10 g ~r:1
            ~connector:(S.connector_max_ball ~r:1) ~splitter:strat
        with
        | Some v -> v
        | None -> 99
      in
      if rounds (S.optimal ~cap:6) > rounds S.best_heuristic then
        Alcotest.failf "optimal worse than heuristic on %s" name)
    [ ("P6", Gen.path 6); ("C5", Gen.cycle 5); ("star6", Gen.star 6) ]

let test_empirical_rounds () =
  match S.empirical_rounds p9 ~r:2 ~splitter:S.best_heuristic with
  | Some rounds -> check "battery bound" true (rounds <= 5)
  | None -> Alcotest.fail "lost against battery"

let test_estimate_s () =
  let s = S.estimate_s p9 ~r:2 ~splitter:S.best_heuristic in
  check "estimate positive and small" true (s >= 1 && s <= 6)

let test_descriptors () =
  check "forest bound" true (Nd.forests.Nd.s_bound p9 ~r:2 = 6);
  let d = Nd.of_graph "paths" p9 in
  check "empirical descriptor sane" true (d.Nd.s_bound p9 ~r:2 <= 7)

let test_dense_graph_resists () =
  (* On a clique with radius 1 the ball is everything; the arena loses one
     vertex per round: Splitter needs exactly n rounds. *)
  let k6 = Gen.clique 6 in
  match
    G.play_out k6 ~r:1 ~connector:(S.connector_max_ball ~r:1)
      ~splitter:S.best_heuristic
  with
  | Some rounds -> check_int "clique needs n rounds" 6 rounds
  | None -> Alcotest.fail "game should still terminate"

let splitter_always_wins_eventually =
  QCheck.Test.make ~name:"splitter heuristic wins on random sparse graphs"
    ~count:25
    QCheck.(pair (int_range 5 30) (int_range 1 2))
    (fun (n, r) ->
      let g = Gen.random_bounded_degree ~seed:(n * 7 + r) ~n ~d:3 in
      match
        G.play_out ~max_rounds:(n + 2) g ~r
          ~connector:(S.connector_random ~seed:n) ~splitter:S.best_heuristic
      with
      | Some _ -> true
      | None -> false)

let game_arena_monotone =
  QCheck.Test.make ~name:"arena never grows" ~count:25
    QCheck.(int_range 4 25)
    (fun n ->
      let g = Gen.random_tree ~seed:(n * 3) n in
      let tr =
        G.trace g ~r:2 ~connector:(S.connector_random ~seed:n)
          ~splitter:S.top_of_ball
      in
      let sizes = List.map (fun (_, _, s) -> s) tr in
      let rec decreasing = function
        | a :: (b :: _ as rest) -> a >= b && decreasing rest
        | _ -> true
      in
      decreasing sizes)

(* The per-vertex scorer [min_max_component] replaced: rebuild the ball
   minus [w] and take its largest component.  Quadratic in the ball; kept
   here as the oracle for the one-pass scorer. *)
let min_max_component_oracle arena ~radius ~connector =
  let ball = Bfs.ball arena ~r:radius [ connector ] in
  let score w =
    let rest = List.filter (fun v -> v <> w) ball in
    let emb = Ops.induced arena rest in
    List.fold_left
      (fun acc c -> max acc (List.length c))
      0
      (Invariants.components emb.Ops.graph)
  in
  match ball with
  | [] -> connector
  | first :: _ ->
      let best = ref first and best_score = ref (score first) in
      List.iter
        (fun w ->
          let s = score w in
          if s < !best_score then begin
            best := w;
            best_score := s
          end)
        ball;
      !best

let oracle_graph kind n seed =
  let n = max 4 n in
  match kind with
  | 0 -> Gen.gnp ~seed ~n ~p:(0.05 +. float_of_int (seed mod 8) /. 16.)
  | 1 -> Gen.random_tree ~seed n
  | 2 -> Gen.random_bounded_degree ~seed ~n ~d:(2 + (seed mod 3))
  | 3 -> Gen.grid (1 + (n mod 6)) (1 + (n / 6))
  | 4 -> Gen.partial_ktree ~seed ~k:(1 + (seed mod 3)) ~n ~keep:0.7
  | _ -> Gen.cycle n

let one_pass_matches_oracle =
  QCheck.Test.make ~name:"min_max_component = per-vertex rebuild oracle"
    ~count:120
    QCheck.(quad (int_range 0 5) (int_range 1 30) (int_range 0 10_000)
              (int_range 0 3))
    (fun (kind, n, seed, radius) ->
      let g = oracle_graph kind n seed in
      (* several connectors per graph: every vertex on small ones *)
      let step = max 1 (Graph.order g / 12) in
      List.for_all
        (fun connector ->
          connector mod step <> 0
          || S.min_max_component g ~radius ~connector
             = min_max_component_oracle g ~radius ~connector)
        (Graph.vertices g))

let test_min_max_component_ties () =
  (* the first minimiser in ball order wins *)
  List.iter
    (fun (name, g, radius, connector, expected) ->
      check_int name expected (S.min_max_component g ~radius ~connector);
      check_int (name ^ " (oracle)") expected
        (min_max_component_oracle g ~radius ~connector))
    [
      ("path:7 ball 0..3: 1 and 2 tie", Gen.path 7, 3, 0, 1);
      ("path:7 ball 3..6: 4 and 5 tie", Gen.path 7, 3, 6, 4);
      ("cycle:8 whole cycle: all tie", Gen.cycle 8, 4, 5, 0);
      ("cycle:8 arc 6..2: unique middle 0", Gen.cycle 8, 2, 0, 0);
      ("singleton ball (radius 0)", Gen.path 7, 0, 4, 4);
      ("singleton ball (isolated vertex)",
       Graph.create ~n:3 ~edges:[ (0, 1) ] ~colors:[], 2, 2, 2);
      ("one-vertex graph", Gen.path 1, 1, 0, 0);
    ]

let test_splitter_fuel () =
  (* one Bfs.ball per answer, two for best_heuristic on balls <= 160:
     budgeted nd learns and [game] runs count these ticks *)
  let fuel f =
    let budget = Guard.Budget.unlimited () in
    (match Guard.run ~budget ~salvage:(fun () -> None) (fun () -> f budget) with
    | Guard.Complete _ -> ()
    | Guard.Exhausted _ -> Alcotest.fail "unlimited budget tripped");
    (Guard.Budget.spent budget).Guard.fuel
  in
  List.iter
    (fun (name, g, radius, connector) ->
      let ball =
        fuel (fun budget -> ignore (Bfs.ball ~budget g ~r:radius [ connector ]))
      in
      check (name ^ ": a ball charges its budget") true (ball > 0);
      check (name ^ ": ball <= 160") true
        (List.length (Bfs.ball g ~r:radius [ connector ]) <= 160);
      check_int (name ^ ": min_max_component = one ball") ball
        (fuel (fun budget ->
             ignore (S.min_max_component ~budget g ~radius ~connector)));
      check_int (name ^ ": best_heuristic = two balls") (2 * ball)
        (fuel (fun budget ->
             ignore (S.best_heuristic ~budget g ~radius ~connector))))
    [
      ("tree:60 r2", Gen.random_tree ~seed:4 60, 2, 7);
      ("grid 7x7 r3", Gen.grid 7 7, 3, 24);
      ("gnp:40 r1", Gen.gnp ~seed:9 ~n:40 ~p:0.1, 1, 3);
      ("path:7 r0", Gen.path 7, 0, 3);
    ]

(* [S.connector_max_ball] before it sized every ball in one pass: one
   [Bfs.ball] per vertex, the first largest wins *)
let connector_max_ball_by_balls ~r ?budget arena =
  let best = ref 0 and best_size = ref (-1) in
  List.iter
    (fun v ->
      let size = List.length (Bfs.ball ?budget arena ~r [ v ]) in
      if size > !best_size then begin
        best := v;
        best_size := size
      end)
    (Graph.vertices arena);
  !best

let connector_max_ball_unchanged =
  QCheck.Test.make ~name:"connector_max_ball picks as one ball per vertex did"
    ~count:60
    QCheck.(triple (int_range 0 40) (int_range 0 3) (int_range 0 1000))
    (fun (n, r, seed) ->
      let g =
        if seed mod 2 = 0 && n > 0 then Gen.random_tree ~seed n
        else Gen.gnp ~seed ~n ~p:0.1
      in
      let run (f : G.connector_strategy) =
        let budget = Guard.Budget.unlimited () in
        let v = f ~budget g in
        (v, (Guard.Budget.spent budget).Guard.fuel)
      in
      run (S.connector_max_ball ~r) = run (connector_max_ball_by_balls ~r))

let suite =
  [
    Alcotest.test_case "start state" `Quick test_start_state;
    Alcotest.test_case "one round" `Quick test_one_round;
    Alcotest.test_case "illegal moves" `Quick test_illegal_moves;
    Alcotest.test_case "game over" `Quick test_game_over_detection;
    Alcotest.test_case "splitter wins path" `Quick test_splitter_wins_path;
    Alcotest.test_case "splitter wins tree" `Quick test_splitter_wins_tree;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "minimax tiny" `Quick test_minimax_star;
    Alcotest.test_case "minimax vs heuristic" `Quick
      test_minimax_matches_heuristic_on_small;
    Alcotest.test_case "minimax move" `Quick test_minimax_move;
    Alcotest.test_case "empirical rounds" `Quick test_empirical_rounds;
    Alcotest.test_case "estimate s" `Quick test_estimate_s;
    Alcotest.test_case "class descriptors" `Quick test_descriptors;
    Alcotest.test_case "dense graphs resist" `Quick test_dense_graph_resists;
    QCheck_alcotest.to_alcotest splitter_always_wins_eventually;
    QCheck_alcotest.to_alcotest game_arena_monotone;
    QCheck_alcotest.to_alcotest one_pass_matches_oracle;
    Alcotest.test_case "min-max component ties" `Quick
      test_min_max_component_ties;
    Alcotest.test_case "splitter fuel = its balls" `Quick test_splitter_fuel;
    QCheck_alcotest.to_alcotest connector_max_ball_unchanged;
  ]
