open Cgraph

type t = {
  name : string;
  splitter : Game.splitter_strategy;
  s_bound : ?budget:Guard.Budget.t -> Graph.t -> r:int -> int;
}

let forests =
  {
    name = "forests";
    splitter = Strategy.best_heuristic;
    s_bound = (fun ?budget:_ _g ~r -> (2 * r) + 2);
  }

let bounded_degree ~d =
  {
    name = Printf.sprintf "max-degree-%d" d;
    splitter = Strategy.best_heuristic;
    s_bound =
      (fun ?budget g ~r ->
        Strategy.estimate_s ~slack:2 ?budget g ~r
          ~splitter:Strategy.best_heuristic);
  }

let planar_like =
  {
    name = "planar-like";
    splitter = Strategy.best_heuristic;
    s_bound =
      (fun ?budget g ~r ->
        Strategy.estimate_s ~slack:2 ?budget g ~r
          ~splitter:Strategy.best_heuristic);
  }

let of_graph ?(slack = 2) name g =
  {
    name;
    splitter = Strategy.best_heuristic;
    s_bound = (fun ?budget g' ~r ->
      let target = if Graph.order g' = Graph.order g then g' else g in
      Strategy.estimate_s ~slack ?budget target ~r
        ~splitter:Strategy.best_heuristic);
  }
