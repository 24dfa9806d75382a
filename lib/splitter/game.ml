open Cgraph

exception Illegal_move of string

type state = {
  arena : Graph.t;
  to_orig : int array;
  radius : int;
  rounds_played : int;
}

let start g ~r =
  if r < 1 then invalid_arg "Game.start: need radius >= 1";
  {
    arena = g;
    to_orig = Array.init (Graph.order g) Fun.id;
    radius = r;
    rounds_played = 0;
  }

let radius st = st.radius
let arena st = st.arena
let rounds_played st = st.rounds_played

let to_original st v =
  if v < 0 || v >= Array.length st.to_orig then raise (Graph.Invalid_vertex v);
  st.to_orig.(v)

let is_won st = Graph.order st.arena = 0

let play ?radius' ?budget st ~connector ~splitter =
  if is_won st then raise (Illegal_move "the game is already over");
  let r' = Option.value radius' ~default:st.radius in
  if r' < 1 || r' > st.radius then
    raise (Illegal_move "Connector's radius must satisfy 1 <= r' <= r");
  if connector < 0 || connector >= Graph.order st.arena then
    raise (Illegal_move "Connector's vertex is not in the arena");
  let ball = Bfs.ball ?budget st.arena ~r:r' [ connector ] in
  if not (List.mem splitter ball) then
    raise (Illegal_move "Splitter's answer must lie in Connector's ball");
  let remaining = List.filter (fun v -> v <> splitter) ball in
  let emb = Ops.induced st.arena remaining in
  {
    arena = emb.Ops.graph;
    to_orig =
      Array.init (Graph.order emb.Ops.graph) (fun v ->
          st.to_orig.(emb.Ops.of_sub v));
    radius = st.radius;
    rounds_played = st.rounds_played + 1;
  }

type connector_strategy = ?budget:Guard.Budget.t -> Graph.t -> Graph.vertex

type splitter_strategy =
  ?budget:Guard.Budget.t -> Graph.t -> radius:int -> connector:Graph.vertex -> Graph.vertex

let play_out ?(max_rounds = 64) ?budget g ~r ~connector ~splitter =
  let rec go st =
    if is_won st then Some st.rounds_played
    else if st.rounds_played >= max_rounds then None
    else begin
      let v = connector ?budget st.arena in
      let w = splitter ?budget st.arena ~radius:st.radius ~connector:v in
      go (play ?budget st ~connector:v ~splitter:w)
    end
  in
  go (start g ~r)

let trace ?(max_rounds = 64) ?budget g ~r ~connector ~splitter =
  let rec go st acc =
    if is_won st || st.rounds_played >= max_rounds then List.rev acc
    else begin
      let v = connector ?budget st.arena in
      let w = splitter ?budget st.arena ~radius:st.radius ~connector:v in
      let v0 = to_original st v and w0 = to_original st w in
      let st' = play ?budget st ~connector:v ~splitter:w in
      go st' ((v0, w0, Graph.order st'.arena) :: acc)
    end
  in
  go (start g ~r) []
