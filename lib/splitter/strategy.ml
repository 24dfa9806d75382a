open Cgraph

(* --------------------------------------------------------------- *)
(* Splitter strategies                                              *)
(* --------------------------------------------------------------- *)

let center ?budget:_ _arena ~radius:_ ~connector = connector

let component_of arena v =
  List.find (fun comp -> List.mem v comp) (Invariants.components arena)

let top_of_ball ?budget arena ~radius ~connector =
  let ball = Bfs.ball ?budget arena ~r:radius [ connector ] in
  let root = List.hd (component_of arena connector) in
  let d = Bfs.distances ?budget arena root in
  List.fold_left
    (fun best v -> if d.(v) < d.(best) then v else best)
    (List.hd ball) ball

(* One low-link DFS over the ball's induced edges scores every answer:
   removing [w] leaves the other components whole, each child subtree [c]
   of [w] with [low c >= disc w] as a component of its own, and the rest
   of [w]'s component (its parent side) as one more. *)
let min_max_component ?budget arena ~radius ~connector =
  let ball = Array.of_list (Bfs.ball ?budget arena ~r:radius [ connector ]) in
  let n = Array.length ball in
  let index = Hashtbl.create n in
  Array.iteri (fun i v -> Hashtbl.replace index v i) ball;
  let adj =
    Array.map
      (fun v ->
        Graph.fold_neighbors arena v
          (fun acc u ->
            match Hashtbl.find_opt index u with
            | Some j -> j :: acc
            | None -> acc)
          []
        |> Array.of_list)
      ball
  in
  let disc = Array.make n (-1) and low = Array.make n 0 in
  let size = Array.make n 1 and parent = Array.make n (-1) in
  let next = Array.make n 0 and comp = Array.make n 0 in
  (* per vertex: the largest cut-off child subtree and their total *)
  let cut_max = Array.make n 0 and cut_sum = Array.make n 0 in
  let comp_size = Array.make n 0 and stack = Array.make n 0 in
  let time = ref 0 and ncomp = ref 0 in
  let visit v =
    disc.(v) <- !time;
    low.(v) <- !time;
    comp.(v) <- !ncomp;
    incr time
  in
  for root = 0 to n - 1 do
    if disc.(root) < 0 then begin
      let start = !time in
      visit root;
      stack.(0) <- root;
      let sp = ref 1 in
      while !sp > 0 do
        let v = stack.(!sp - 1) in
        if next.(v) < Array.length adj.(v) then begin
          let u = adj.(v).(next.(v)) in
          next.(v) <- next.(v) + 1;
          if disc.(u) < 0 then begin
            parent.(u) <- v;
            visit u;
            stack.(!sp) <- u;
            incr sp
          end
          else low.(v) <- min low.(v) disc.(u)
        end
        else begin
          decr sp;
          let p = parent.(v) in
          if p >= 0 then begin
            size.(p) <- size.(p) + size.(v);
            low.(p) <- min low.(p) low.(v);
            if low.(v) >= disc.(p) then begin
              cut_max.(p) <- max cut_max.(p) size.(v);
              cut_sum.(p) <- cut_sum.(p) + size.(v)
            end
          end
        end
      done;
      comp_size.(!ncomp) <- !time - start;
      incr ncomp
    end
  done;
  (* the two largest components, so each vertex finds the largest
     component other than its own *)
  let top = ref 0 in
  Array.iteri (fun c s -> if s > comp_size.(!top) then top := c) comp_size;
  let second = ref 0 in
  Array.iteri
    (fun c s -> if c <> !top && s > !second then second := s)
    comp_size;
  let score w =
    let c = comp.(w) in
    let others = if c = !top then !second else comp_size.(!top) in
    max others (max cut_max.(w) (comp_size.(c) - 1 - cut_sum.(w)))
  in
  let best = ref 0 and best_score = ref (score 0) in
  for w = 1 to n - 1 do
    let s = score w in
    if s < !best_score then begin
      best := w;
      best_score := s
    end
  done;
  ball.(!best)

let best_heuristic ?budget arena ~radius ~connector =
  let ball = Bfs.ball ?budget arena ~r:radius [ connector ] in
  if List.length ball <= 160 then
    min_max_component ?budget arena ~radius ~connector
  else top_of_ball ?budget arena ~radius ~connector

(* --------------------------------------------------------------- *)
(* Connector strategies                                             *)
(* --------------------------------------------------------------- *)

let connector_random ~seed =
  let st = Random.State.make [| seed; 0xc0 |] in
  fun ?budget:_ arena -> Random.State.int st (Graph.order arena)

let connector_max_ball ~r ?budget arena =
  let sizes = Bfs.ball_sizes ?budget arena ~r in
  let best = ref 0 in
  Array.iteri (fun v size -> if size > sizes.(!best) then best := v) sizes;
  !best

let connector_max_ecc ?budget arena =
  let best = ref 0 and best_ecc = ref (-1) in
  List.iter
    (fun v ->
      let e = Bfs.eccentricity ?budget arena v in
      if e > !best_ecc then begin
        best := v;
        best_ecc := e
      end)
    (Graph.vertices arena);
  !best

(* --------------------------------------------------------------- *)
(* Game values                                                      *)
(* --------------------------------------------------------------- *)

let minimax_rounds ?(cap = 6) ?budget g ~r =
  (* Arenas are identified by their sorted original-vertex sets. *)
  let memo : (int list * int, int option) Hashtbl.t = Hashtbl.create 1024 in
  let rec value vset rounds =
    if vset = [] then Some 0
    else if rounds = 0 then None
    else begin
      match Hashtbl.find_opt memo (vset, rounds) with
      | Some cached -> cached
      | None ->
          let emb = Ops.induced g vset in
          let arena = emb.Ops.graph in
          let orig = Array.init (Graph.order arena) emb.Ops.of_sub in
          (* Connector maximises over moves; Splitter minimises. *)
          let worst = ref 0 in
          (try
             List.iter
               (fun v ->
                 let ball = Bfs.ball ?budget arena ~r [ v ] in
                 let best = ref None in
                 List.iter
                   (fun w ->
                     let next =
                       List.filter_map
                         (fun x -> if x = w then None else Some orig.(x))
                         ball
                       |> List.sort compare
                     in
                     match value next (rounds - 1) with
                     | Some sub -> (
                         match !best with
                         | Some b when b <= sub -> ()
                         | _ -> best := Some sub)
                     | None -> ())
                   ball;
                 match !best with
                 | Some b -> worst := max !worst (1 + b)
                 | None ->
                     (* Splitter cannot win this branch in [rounds] *)
                     raise Exit)
               (Graph.vertices arena)
           with Exit -> worst := rounds + 1);
          let result = if !worst > rounds then None else Some !worst in
          Hashtbl.replace memo (vset, rounds) result;
          result
    end
  in
  value (Graph.vertices g) cap

let minimax_move ?(cap = 6) ?budget g ~r ~connector =
  (* value of the arena after answering with w, via minimax_rounds on the
     induced remainder; pick the answer minimising it *)
  let ball = Bfs.ball ?budget g ~r [ connector ] in
  let best = ref None in
  List.iter
    (fun w ->
      let rest = List.filter (fun v -> v <> w) ball in
      let emb = Ops.induced g rest in
      match minimax_rounds ~cap:(cap - 1) ?budget emb.Ops.graph ~r with
      | Some v -> (
          match !best with
          | Some (_, bv) when bv <= v -> ()
          | _ -> best := Some (w, v))
      | None -> ())
    ball;
  Option.map fst !best

let optimal ~cap ?budget arena ~radius ~connector =
  match minimax_move ~cap ?budget arena ~r:radius ~connector with
  | Some w -> w
  | None -> best_heuristic ?budget arena ~radius ~connector

let default_seeds = [ 1; 2; 3; 42 ]

let empirical_rounds ?(max_rounds = 64) ?(seeds = default_seeds) ?budget g ~r
    ~splitter =
  let adversaries =
    (fun () -> connector_max_ball ~r)
    :: (fun () -> connector_max_ecc)
    :: List.map (fun seed () -> connector_random ~seed) seeds
  in
  List.fold_left
    (fun acc make ->
      match acc with
      | None -> None
      | Some best -> (
          match
            Game.play_out ~max_rounds ?budget g ~r ~connector:(make ()) ~splitter
          with
          | Some rounds -> Some (max best rounds)
          | None -> None))
    (Some 0) adversaries

let estimate_s ?(slack = 1) ?budget g ~r ~splitter =
  match empirical_rounds ?budget g ~r ~splitter with
  | Some rounds -> max 1 (rounds + slack)
  | None -> max 1 (Graph.order g)
