let infinity = max_int / 4

(* observability handles; every record is a no-op while the sink is off *)
let bfs_calls = Obs.Metric.counter "cgraph.bfs.calls"
let frontier_h = Obs.Metric.histogram "cgraph.bfs.frontier_size"
let ball_h = Obs.Metric.histogram "cgraph.bfs.ball_size"

(* frontier sizes = vertices per BFS level; derived from the distance
   array afterwards so the traversal itself stays untouched *)
let record_frontiers dist =
  if Obs.Sink.enabled () then begin
    let levels = Hashtbl.create 16 in
    Array.iter
      (fun d ->
        if d < infinity then
          Hashtbl.replace levels d
            (1 + Option.value ~default:0 (Hashtbl.find_opt levels d)))
      dist;
    Hashtbl.iter
      (fun _ c -> Obs.Metric.observe frontier_h (float_of_int c))
      levels
  end

(* The whole-graph traversals below run on a flat int-array FIFO over
   the CSR rows instead of a boxed [Queue]: the frontier is one
   contiguous scan, a vertex costs a store on push and a load on pop,
   and every discovered vertex enters the queue exactly once so a plain
   [n]-slot array never overflows.  Visit order (and therefore the per-dequeue [Guard.tick]
   count, which budgeted runs pin) is identical to the queue version. *)

let check_sources g srcs =
  let n = Graph.order g in
  List.iter
    (fun s -> if s < 0 || s >= n then raise (Graph.Invalid_vertex s))
    srcs

let distances_multi ?budget g srcs =
  check_sources g srcs;
  Obs.Metric.incr bfs_calls;
  let n = Graph.order g in
  let dist = Array.make n infinity in
  let queue = Array.make (max n 1) 0 in
  let head = ref 0 and tail = ref 0 in
  List.iter
    (fun s ->
      if dist.(s) = infinity then begin
        dist.(s) <- 0;
        queue.(!tail) <- s;
        incr tail
      end)
    srcs;
  while !head < !tail do
    Guard.tick budget Guard.Bfs_frontier;
    let u = queue.(!head) in
    incr head;
    let du = dist.(u) in
    Graph.iter_neighbors g u (fun v ->
        if dist.(v) = infinity then begin
          dist.(v) <- du + 1;
          queue.(!tail) <- v;
          incr tail
        end)
  done;
  record_frontiers dist;
  dist

let distances ?budget g src = distances_multi ?budget g [ src ]

let dist_tuple ?budget g a b =
  if Array.length a = 0 || Array.length b = 0 then infinity
  else begin
    let d = distances_multi ?budget g (Array.to_list a) in
    Array.fold_left (fun acc v -> min acc d.(v)) infinity b
  end

(* Vertex ids hash to themselves: the membership set of a bounded
   traversal costs one masked index per probe. *)
module Seen = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash v = v
end)

(* The bounded kernel.  Level-synchronous, so the depth of the vertex
   being dequeued is the number of completed levels, and vertices at
   depth [r] are visited but never expanded.  The membership set and
   the queue start small and double with the ball: nothing here is
   sized by [Graph.order g]. *)
let visit_ball g ~r ~visit ~level srcs =
  if r < 0 then invalid_arg "Bfs.visit_ball: negative radius";
  check_sources g srcs;
  let seen = Seen.create 16 in
  let queue = ref (Array.make 16 0) in
  let tail = ref 0 in
  let push v =
    if not (Seen.mem seen v) then begin
      Seen.add seen v ();
      if !tail = Array.length !queue then begin
        let bigger = Array.make (2 * !tail) 0 in
        Array.blit !queue 0 bigger 0 !tail;
        queue := bigger
      end;
      !queue.(!tail) <- v;
      incr tail
    end
  in
  List.iter push srcs;
  let head = ref 0 and depth = ref 0 in
  let level_start = ref 0 and level_end = ref !tail in
  while !head < !tail do
    if !head = !level_end then begin
      level (!level_end - !level_start);
      level_start := !level_end;
      level_end := !tail;
      incr depth
    end;
    let u = !queue.(!head) in
    incr head;
    visit u;
    if !depth < r then Graph.iter_neighbors g u push
  done;
  if !tail > !level_start then level (!tail - !level_start);
  Array.sub !queue 0 !tail

let ball ?budget g ~r srcs =
  if r < 0 then invalid_arg "Bfs.ball: negative radius";
  Obs.Metric.incr bfs_calls;
  let observing = Obs.Sink.enabled () in
  let vs =
    visit_ball g ~r srcs
      ~visit:(fun _ -> Guard.tick budget Guard.Bfs_frontier)
      ~level:(fun w ->
        if observing then Obs.Metric.observe frontier_h (float_of_int w))
  in
  let count = Array.length vs in
  Guard.note_ball budget count;
  if observing then Obs.Metric.observe ball_h (float_of_int count);
  Array.sort Int.compare vs;
  Array.to_list vs

let ball_tuple ?budget g ~r t = ball ?budget g ~r (Array.to_list t)

(* [ball]'s traversal from every vertex in turn, counted and charged as
   [n] [ball] calls.  One stamp array marks a vertex seen by the current
   source and one queue holds each traversal, level-synchronous as in
   [visit_ball]. *)
let ball_sizes ?budget g ~r =
  if r < 0 then invalid_arg "Bfs.ball_sizes: negative radius";
  let n = Graph.order g in
  let observing = Obs.Sink.enabled () in
  let level w = if observing then Obs.Metric.observe frontier_h (float_of_int w) in
  let stamp = Array.make n (-1) and queue = Array.make (max n 1) 0 in
  Array.init n (fun src ->
      Obs.Metric.incr bfs_calls;
      stamp.(src) <- src;
      queue.(0) <- src;
      let head = ref 0 and tail = ref 1 and depth = ref 0 in
      let level_start = ref 0 and level_end = ref 1 in
      let push v =
        if stamp.(v) <> src then begin
          stamp.(v) <- src;
          queue.(!tail) <- v;
          incr tail
        end
      in
      while !head < !tail do
        if !head = !level_end then begin
          level (!level_end - !level_start);
          level_start := !level_end;
          level_end := !tail;
          incr depth
        end;
        let u = queue.(!head) in
        incr head;
        Guard.tick budget Guard.Bfs_frontier;
        if !depth < r then Graph.iter_neighbors g u push
      done;
      level (!tail - !level_start);
      let count = !tail in
      Guard.note_ball budget count;
      if observing then Obs.Metric.observe ball_h (float_of_int count);
      count)

let eccentricity ?budget g v =
  let d = distances ?budget g v in
  Array.fold_left (fun acc x -> if x < infinity then max acc x else acc) 0 d

(* Early-exit search from [u] for [v], expanding only vertices at depth
   below [limit]: [dist(u, v)] when it is at most [limit], else
   {!infinity}.  One [Bfs_frontier] tick per dequeued vertex, the one
   at depth [limit] that stops the search included; [v] is found when
   discovered, so it is never dequeued.  The membership set, mapping a
   vertex to its depth, and the queue grow with the explored ball as in
   [visit_ball]: nothing is sized by [Graph.order g]. *)
let search ?budget g ~limit u v =
  if u = v then 0
  else begin
    Obs.Metric.incr bfs_calls;
    let depth = Seen.create 16 in
    let queue = ref (Array.make 16 0) in
    let head = ref 0 and tail = ref 0 in
    let push x d =
      Seen.add depth x d;
      if !tail = Array.length !queue then begin
        let bigger = Array.make (2 * !tail) 0 in
        Array.blit !queue 0 bigger 0 !tail;
        queue := bigger
      end;
      !queue.(!tail) <- x;
      incr tail
    in
    push u 0;
    let result = ref infinity in
    (try
       while !head < !tail do
         Guard.tick budget Guard.Bfs_frontier;
         let x = !queue.(!head) in
         incr head;
         let dx = Seen.find depth x in
         if dx >= limit then raise Exit;
         Graph.iter_neighbors g x (fun y ->
             if not (Seen.mem depth y) then begin
               if y = v then begin
                 result := dx + 1;
                 raise Exit
               end;
               push y (dx + 1)
             end)
       done
     with Exit -> ());
    !result
  end

(* the search frontier grows with the degree of the start vertex, and
   the distance is symmetric: explore outward from the sparser side *)
let dist ?budget g u v =
  let u, v = if Graph.degree g u <= Graph.degree g v then (u, v) else (v, u) in
  search ?budget g ~limit:infinity u v

let within ?budget g ~r u v =
  if u = v then r >= 0 else search ?budget g ~limit:r u v < infinity
