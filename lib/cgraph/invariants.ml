let components g =
  let n = Graph.order g in
  let seen = Array.make n false in
  let comps = ref [] in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      let comp = ref [] in
      let queue = Queue.create () in
      seen.(v) <- true;
      Queue.add v queue;
      while not (Queue.is_empty queue) do
        let u = Queue.take queue in
        comp := u :: !comp;
        Graph.iter_neighbors g u (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              Queue.add w queue
            end)
      done;
      comps := List.sort Int.compare !comp :: !comps
    end
  done;
  List.rev !comps

let is_connected g = List.length (components g) <= 1

let isolated_vertices g =
  List.filter (fun v -> Graph.degree g v = 0) (Graph.vertices g)

let degeneracy g =
  (* peel minimum-degree vertices; the largest degree at removal time *)
  let n = Graph.order g in
  if n = 0 then 0
  else begin
    let deg = Array.init n (Graph.degree g) in
    let removed = Array.make n false in
    let best = ref 0 in
    for _ = 1 to n do
      let v = ref (-1) in
      for u = 0 to n - 1 do
        if (not removed.(u)) && (!v < 0 || deg.(u) < deg.(!v)) then v := u
      done;
      best := max !best deg.(!v);
      removed.(!v) <- true;
      Graph.iter_neighbors g !v (fun w ->
          if not removed.(w) then deg.(w) <- deg.(w) - 1)
    done;
    !best
  end

let is_forest g =
  let comp_count = List.length (components g) in
  Graph.size g = Graph.order g - comp_count

let diameter ?budget g =
  List.fold_left (fun acc v -> max acc (Bfs.eccentricity ?budget g v)) 0 (Graph.vertices g)

let treewidth_exact ?(cap = 16) g =
  let n = Graph.order g in
  if n > cap then None
  else if n = 0 then Some 0
  else begin
    (* Q(S, v): vertices outside S∪{v} reachable from v through S *)
    let q s v =
      let seen = Array.make n false in
      let count = ref 0 in
      let rec dfs u =
        Graph.iter_neighbors g u (fun w ->
            if not seen.(w) then begin
              seen.(w) <- true;
              if s land (1 lsl w) <> 0 then dfs w
              else if w <> v then incr count
            end)
      in
      seen.(v) <- true;
      dfs v;
      !count
    in
    (* f(S) = width of the best elimination prefix on S *)
    let f = Array.make (1 lsl n) max_int in
    f.(0) <- min_int;
    for s = 1 to (1 lsl n) - 1 do
      let best = ref max_int in
      for v = 0 to n - 1 do
        if s land (1 lsl v) <> 0 then begin
          let s' = s lxor (1 lsl v) in
          if f.(s') < max_int then begin
            let cost = max f.(s') (q s' v) in
            if cost < !best then best := cost
          end
        end
      done;
      f.(s) <- !best
    done;
    Some (max 0 f.((1 lsl n) - 1))
  end

let treedepth_upper_bound g =
  if not (is_forest g) then Graph.order g
  else begin
    (* For each tree component: td(T) <= 1 + td after removing a centroid. *)
    let rec td_of_component vs =
      match vs with
      | [] -> 0
      | [ _ ] -> 1
      | _ ->
          let emb = Ops.induced g vs in
          let sub = emb.Ops.graph in
          (* centroid = vertex minimising the largest remaining component *)
          let best_v = ref 0 and best_score = ref max_int in
          List.iter
            (fun v ->
              let rest = List.filter (fun u -> u <> v) (Graph.vertices sub) in
              let emb' = Ops.induced sub rest in
              let score =
                List.fold_left
                  (fun acc c -> max acc (List.length c))
                  0
                  (components emb'.Ops.graph)
              in
              if score < !best_score then begin
                best_score := score;
                best_v := v
              end)
            (Graph.vertices sub);
          let rest = List.filter (fun u -> u <> !best_v) (Graph.vertices sub) in
          let emb' = Ops.induced sub rest in
          let deeper =
            List.fold_left
              (fun acc c ->
                max acc
                  (td_of_component
                     (List.map (fun u -> emb.Ops.of_sub (emb'.Ops.of_sub u)) c)))
              0
              (components emb'.Ops.graph)
          in
          1 + deeper
    in
    List.fold_left (fun acc c -> max acc (td_of_component c)) 0 (components g)
  end
