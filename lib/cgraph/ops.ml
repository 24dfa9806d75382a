let induced_calls = Obs.Metric.counter "cgraph.ops.induced_calls"
let induced_h = Obs.Metric.histogram "cgraph.ops.induced_size"

type embedding = {
  graph : Graph.t;
  to_sub : Graph.vertex -> Graph.vertex option;
  of_sub : Graph.vertex -> Graph.vertex;
}

let induced g s =
  Obs.Metric.incr induced_calls;
  let s = List.sort_uniq Int.compare s in
  List.iter
    (fun v -> if v < 0 || v >= Graph.order g then raise (Graph.Invalid_vertex v))
    s;
  let old_of_new = Array.of_list s in
  let m = Array.length old_of_new in
  if Obs.Sink.enabled () then Obs.Metric.observe induced_h (float_of_int m);
  let new_of_old = Hashtbl.create (2 * m) in
  Array.iteri (fun i v -> Hashtbl.replace new_of_old v i) old_of_new;
  let edges =
    List.concat_map
      (fun (i : int) ->
        let v = old_of_new.(i) in
        Graph.fold_neighbors g v
          (fun acc w ->
            match Hashtbl.find_opt new_of_old w with
            | Some j when i < j -> (i, j) :: acc
            | _ -> acc)
          []
        |> List.rev)
      (List.init m Fun.id)
  in
  (* test the members of [S], not the members of each class: O(|S|) per
     colour however large the class is in [g] *)
  let colors =
    List.map
      (fun c ->
        let has = Graph.color_test g c in
        let members = ref [] in
        for i = m - 1 downto 0 do
          if has old_of_new.(i) then members := i :: !members
        done;
        (c, !members))
      (Graph.color_names g)
  in
  {
    graph = Graph.create ~n:m ~edges ~colors;
    to_sub = (fun v -> Hashtbl.find_opt new_of_old v);
    of_sub = (fun i -> old_of_new.(i));
  }

let disjoint_union gs =
  let offsets = Array.make (List.length gs) 0 in
  let total =
    List.fold_left
      (fun (i, acc) g ->
        offsets.(i) <- acc;
        (i + 1, acc + Graph.order g))
      (0, 0) gs
    |> snd
  in
  let edges =
    List.concat (List.mapi
      (fun i g ->
        List.map (fun (u, v) -> (u + offsets.(i), v + offsets.(i))) (Graph.edges g))
      gs)
  in
  let color_tbl : (string, Graph.vertex list ref) Hashtbl.t = Hashtbl.create 16 in
  List.iteri
    (fun i g ->
      List.iter
        (fun c ->
          let members =
            List.map (fun v -> v + offsets.(i)) (Graph.color_class g c)
          in
          match Hashtbl.find_opt color_tbl c with
          | Some r -> r := members @ !r
          | None -> Hashtbl.replace color_tbl c (ref members))
        (Graph.color_names g))
    gs;
  let colors =
    Hashtbl.fold (fun c members acc -> (c, !members) :: acc) color_tbl []
  in
  let union = Graph.create ~n:total ~edges ~colors in
  (union, fun i v -> v + offsets.(i))

let copies g c =
  if c < 1 then invalid_arg "Ops.copies: need at least one copy";
  disjoint_union (List.init c (fun _ -> g))

let subgraph_of h g =
  Graph.order h <= Graph.order g
  && List.for_all (fun (u, v) -> Graph.mem_edge g u v) (Graph.edges h)
  && List.for_all
       (fun c ->
         List.for_all (fun v -> Graph.has_color g c v) (Graph.color_class h c))
       (Graph.color_names h)
