type t = {
  order : int;
  size : int;
  max_degree : int;
  degree_histogram : (int * int) list;
  color_counts : (string * int) list;
  component_count : int;
  largest_component : int;
  smallest_component : int;
}

(* A private component walk for [probe]: [Bfs] reports every dequeue
   to the guard, and a planner probing the structure must not spend the
   fuel of the run it is planning. *)
let component_size g seen src =
  let q = Queue.create () in
  seen.(src) <- true;
  Queue.add src q;
  let size = ref 1 in
  while not (Queue.is_empty q) do
    Graph.iter_neighbors g (Queue.pop q) (fun w ->
        if not seen.(w) then begin
          seen.(w) <- true;
          incr size;
          Queue.add w q
        end)
  done;
  !size

let ball_size g ~r srcs =
  if r < 0 then invalid_arg "Stats.ball_size: need r >= 0";
  Array.length (Bfs.visit_ball g ~r ~visit:ignore ~level:ignore srcs)

let probe g =
  let n = Graph.order g in
  let hist = Hashtbl.create 16 in
  for v = 0 to n - 1 do
    let d = Graph.degree g v in
    Hashtbl.replace hist d (1 + Option.value ~default:0 (Hashtbl.find_opt hist d))
  done;
  let degree_histogram =
    Hashtbl.fold (fun d c acc -> (d, c) :: acc) hist []
    |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
  in
  let color_counts =
    List.map (fun c -> (c, List.length (Graph.color_class g c))) (Graph.color_names g)
  in
  let seen = Array.make (max 1 n) false in
  let component_count = ref 0 in
  let largest = ref 0 and smallest = ref 0 in
  for v = 0 to n - 1 do
    if not seen.(v) then begin
      incr component_count;
      let sz = component_size g seen v in
      if sz > !largest then largest := sz;
      if !smallest = 0 || sz < !smallest then smallest := sz
    end
  done;
  {
    order = n;
    size = Graph.size g;
    max_degree = Graph.max_degree g;
    degree_histogram;
    color_counts;
    component_count = !component_count;
    largest_component = !largest;
    smallest_component = !smallest;
  }

let to_json t =
  Obs.Json.Obj
    [
      ("order", Obs.Json.Int t.order);
      ("size", Obs.Json.Int t.size);
      ("max_degree", Obs.Json.Int t.max_degree);
      ( "degree_histogram",
        Obs.Json.List
          (List.map
             (fun (d, c) -> Obs.Json.List [ Obs.Json.Int d; Obs.Json.Int c ])
             t.degree_histogram) );
      ( "color_counts",
        Obs.Json.Obj (List.map (fun (c, k) -> (c, Obs.Json.Int k)) t.color_counts) );
      ("component_count", Obs.Json.Int t.component_count);
      ("largest_component", Obs.Json.Int t.largest_component);
      ("smallest_component", Obs.Json.Int t.smallest_component);
    ]
