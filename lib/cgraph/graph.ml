(* Vertex-coloured graphs in compressed-sparse-row (CSR) form.

   The representation favours the access patterns of the type-computation
   and learning algorithms, which are read-heavy and cache-sensitive:

   - adjacency is two flat Bigarray int vectors ([offsets]/[targets]);
     row [v] is [targets.(offsets.(v)) .. targets.(offsets.(v+1) - 1)],
     sorted and duplicate-free.  Neighbour iteration is a linear scan of
     one contiguous slice (no per-vertex array object, no pointer
     chasing), edge tests are an O(log d) binary search in the smaller
     row;
   - colour classes carry a bitset next to the sorted member array, so
     [has_color] — the inner loop of atomic-signature computation — is
     one byte load and a mask instead of a binary search;
   - values are immutable; "modifying" operations return a new value
     sharing the adjacency vectors where possible.  Each value carries a
     process-unique [uid] so formula-compilation caches can key on graph
     identity without structural comparison. *)

type vertex = int

exception Invalid_vertex of int

module SMap = Map.Make (String)

type ba = (int, Bigarray.int_elt, Bigarray.c_layout) Bigarray.Array1.t

type color = {
  members : vertex array;  (* sorted, duplicate-free *)
  bits : Bytes.t;          (* membership bitset over the vertex range *)
}

type t = {
  n : int;
  nedges : int;
  uid : int;
  offsets : ba;  (* length n + 1; offsets.(n) = 2 * nedges *)
  targets : ba;  (* sorted within each row *)
  colors : color SMap.t;
}

let next_uid = Atomic.make 0
let fresh_uid () = Atomic.fetch_and_add next_uid 1

let uid g = g.uid

let check_vertex g v = if v < 0 || v >= g.n then raise (Invalid_vertex v)

(* Monomorphic int sort: the polymorphic [compare] costs a C call per
   comparison, which dominates graph construction on big instances
   (pinned by the sort micro-regression in the test suite). *)
let sorted_dedup_array lst =
  let a = Array.of_list lst in
  Array.sort Int.compare a;
  let m = Array.length a in
  if m = 0 then a
  else begin
    let w = ref 1 in
    for r = 1 to m - 1 do
      if a.(r) <> a.(!w - 1) then begin
        a.(!w) <- a.(r);
        incr w
      end
    done;
    Array.sub a 0 !w
  end

let bitset_of_members n members =
  let bits = Bytes.make ((n + 7) / 8) '\000' in
  Array.iter
    (fun v ->
      let byte = v lsr 3 and mask = 1 lsl (v land 7) in
      Bytes.unsafe_set bits byte
        (Char.chr (Char.code (Bytes.unsafe_get bits byte) lor mask)))
    members;
  bits

let make_color n members_list =
  let members = sorted_dedup_array members_list in
  { members; bits = bitset_of_members n members }

let bit_test c v =
  Char.code (Bytes.unsafe_get c.bits (v lsr 3)) land (1 lsl (v land 7)) <> 0

let build_colors n color_list =
  List.fold_left
    (fun acc (name, members) ->
      if SMap.mem name acc then
        invalid_arg (Printf.sprintf "Graph.create: duplicate colour %S" name);
      List.iter
        (fun v -> if v < 0 || v >= n then raise (Invalid_vertex v))
        members;
      SMap.add name (make_color n members) acc)
    SMap.empty color_list

(* Pack sorted duplicate-free rows into the CSR vectors. *)
let pack_csr n (adj : vertex array array) =
  let offsets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout (n + 1) in
  let total = ref 0 in
  for v = 0 to n - 1 do
    Bigarray.Array1.unsafe_set offsets v !total;
    total := !total + Array.length adj.(v)
  done;
  Bigarray.Array1.unsafe_set offsets n !total;
  let targets = Bigarray.Array1.create Bigarray.int Bigarray.c_layout !total in
  let w = ref 0 in
  for v = 0 to n - 1 do
    let row = adj.(v) in
    for i = 0 to Array.length row - 1 do
      Bigarray.Array1.unsafe_set targets !w row.(i);
      incr w
    done
  done;
  (offsets, targets, !total / 2)

let create ~n ~edges ~colors =
  if n < 0 then invalid_arg "Graph.create: negative order";
  let buckets = Array.make (max n 1) [] in
  List.iter
    (fun (u, v) ->
      if u < 0 || u >= n then raise (Invalid_vertex u);
      if v < 0 || v >= n then raise (Invalid_vertex v);
      if u = v then invalid_arg "Graph.create: self-loop";
      buckets.(u) <- v :: buckets.(u);
      buckets.(v) <- u :: buckets.(v))
    edges;
  let adj = Array.init n (fun v -> sorted_dedup_array buckets.(v)) in
  let offsets, targets, nedges = pack_csr n adj in
  { n; nedges; uid = fresh_uid (); offsets; targets;
    colors = build_colors n colors }

let of_adjacency adj colors =
  let n = Array.length adj in
  let edges =
    List.concat
      (List.init n (fun u ->
           List.filter_map (fun v -> if u < v then Some (u, v) else None) adj.(u)))
  in
  (* symmetrise: also collect edges given only in the high->low direction *)
  let extra =
    List.concat
      (List.init n (fun u ->
           List.filter_map (fun v -> if u > v then Some (v, u) else None) adj.(u)))
  in
  create ~n ~edges:(edges @ extra) ~colors

let order g = g.n
let size g = g.nedges
let vertices g = List.init g.n Fun.id

let row_start g v = Bigarray.Array1.unsafe_get g.offsets v
let row_stop g v = Bigarray.Array1.unsafe_get g.offsets (v + 1)

let neighbors g v =
  check_vertex g v;
  let lo = row_start g v in
  Array.init (row_stop g v - lo) (fun i ->
      Bigarray.Array1.unsafe_get g.targets (lo + i))

let iter_neighbors g v f =
  check_vertex g v;
  for i = row_start g v to row_stop g v - 1 do
    f (Bigarray.Array1.unsafe_get g.targets i)
  done

let fold_neighbors g v f init =
  check_vertex g v;
  let acc = ref init in
  for i = row_start g v to row_stop g v - 1 do
    acc := f !acc (Bigarray.Array1.unsafe_get g.targets i)
  done;
  !acc

let rec exists_row g p i stop =
  i < stop
  && (p (Bigarray.Array1.unsafe_get g.targets i)
     || exists_row g p (i + 1) stop)

let exists_neighbor g v p =
  check_vertex g v;
  exists_row g p (row_start g v) (row_stop g v)

let degree g v =
  check_vertex g v;
  row_stop g v - row_start g v

let max_degree g =
  let best = ref 0 in
  for v = 0 to g.n - 1 do
    let d = row_stop g v - row_start g v in
    if d > !best then best := d
  done;
  !best

(* binary search for [x] in targets.(lo) .. targets.(hi - 1) *)
let mem_row g lo0 hi0 x =
  let lo = ref lo0 and hi = ref hi0 in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if Bigarray.Array1.unsafe_get g.targets mid < x then lo := mid + 1
    else hi := mid
  done;
  !lo < hi0 && Bigarray.Array1.unsafe_get g.targets !lo = x

let mem_edge g u v =
  check_vertex g u;
  check_vertex g v;
  let ulo = row_start g u and uhi = row_stop g u in
  let vlo = row_start g v and vhi = row_stop g v in
  if uhi - ulo <= vhi - vlo then mem_row g ulo uhi v else mem_row g vlo vhi u

let edges g =
  List.concat
    (List.init g.n (fun u ->
         fold_neighbors g u
           (fun acc v -> if u < v then (u, v) :: acc else acc)
           []
         |> List.rev))

let color_names g = SMap.bindings g.colors |> List.map fst

let has_color g c v =
  check_vertex g v;
  match SMap.find_opt c g.colors with
  | None -> false
  | Some col -> bit_test col v

let color_test g c =
  match SMap.find_opt c g.colors with
  | None -> fun v -> check_vertex g v; false
  | Some col -> fun v -> check_vertex g v; bit_test col v

let color_class g c =
  match SMap.find_opt c g.colors with
  | None -> []
  | Some col -> Array.to_list col.members

let colors_of g v =
  check_vertex g v;
  SMap.fold
    (fun name col acc -> if bit_test col v then name :: acc else acc)
    g.colors []
  |> List.rev

let with_colors g fresh =
  let colors =
    List.fold_left
      (fun acc (name, members) ->
        if SMap.mem name acc then
          invalid_arg
            (Printf.sprintf "Graph.with_colors: colour %S already present" name);
        List.iter (fun v -> check_vertex g v) members;
        SMap.add name (make_color g.n members) acc)
      g.colors fresh
  in
  (* adjacency is shared; the colour vocabulary changed, so the value
     gets a fresh identity for compilation caches *)
  { g with colors; uid = fresh_uid () }

let restrict_vocabulary g keep =
  let colors = SMap.filter (fun name _ -> List.mem name keep) g.colors in
  { g with colors; uid = fresh_uid () }

let same_int_array a b =
  Array.length a = Array.length b
  &&
  let rec go i = i >= Array.length a || (a.(i) = b.(i) && go (i + 1)) in
  go 0

let equal g h =
  g.n = h.n
  && g.nedges = h.nedges
  && (let rec rows v =
        v >= g.n
        || (row_start g v = row_start h v
            && row_stop g v = row_stop h v
            &&
            let rec cells i =
              i >= row_stop g v
              || (Bigarray.Array1.unsafe_get g.targets i
                  = Bigarray.Array1.unsafe_get h.targets i
                 && cells (i + 1))
            in
            cells (row_start g v) && rows (v + 1))
      in
      rows 0)
  && SMap.equal (fun a b -> same_int_array a.members b.members) g.colors h.colors

let pp ppf g =
  Format.fprintf ppf "@[<v>graph: %d vertices, %d edges@," g.n g.nedges;
  Format.fprintf ppf "edges: %a@,"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf " ")
       (fun ppf (u, v) -> Format.fprintf ppf "%d-%d" u v))
    (edges g);
  SMap.iter
    (fun name col ->
      Format.fprintf ppf "colour %s: {%a}@," name
        (Format.pp_print_list
           ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
           Format.pp_print_int)
        (Array.to_list col.members))
    g.colors;
  Format.fprintf ppf "@]"

let to_dot ?(name = "G") g =
  let buf = Buffer.create 256 in
  Buffer.add_string buf (Printf.sprintf "graph %s {\n" name);
  List.iter
    (fun v ->
      let cs = colors_of g v in
      let label =
        if cs = [] then string_of_int v
        else Printf.sprintf "%d:%s" v (String.concat "," cs)
      in
      Buffer.add_string buf (Printf.sprintf "  v%d [label=\"%s\"];\n" v label))
    (vertices g);
  List.iter
    (fun (u, v) -> Buffer.add_string buf (Printf.sprintf "  v%d -- v%d;\n" u v))
    (edges g);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

module Tuple = struct
  type nonrec t = vertex array

  let equal (a : t) (b : t) = same_int_array a b

  (* length-first, then lexicographic — the order the polymorphic
     [compare] gives int arrays, without the C call per element *)
  let compare (a : t) (b : t) =
    let la = Array.length a and lb = Array.length b in
    if la <> lb then Int.compare la lb
    else
      let rec go i =
        if i >= la then 0
        else
          let c = Int.compare a.(i) b.(i) in
          if c <> 0 then c else go (i + 1)
      in
      go 0

  let hash (a : t) =
    Array.fold_left (fun acc v -> (acc * 31) + v + 1) (Array.length a) a

  let pp ppf t =
    Format.fprintf ppf "(%a)"
      (Format.pp_print_list
         ~pp_sep:(fun ppf () -> Format.fprintf ppf ",")
         Format.pp_print_int)
      (Array.to_list t)

  let append = Array.append

  let all ~n ~k =
    if k < 0 then invalid_arg "Tuple.all: negative arity";
    let rec go k =
      if k = 0 then [ [] ]
      else
        let rest = go (k - 1) in
        List.concat (List.init n (fun v -> List.map (fun t -> v :: t) rest))
    in
    List.map Array.of_list (go k)

  let iter_all ~n ~k f =
    if k < 0 then invalid_arg "Tuple.iter_all: negative arity";
    let buf = Array.make k 0 in
    let rec go i =
      if i = k then f (Array.sub buf 0 k)
      else
        for v = 0 to n - 1 do
          buf.(i) <- v;
          go (i + 1)
        done
    in
    go 0

  let count ~n ~k =
    if k < 0 then invalid_arg "Tuple.count: negative arity";
    if n <= 0 then Some (if k = 0 then 1 else 0)
    else begin
      let rec go acc i =
        if i = 0 then Some acc
        else if acc > max_int / n then None
        else go (acc * n) (i - 1)
      in
      go 1 k
    end

  let of_index ~n ~k i =
    if k < 0 then invalid_arg "Tuple.of_index: negative arity";
    let t = Array.make k 0 in
    let rem = ref i in
    for j = k - 1 downto 0 do
      t.(j) <- !rem mod n;
      rem := !rem / n
    done;
    t
end
