open Cgraph

type ty = int

let equal (a : ty) (b : ty) = a = b
let compare (a : ty) (b : ty) = Int.compare a b
let hash (a : ty) = a
let pp ppf (a : ty) = Format.fprintf ppf "#%d" a

type atomsig = {
  sig_arity : int;
  eqs : (int * int) list;
  edgs : (int * int) list;
  cols : string list array;
}

(* ------------------------------------------------------------------ *)
(* Hash-consing registry (sharded; see Intern)                         *)
(* ------------------------------------------------------------------ *)

(* Every field, so keys that differ deep in a list still hash apart;
   [-1] separates the lists. *)
let hash_atomsig h sg =
  let pair h (i, j) = Intern.mix (Intern.mix h i) j in
  let h = List.fold_left pair (Intern.mix h sg.sig_arity) sg.eqs in
  let h = List.fold_left pair (Intern.mix h (-1)) sg.edgs in
  Array.fold_left
    (fun h cs ->
      List.fold_left
        (fun h c -> Intern.mix h (Hashtbl.hash c))
        (Intern.mix h (-1)) cs)
    h sg.cols

(* The part of a key below the atomic signature.  At cap 1 it is the
   plain type: [Leaf] at rank 0, else the sorted distinct children.
   Above cap 1 every key, a leaf's too, carries the cap, so counting
   keys never equal plain ones and intern in the order a registry of
   their own would give them. *)
type shape =
  | Leaf
  | Set of ty list
  | Capped_leaf of int
  | Capped of int * (ty * int) list
      (* each distinct child, sorted, with its count capped at the cap *)

module Reg = Intern.Make (struct
  type key = atomsig * shape

  let dummy = ({ sig_arity = 0; eqs = []; edgs = []; cols = [||] }, Leaf)

  let hash (sg, shape) =
    let h = hash_atomsig 0 sg in
    match shape with
    | Leaf -> h
    | Set l -> List.fold_left Intern.mix (Intern.mix h (-1)) l
    | Capped_leaf cap -> Intern.mix (Intern.mix h (-2)) cap
    | Capped (cap, l) ->
        List.fold_left
          (fun h (t, c) -> Intern.mix (Intern.mix h t) c)
          (Intern.mix (Intern.mix h (-3)) cap)
          l

  let prefix = "modelcheck.types"
end)

let intern = Reg.intern
let rank = Reg.rank

let arity (t : ty) =
  let sg, _ = Reg.key t in
  sg.sig_arity

let node (t : ty) =
  match Reg.key t with
  | sg, (Leaf | Capped_leaf _) -> (sg, None)
  | sg, Set l -> (sg, Some l)
  | sg, Capped (_, l) -> (sg, Some (List.map fst l))

let counted (t : ty) =
  match snd (Reg.key t) with
  | Leaf -> (1, None)
  | Set l -> (1, Some (List.map (fun t -> (t, 1)) l))
  | Capped_leaf cap -> (cap, None)
  | Capped (cap, l) -> (cap, Some l)

type table_stats = Reg.stats = { live : int; bytes : int }

let table_stats = Reg.stats
let reset_tables = Reg.reset

(* ------------------------------------------------------------------ *)
(* Atomic signatures                                                   *)
(* ------------------------------------------------------------------ *)

let atomic_signature g (u : Graph.Tuple.t) =
  let k = Array.length u in
  let eqs = ref [] and edgs = ref [] in
  for j = k - 1 downto 0 do
    for i = j - 1 downto 0 do
      if u.(i) = u.(j) then eqs := (i, j) :: !eqs;
      if Graph.mem_edge g u.(i) u.(j) then edgs := (i, j) :: !edgs
    done
  done;
  {
    sig_arity = k;
    eqs = !eqs;
    edgs = !edgs;
    cols = Array.map (Graph.colors_of g) u;
  }

(* ------------------------------------------------------------------ *)
(* Leaf kernel                                                         *)
(* ------------------------------------------------------------------ *)

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

module Sig_tbl = Hashtbl.Make (struct
  type t = atomsig

  let equal = ( = )
  let hash = hash_atomsig 0
end)

(* A child of every parent with one signature, under its key: its leaf,
   and how many w reached it under the parent numbered [stamp]. *)
type child = {
  mutable id : int;  (* the leaf of ū·w; -1 until [extend] reaches it *)
  mutable count : int;
  mutable stamp : int;
}

(* an opened parent's rank-1 node with one key of x: its signature and
   leaf table *)
type below = atomsig * child Int_tbl.t

type leaves = {
  lg : Graph.t;
  classes : (string list, int) Hashtbl.t;
      (* colour set -> class id, numbered as the ranges meet them *)
  mutable class_bits : int;  (* bits a class id needs *)
  children : child Int_tbl.t Sig_tbl.t;  (* parent signature -> key -> child *)
  opened : below Int_tbl.t array Sig_tbl.t;
      (* parent signature -> hole -> key of x -> the child with x at the
         hole *)
  mutable parents : int;  (* parents opened so far *)
  mutable whole : range option;  (* the graph's own range, once built *)
}

(* The vertices a computation's quantifiers range over, by position:
   the whole graph (position = vertex) or a ball, ascending.  Its
   arrays are sized by the range. *)
and range = {
  kernel : leaves;
  all : bool;
  ball : Graph.vertex array;  (* [||] when [all] *)
  size : int;
  colour_class : int array;  (* position -> class id of its vertex *)
  bits : int array;
      (* while a parent's marks are laid, by [extend] or [with_open]: a
         bit for each entry of the parent that is the vertex at this
         position, and one for each entry adjacent to it, in the key
         layout of its one-point extensions; zero otherwise *)
  mutable scratch : scratch option;
      (* made by the first opened parent, taken while one is open *)
}

(* The keys of an opened parent's children over a range, numbered
   densely: the range's colour classes first (the key of a position ū
   does not mark), then the keys of the marked positions. *)
and scratch = {
  local : int array;  (* position -> dense id of its class *)
  class_id : int array;  (* dense id of a class -> its class id *)
  class_size : int array;  (* dense id of a class -> its positions *)
  dense : int array;  (* position -> dense id of its key: [local] unmarked *)
  marked : int array;  (* the positions ū marks, while it is open *)
  keys : int array;  (* dense id -> key *)
  ids : int Int_tbl.t;  (* key of a marked position -> dense id *)
  counts : int array;  (* 3 × dense id + variant -> positions *)
}

let leaves g =
  {
    lg = g;
    classes = Hashtbl.create 8;
    class_bits = 0;
    children = Sig_tbl.create 16;
    opened = Sig_tbl.create 16;
    parents = 0;
    whole = None;
  }

let class_of lv v =
  let cs = Graph.colors_of lv.lg v in
  match Hashtbl.find_opt lv.classes cs with
  | Some i -> i
  | None ->
      let i = Hashtbl.length lv.classes in
      Hashtbl.add lv.classes cs i;
      if 1 lsl lv.class_bits <= i then lv.class_bits <- lv.class_bits + 1;
      i

let whole lv =
  match lv.whole with
  | Some rg -> rg
  | None ->
      let n = Graph.order lv.lg in
      let rg =
        {
          kernel = lv;
          all = true;
          ball = [||];
          size = n;
          colour_class = Array.init n (class_of lv);
          bits = Array.make n 0;
          scratch = None;
        }
      in
      lv.whole <- Some rg;
      rg

let over_ball lv vs =
  let m = Array.length vs in
  {
    kernel = lv;
    all = false;
    ball = vs;
    size = m;
    colour_class = Array.map (class_of lv) vs;
    bits = Array.make m 0;
    scratch = None;
  }

let range_vertex rg i = if rg.all then i else rg.ball.(i)

(* the position of [v] in a ball, or -1 outside it *)
let position rg v =
  let lo = ref 0 and hi = ref rg.size in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if rg.ball.(mid) < v then lo := mid + 1 else hi := mid
  done;
  if !lo < rg.size && rg.ball.(!lo) = v then !lo else -1

let children_of lv sg =
  match Sig_tbl.find lv.children sg with
  | t -> t
  | exception Not_found ->
      let t = Int_tbl.create 8 in
      Sig_tbl.add lv.children sg t;
      t

let child_at by_key key =
  match Int_tbl.find by_key key with
  | c -> c
  | exception Not_found ->
      let c = { id = -1; count = 0; stamp = 0 } in
      Int_tbl.add by_key key c;
      c

(* The signature of ū·w is fixed by ū's signature, which u_i equal w,
   which u_i are adjacent to w, and w's colours: the key.  So [mk] runs
   once per parent signature and key, on the first w that has them. *)
let extend rg mk sg u visit =
  let lv = rg.kernel in
  let g = lv.lg and k = Array.length u in
  if 2 * k + lv.class_bits >= Sys.int_size then
    invalid_arg "Types.extend: tuple too long";
  let by_key = children_of lv sg in
  lv.parents <- lv.parents + 1;
  let stamp = lv.parents and reached = ref [] in
  let bits = rg.bits and colour_class = rg.colour_class in
  let child i =
    let key = bits.(i) lor (colour_class.(i) lsl (2 * k)) in
    let c = child_at by_key key in
    if c.id < 0 then
      c.id <- mk (atomic_signature g (Graph.Tuple.append u [| range_vertex rg i |]));
    if c.stamp <> stamp then begin
      c.stamp <- stamp;
      c.count <- 0;
      reached := c :: !reached
    end;
    c.count <- c.count + 1;
    c.id
  in
  let all = rg.all in
  let mark v bit =
    let i = if all then v else position rg v in
    if i >= 0 then bits.(i) <- bits.(i) lor bit
  in
  Array.iteri
    (fun i v ->
      mark v (1 lsl i);
      Graph.iter_neighbors g v (fun w -> mark w (1 lsl (k + i))))
    u;
  let clear v =
    let i = if all then v else position rg v in
    if i >= 0 then bits.(i) <- 0
  in
  let unmark () =
    Array.iter
      (fun v ->
        clear v;
        Graph.iter_neighbors g v clear)
      u
  in
  (match visit child with () -> unmark () | exception e -> unmark (); raise e);
  List.sort (fun (a, _) (b, _) -> Int.compare a b)
    (List.rev_map (fun c -> (c.id, c.count)) !reached)

(* made once per range, sized by it, and taken while a parent is open:
   a parent opened inside another gets one of its own *)
let take_scratch rg =
  match rg.scratch with
  | Some sc ->
      rg.scratch <- None;
      sc
  | None ->
      let local_of = Int_tbl.create 8 and ids = ref [] in
      let local =
        Array.map
          (fun c ->
            match Int_tbl.find local_of c with
            | l -> l
            | exception Not_found ->
                let l = Int_tbl.length local_of in
                Int_tbl.add local_of c l;
                ids := c :: !ids;
                l)
          rg.colour_class
      in
      let class_id = Array.of_list (List.rev !ids) in
      let classes = Array.length class_id in
      let class_size = Array.make classes 0 in
      Array.iter (fun l -> class_size.(l) <- class_size.(l) + 1) local;
      let dense_ids = classes + rg.size in
      {
        local;
        class_id;
        class_size;
        dense = Array.copy local;
        marked = Array.make rg.size 0;
        keys = Array.make dense_ids 0;
        ids = Int_tbl.create 16;
        counts = Array.make (3 * dense_ids) 0;
      }

(* ū with [x] inserted at position [hole] *)
let insert u hole x =
  Array.init
    (Array.length u + 1)
    (fun p -> if p < hole then u.(p) else if p = hole then x else u.(p - 1))

let opened_at lv sg hole =
  let by_hole =
    match Sig_tbl.find lv.opened sg with
    | t -> t
    | exception Not_found ->
        let t = Array.init (sg.sig_arity + 1) (fun _ -> Int_tbl.create 8) in
        Sig_tbl.add lv.opened sg t;
        t
  in
  by_hole.(hole)

(* The rank-1 nodes ū[x] that put a vertex x of the range at position
   [hole] of ū (0 <= hole <= k): the children ū·x of a rank-2 node at
   [hole = k], the roots x·w̄ of a sweep candidate at [hole = 0].
   Opening ū marks its positions once, in the key layout of the nodes
   (arity k + 1, ū's entries around the hole), and counts the positions
   of each distinct key.  The node at x differs from ū only on N[x]: x
   takes its key's eq-variant (the hole's bit) and each neighbour of x
   in the range its key's adj-variant (the hole's bit + k + 1).  So its
   leaves are read off the counts in O(deg x + distinct keys), and the
   moves are undone.  [f derive] runs with ū open: [derive i] is
   [Some (signature, leaves)] for the vertex at position i, the leaves
   sorted with their counts, or [None] when a leaf has no id yet, or
   when the key does not fit in an int; such a node is left to
   [extend].  A node's signature and leaf table are built once per
   parent signature, hole and key of x, and looked up under them. *)
let with_open rg sg u ~hole f =
  let lv = rg.kernel in
  let g = lv.lg and k = Array.length u in
  if 2 * (k + 1) + lv.class_bits >= Sys.int_size then f (fun _ -> None)
  else begin
    let sc = take_scratch rg in
    let bits = rg.bits and dense = sc.dense and keys = sc.keys in
    let counts = sc.counts and shift = 2 * (k + 1) in
    let all = rg.all in
    let pos v = if all then v else position rg v in
    let mark v bit =
      let i = pos v in
      if i >= 0 then bits.(i) <- bits.(i) lor bit
    in
    Array.iteri
      (fun j v ->
        let p = if j < hole then j else j + 1 in
        mark v (1 lsl p);
        Graph.iter_neighbors g v (fun w -> mark w (1 lsl (k + 1 + p))))
      u;
    let classes = Array.length sc.class_id in
    for c = 0 to classes - 1 do
      keys.(c) <- sc.class_id.(c) lsl shift;
      counts.(3 * c) <- sc.class_size.(c);
      counts.((3 * c) + 1) <- 0;
      counts.((3 * c) + 2) <- 0
    done;
    Int_tbl.clear sc.ids;
    let nd = ref classes and nmarked = ref 0 in
    (* number each marked key once, clearing its bits *)
    let number v =
      let i = pos v in
      if i >= 0 && bits.(i) <> 0 then begin
        let key = bits.(i) lor (rg.colour_class.(i) lsl shift) in
        bits.(i) <- 0;
        let d =
          match Int_tbl.find sc.ids key with
          | d -> d
          | exception Not_found ->
              let d = !nd in
              incr nd;
              Int_tbl.add sc.ids key d;
              keys.(d) <- key;
              counts.(3 * d) <- 0;
              counts.((3 * d) + 1) <- 0;
              counts.((3 * d) + 2) <- 0;
              d
        in
        counts.(3 * dense.(i)) <- counts.(3 * dense.(i)) - 1;
        counts.(3 * d) <- counts.(3 * d) + 1;
        dense.(i) <- d;
        sc.marked.(!nmarked) <- i;
        incr nmarked
      end
    in
    Array.iter
      (fun v ->
        number v;
        Graph.iter_neighbors g v number)
      u;
    let by_key = opened_at lv sg hole and nd = !nd in
    let variant = [| 0; 1 lsl hole; 1 lsl (k + 1 + hole) |] in
    let node_at d x =
      match Int_tbl.find by_key keys.(d) with
      | b -> b
      | exception Not_found ->
          let csig = atomic_signature g (insert u hole x) in
          let b = (csig, children_of lv csig) in
          Int_tbl.add by_key keys.(d) b;
          b
    in
    let move d from_ into =
      counts.((3 * d) + from_) <- counts.((3 * d) + from_) - 1;
      counts.((3 * d) + into) <- counts.((3 * d) + into) + 1
    in
    let derive i =
      let x = range_vertex rg i and d = dense.(i) in
      let csig, leaves = node_at d x in
      let shift_nbrs from_ into =
        Graph.iter_neighbors g x (fun y ->
            let j = pos y in
            if j >= 0 then move dense.(j) from_ into)
      in
      move d 0 1;
      shift_nbrs 0 2;
      let kids = ref [] and known = ref true in
      for e = 0 to nd - 1 do
        for v = 0 to 2 do
          let c = counts.((3 * e) + v) in
          if c > 0 then
            match Int_tbl.find leaves (keys.(e) lor variant.(v)) with
            | { id; _ } when id >= 0 -> kids := (id, c) :: !kids
            | _ | (exception Not_found) -> known := false
        done
      done;
      move d 1 0;
      shift_nbrs 2 0;
      if !known then
        Some (csig, List.sort (fun (a, _) (b, _) -> Int.compare a b) !kids)
      else None
    in
    let close () =
      for j = 0 to !nmarked - 1 do
        let i = sc.marked.(j) in
        dense.(i) <- sc.local.(i)
      done;
      rg.scratch <- Some sc
    in
    match f derive with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* ------------------------------------------------------------------ *)
(* Contexts and type computation                                       *)
(* ------------------------------------------------------------------ *)

let tp_hits = Obs.Metric.counter "modelcheck.types.tp_hits"
let tp_misses = Obs.Metric.counter "modelcheck.types.tp_misses"
let ltp_hits = Obs.Metric.counter "modelcheck.types.ltp_hits"
let ltp_misses = Obs.Metric.counter "modelcheck.types.ltp_misses"
let ltp_radius_h = Obs.Metric.histogram "modelcheck.types.ltp_radius"

type ctx = {
  g : Graph.t;
  budget : Guard.Budget.t option;  (* charged for every computed node *)
  cap : int;  (* multiplicity cap: 1 for plain types *)
  leaf : atomsig -> ty;  (* the rank-0 type at [cap] *)
  roots : (int * Graph.Tuple.t, ty) Hashtbl.t;
      (* [tp]'s own calls: a sample drawn with replacement repeats
         tuples; the nodes below a root are reached from it alone *)
  ltp_memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
  leaves : leaves Lazy.t;  (* shared by [tp] and every [ltp] miss *)
  rows : int ref;  (* nodes [tp] computed so far: the table's rows *)
}

let leaf ?(cap = 1) sg =
  intern (sg, if cap = 1 then Leaf else Capped_leaf cap) 0

let make_ctx ?budget ?(cap = 1) g =
  if cap < 1 then invalid_arg "Types.make_ctx: multiplicity cap must be >= 1";
  {
    g;
    budget;
    cap;
    leaf = leaf ~cap;
    roots = Hashtbl.create 256;
    ltp_memo = Hashtbl.create 256;
    leaves = lazy (leaves g);
    rows = ref 0;
  }

(* Every computed node is a table row: the unit of the guard's
   Hintikka-table budget.  Counted before the node's children, so a
   row whose children are still being computed counts too. *)
let note_row ctx rows =
  Obs.Metric.incr tp_misses;
  incr rows;
  Guard.note_table_row ctx.budget !rows

(* [c] rows at once, as [c] calls of [note_row] count them *)
let note_rows ctx rows c =
  let from = !rows in
  match Guard.note_table_rows ctx.budget rows c with
  | () -> Obs.Metric.add tp_misses c
  | exception e ->
      Obs.Metric.add tp_misses (!rows - from);
      raise e

(* the shape of a node whose distinct children, sorted, were reached
   [c] times each *)
let capped cap kids =
  if cap = 1 then Set (List.map fst kids)
  else Capped (cap, List.map (fun (t, c) -> (t, min cap c)) kids)

(* a sorted list as (element, run length) pairs *)
let runs sorted =
  List.fold_right
    (fun t acc ->
      match acc with
      | (t', c) :: rest when t' = t -> (t, c + 1) :: rest
      | _ -> (t, 1) :: acc)
    sorted []

(* A rank-1 node derived by [with_open] charges its node and its n
   leaves, as the position-order path would, and interns nothing else *)
let derived ctx rows ~n csig kids =
  note_rows ctx rows (1 + n);
  intern (csig, capped ctx.cap kids) 1

(* [tp_q] of [u] with the quantifiers ranging over [rg] *)
let rec compute ctx rg rows ~q u =
  note_row ctx rows;
  let sg = atomic_signature ctx.g u in
  if q = 0 then ctx.leaf sg
  else begin
    let n = rg.size in
    let shape =
      if q = 1 then
        capped ctx.cap
          (extend rg ctx.leaf sg u (fun child ->
               for i = 0 to n - 1 do
                 note_row ctx rows;
                 ignore (child i)
               done))
      else begin
        let children = ref [] in
        let child i =
          compute ctx rg rows ~q:(q - 1)
            (Graph.Tuple.append u [| range_vertex rg i |])
        in
        if q = 2 then
          with_open rg sg u ~hole:(Array.length u) (fun derive ->
              for i = 0 to n - 1 do
                let t =
                  match derive i with
                  | Some (csig, kids) -> derived ctx rows ~n csig kids
                  | None -> child i
                in
                children := t :: !children
              done)
        else
          for i = 0 to n - 1 do
            children := child i :: !children
          done;
        if ctx.cap = 1 then Set (List.sort_uniq Int.compare !children)
        else capped ctx.cap (runs (List.sort Int.compare !children))
      end
    in
    intern (sg, shape) q
  end

(* A rank-0 type needs no range, so [range] is only built from rank 1 *)
let compute_root ctx range rows ~q u =
  if q = 0 then begin
    note_row ctx rows;
    ctx.leaf (atomic_signature ctx.g u)
  end
  else compute ctx (range ()) rows ~q u

let tp ctx ~q u =
  if q < 0 then invalid_arg "Types.tp: negative quantifier rank";
  match Hashtbl.find_opt ctx.roots (q, u) with
  | Some t ->
      Obs.Metric.incr tp_hits;
      t
  | None ->
      let range () = whole (Lazy.force ctx.leaves) in
      let t = compute_root ctx range ctx.rows ~q u in
      Hashtbl.replace ctx.roots (q, u) t;
      t

let tp_graph g ~q u = tp (make_ctx g) ~q u

(* At q = 1 the roots v·w̄ are the rank-1 nodes that put v at position
   0 of w̄: [with_open]'s hole at the front.  A root it cannot derive is
   computed as [tp] computes it, and every root of another rank or of an
   example of arity other than 1 is [tp]'s.  The roots of one open are
   memoised by their vertex for that open only: a sweep opens each
   candidate once, and keeping its m roots for the context's lifetime
   cost more than deriving them. *)
let with_candidate ctx ~q w f =
  let plain v = tp ctx ~q (Graph.Tuple.append v w) in
  if q <> 1 then f plain
  else begin
    let rg = whole (Lazy.force ctx.leaves) in
    let root derive v =
      (* a root [tp] memoised is a hit; without one, skip the hash *)
      let memo =
        if Hashtbl.length ctx.roots = 0 then None
        else Hashtbl.find_opt ctx.roots (q, Graph.Tuple.append v w)
      in
      match memo with
      | Some t ->
          Obs.Metric.incr tp_hits;
          t
      | None -> (
          match derive v.(0) with
          | Some (csig, kids) -> derived ctx ctx.rows ~n:rg.size csig kids
          | None -> compute ctx rg ctx.rows ~q (Graph.Tuple.append v w))
    in
    let seen = Int_tbl.create 16 in
    with_open rg (atomic_signature ctx.g w) w ~hole:0 (fun derive ->
        f (fun v ->
            if Array.length v <> 1 || v.(0) < 0 || v.(0) >= rg.size then
              plain v
            else
              match Int_tbl.find seen v.(0) with
              | t ->
                  Obs.Metric.incr tp_hits;
                  t
              | exception Not_found ->
                  let t = root derive v in
                  Int_tbl.add seen v.(0) t;
                  t))
  end

(* On the host graph, with the quantifiers ranging over the ball in
   ascending order: the induced graph's own numbering, so types intern
   in the order and with the ids [tp] on [N_r(ū)] gives them.  Its rows
   count from 0, as in a context of its own. *)
let ltp ctx ~q ~r u =
  if r < 0 then invalid_arg "Types.ltp: negative radius";
  if q < 0 then invalid_arg "Types.ltp: negative quantifier rank";
  if Obs.Sink.enabled () then Obs.Metric.observe ltp_radius_h (float_of_int r);
  match Hashtbl.find_opt ctx.ltp_memo (q, r, u) with
  | Some t ->
      Obs.Metric.incr ltp_hits;
      t
  | None ->
      Obs.Metric.incr ltp_misses;
      Guard.tick ctx.budget Guard.Hintikka_build;
      let ball = Array.of_list (Bfs.ball_tuple ?budget:ctx.budget ctx.g ~r u) in
      let range () = over_ball (Lazy.force ctx.leaves) ball in
      let t = compute_root ctx range (ref 0) ~q u in
      Hashtbl.replace ctx.ltp_memo (q, r, u) t;
      t

let partition_by keyf tuples =
  let tbl : (ty, Graph.Tuple.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun u ->
      let t = keyf u in
      match Hashtbl.find_opt tbl t with
      | Some cell -> cell := u :: !cell
      | None ->
          Hashtbl.replace tbl t (ref [ u ]);
          order := t :: !order)
    tuples;
  List.rev_map
    (fun t -> (t, List.rev !(Hashtbl.find tbl t)))
    !order

let partition_by_tp ctx ~q tuples = partition_by (fun u -> tp ctx ~q u) tuples

let partition_by_ltp ctx ~q ~r tuples =
  partition_by (fun u -> ltp ctx ~q ~r u) tuples

let count_types ?cap g ~q ~k =
  let ctx = make_ctx ?cap g in
  partition_by_tp ctx ~q (Graph.Tuple.all ~n:(Graph.order g) ~k) |> List.length
