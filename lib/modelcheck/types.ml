open Cgraph

type ty = int

let equal (a : ty) (b : ty) = a = b
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
   plain type: [Leaf] at rank 0, else the distinct children, sorted by
   id.  Above cap 1 every key, a leaf's too, carries the cap, so
   counting keys never equal plain ones. *)
type shape =
  | Leaf
  | Set of ty list
  | Capped_leaf of int
  | Capped of int * (ty * int) list
      (* each distinct child, sorted by id, with its count capped at the
         cap *)

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

let arity (t : ty) = (fst (Reg.key t)).sig_arity

let counted (t : ty) =
  match snd (Reg.key t) with
  | Leaf -> (1, None)
  | Set l -> (1, Some (List.map (fun t -> (t, 1)) l))
  | Capped_leaf cap -> (cap, None)
  | Capped (cap, l) -> (cap, Some l)

let node t = (fst (Reg.key t), Option.map (List.map fst) (snd (counted t)))

type table_stats = Reg.stats = { live : int; bytes : int }

let table_stats = Reg.stats
let reset_tables = Reg.reset

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* ------------------------------------------------------------------ *)
(* The structural order                                                *)
(* ------------------------------------------------------------------ *)

(* Distinct ids are distinct types, so two types differ in their
   signature, their cap, their having children, or a first child in the
   structural order.  [o] memoises each type's sorted children. *)
let rec compare_in o a b =
  if a = b then 0
  else
    match Stdlib.compare (fst (Reg.key a)) (fst (Reg.key b)) with
    | 0 -> (
        match (counted a, counted b) with
        | (ca, Some _), (cb, Some _) when ca = cb ->
            List.compare
              (fun (x, m) (y, n) ->
                match compare_in o x y with 0 -> Int.compare m n | c -> c)
              (children_in o a) (children_in o b)
        | (ca, ka), (cb, kb) -> Stdlib.compare (ca, ka <> None) (cb, kb <> None))
    | c -> c

and children_in o t =
  match Int_tbl.find o t with
  | l -> l
  | exception Not_found ->
      let kids = Option.value (snd (counted t)) ~default:[] in
      let l = List.sort (fun (x, _) (y, _) -> compare_in o x y) kids in
      Int_tbl.add o t l;
      l

let order () = compare_in (Int_tbl.create 64)
let compare a b = order () a b

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

module Sig_tbl = Hashtbl.Make (struct
  type t = atomsig

  let equal = ( = )
  let hash = hash_atomsig 0
end)

(* One context's kernel state, shared by every range made from it *)
type kernel = {
  lg : Graph.t;
  mk : atomsig -> ty;  (* the context's leaf: the rank-0 type at its cap *)
  classes : (string list, int) Hashtbl.t;
      (* colour set -> class id, numbered as the ranges meet them *)
  colours : string list Int_tbl.t;  (* class id -> colour set *)
  mutable class_bits : int;  (* bits a class id needs *)
  opened : (atomsig * ty Int_tbl.t) Int_tbl.t array Sig_tbl.t;
      (* parent signature -> hole -> key of x -> the signature and leaf
         table of the node with x at the hole *)
  mutable whole : range option;  (* the graph's own range, once built *)
}

(* The vertices a computation's quantifiers range over, by position:
   the whole graph (position = vertex) or a ball, ascending.  Its
   arrays are sized by the range. *)
and range = {
  kernel : kernel;
  all : bool;
  ball : Graph.vertex array;  (* [||] when [all] *)
  size : int;
  colour_class : int array;  (* position -> class id of its vertex *)
  bits : int array;
      (* while a parent is opened: a bit for each entry of the parent
         that is the vertex at this position, and one for each entry
         adjacent to it, in the key layout of its nodes; zero otherwise *)
  mutable spare : scratch list;
      (* made on demand, one per parent open at once *)
}

(* The keys of an opened parent's nodes over a range, numbered densely:
   the range's colour classes first (the key of a position ū does not
   mark), then the keys of the marked positions. *)
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

let kernel g mk =
  {
    lg = g;
    mk;
    classes = Hashtbl.create 8;
    colours = Int_tbl.create 8;
    class_bits = 0;
    opened = Sig_tbl.create 16;
    whole = None;
  }

let class_of kn v =
  let cs = Graph.colors_of kn.lg v in
  match Hashtbl.find_opt kn.classes cs with
  | Some i -> i
  | None ->
      let i = Hashtbl.length kn.classes in
      Hashtbl.add kn.classes cs i;
      Int_tbl.add kn.colours i cs;
      if 1 lsl kn.class_bits <= i then kn.class_bits <- kn.class_bits + 1;
      i

let range kn ~all ball size colour_class =
  { kernel = kn; all; ball; size; colour_class; bits = Array.make size 0;
    spare = [] }

let whole kn =
  match kn.whole with
  | Some rg -> rg
  | None ->
      let n = Graph.order kn.lg in
      let rg = range kn ~all:true [||] n (Array.init n (class_of kn)) in
      kn.whole <- Some rg;
      rg

let over_ball kn vs =
  range kn ~all:false vs (Array.length vs) (Array.map (class_of kn) vs)

let range_vertex rg i = if rg.all then i else rg.ball.(i)

(* the position of [v] in a range, or -1 outside a ball *)
let position rg v =
  if rg.all then v
  else begin
    let lo = ref 0 and hi = ref rg.size in
    while !lo < !hi do
      let mid = (!lo + !hi) lsr 1 in
      if rg.ball.(mid) < v then lo := mid + 1 else hi := mid
    done;
    if !lo < rg.size && rg.ball.(!lo) = v then !lo else -1
  end

(* The leaf ū·w of a rank-1 node ū with signature [sg], from the key
   of w alone: [sg] with w's equalities and edges to the entries of ū
   (the key's low bits, in [atomic_signature]'s order) and w's colours
   (its class).  Interned on the key's first sight. *)
let leaf_at kn sg leaves key =
  match Int_tbl.find leaves key with
  | t -> t
  | exception Not_found ->
      let k = sg.sig_arity in
      let set low =
        List.filter_map
          (fun i -> if key land (1 lsl (low + i)) <> 0 then Some (i, k) else None)
          (List.init k Fun.id)
      in
      let colours = Int_tbl.find kn.colours (key lsr (2 * k)) in
      let t =
        kn.mk
          { sig_arity = k + 1; eqs = sg.eqs @ set 0; edgs = sg.edgs @ set k;
            cols = Array.append sg.cols [| colours |] }
      in
      Int_tbl.add leaves key t;
      t

let by_id kids = List.sort (fun (a, _) (b, _) -> Int.compare a b) kids

(* made once per range, sized by it, and taken while a parent is open:
   a parent opened inside another gets one of its own *)
let take_scratch rg =
  match rg.spare with
  | sc :: rest ->
      rg.spare <- rest;
      sc
  | [] ->
      (* class ids are dense over the kernel: number the range's densely *)
      let known = Hashtbl.length rg.kernel.classes in
      let local_of = Array.make known (-1) and ids = Array.make known 0 in
      let classes = ref 0 in
      let local =
        Array.map
          (fun c ->
            if local_of.(c) < 0 then begin
              local_of.(c) <- !classes;
              ids.(!classes) <- c;
              incr classes
            end;
            local_of.(c))
          rg.colour_class
      in
      let classes = !classes in
      let class_id = Array.sub ids 0 classes in
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

let opened_at kn sg hole =
  let by_hole =
    match Sig_tbl.find kn.opened sg with
    | t -> t
    | exception Not_found ->
        let t = Array.init (sg.sig_arity + 1) (fun _ -> Int_tbl.create 8) in
        Sig_tbl.add kn.opened sg t;
        t
  in
  by_hole.(hole)

(* The rank-1 nodes ū[x] that put a vertex x of the range at position
   [hole] of ū (0 <= hole <= k).  Opening ū marks its positions once, in
   the key layout of the nodes (arity k + 1, ū's entries around the
   hole), and counts the positions of each distinct key.  The node at x
   differs from ū only on N[x]: x takes its key's eq-variant (the
   hole's bit) and each neighbour of x in the range its key's
   adj-variant (the hole's bit + k + 1).  So its leaves are read off
   the counts in O(deg x + distinct keys), and the moves are undone.
   [f derive] runs with ū open: [derive i] is the signature and the
   leaves of the node at the vertex at position i, the leaves sorted by
   id with their counts; it raises when the nodes' keys do not fit in an
   int.  A node's signature and leaf table are built
   once per parent signature, hole and key of x, and looked up under
   them. *)
let with_open rg sg u ~hole f =
  let kn = rg.kernel in
  let g = kn.lg and k = Array.length u in
  if 2 * (k + 1) + kn.class_bits >= Sys.int_size then
    (* the message this refusal has always carried *)
    f (fun _ -> invalid_arg "Types.extend: tuple too long")
  else begin
    let sc = take_scratch rg in
    let bits = rg.bits and dense = sc.dense and keys = sc.keys in
    let counts = sc.counts and shift = 2 * (k + 1) in
    let pos = position rg in
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
      Array.fill counts (3 * c) 3 0;
      counts.(3 * c) <- sc.class_size.(c)
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
              Array.fill counts (3 * d) 3 0;
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
    let by_key = opened_at kn sg hole and nd = !nd in
    let variant = [| 0; 1 lsl hole; 1 lsl (k + 1 + hole) |] in
    let node_at d x =
      match Int_tbl.find by_key keys.(d) with
      | b -> b
      | exception Not_found ->
          let at p = if p < hole then u.(p) else if p = hole then x else u.(p - 1) in
          let b = (atomic_signature g (Array.init (k + 1) at), Int_tbl.create 8) in
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
      let kids = ref [] in
      for e = 0 to nd - 1 do
        for v = 0 to 2 do
          let c = counts.((3 * e) + v) in
          if c > 0 then
            kids := (leaf_at kn csig leaves (keys.(e) lor variant.(v)), c) :: !kids
        done
      done;
      move d 1 0;
      shift_nbrs 2 0;
      (csig, by_id !kids)
    in
    let close () =
      for j = 0 to !nmarked - 1 do
        let i = sc.marked.(j) in
        dense.(i) <- sc.local.(i)
      done;
      rg.spare <- sc :: rg.spare
    in
    match f derive with
    | r ->
        close ();
        r
    | exception e ->
        close ();
        raise e
  end

(* The leaves of a rank-1 node ū with signature [sg] that is no child
   of an open parent: ū minus its last entry opened and derived at that
   entry, or for the empty tuple one leaf per colour class *)
let rank1_leaves rg sg u =
  let k = Array.length u in
  if k = 0 then begin
    let sc = take_scratch rg and leaves = Int_tbl.create 8 in
    rg.spare <- sc :: rg.spare;
    by_id
      (List.init (Array.length sc.class_id) (fun c ->
           (leaf_at rg.kernel sg leaves sc.class_id.(c), sc.class_size.(c))))
  end
  else
    let parent = Array.sub u 0 (k - 1) in
    with_open rg (atomic_signature rg.kernel.lg parent) parent ~hole:(k - 1)
      (fun derive -> snd (derive (position rg u.(k - 1))))

(* ------------------------------------------------------------------ *)
(* Contexts and type computation                                       *)
(* ------------------------------------------------------------------ *)

let tp_hits = Obs.Metric.counter "modelcheck.types.tp_hits"
let tp_misses = Obs.Metric.counter "modelcheck.types.tp_misses"
let ltp_hits = Obs.Metric.counter "modelcheck.types.ltp_hits"
let ltp_misses = Obs.Metric.counter "modelcheck.types.ltp_misses"
let ltp_composed = Obs.Metric.counter "modelcheck.types.ltp_composed"
let ltp_radius_h = Obs.Metric.histogram "modelcheck.types.ltp_radius"

module Triple_tbl = Hashtbl.Make (struct
  type t = int * int * int

  let equal (a, b, c) (a', b', c') = a = a' && b = b' && c = c'
  let hash (a, b, c) = Intern.mix (Intern.mix a b) c
end)

type ctx = {
  g : Graph.t;
  budget : Guard.Budget.t option;  (* charged for every computed node *)
  cap : int;  (* multiplicity cap: 1 for plain types *)
  ltp_memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
  candidates : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
      (* the local types of [with_local_candidate]'s candidates, apart
         from [ltp_memo]: a candidate is never a hit on a pair's key *)
  truncated : ty Int_tbl.t;  (* a type -> the type one rank below *)
  composed : ty Triple_tbl.t;  (* (type of a, type of b, layout) -> type *)
  kernel : kernel Lazy.t;  (* shared by [tp] and every [ltp] miss *)
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
    ltp_memo = Hashtbl.create 256;
    candidates = Hashtbl.create 16;
    truncated = Int_tbl.create 16;
    composed = Triple_tbl.create 16;
    kernel = lazy (kernel g (leaf ~cap));
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

(* the shape of a node whose distinct children, sorted by id, were
   reached [c] times each *)
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

(* A rank-1 child of an open parent charges its node and its n leaves *)
let derived ctx rows ~n (csig, kids) =
  note_rows ctx rows (1 + n);
  intern (csig, capped ctx.cap kids) 1

(* [tp_q] of [u] with the quantifiers ranging over [rg] *)
let rec compute ctx rg rows ~q u =
  note_row ctx rows;
  let sg = atomic_signature ctx.g u in
  if q = 0 then leaf ~cap:ctx.cap sg
  else begin
    let n = rg.size in
    let shape =
      if q = 1 then begin
        let kids = rank1_leaves rg sg u in
        note_rows ctx rows n;
        capped ctx.cap kids
      end
      else begin
        let children = ref [] in
        if q = 2 then
          with_open rg sg u ~hole:(Array.length u) (fun derive ->
              for i = 0 to n - 1 do
                children := derived ctx rows ~n (derive i) :: !children
              done)
        else
          for i = 0 to n - 1 do
            children :=
              compute ctx rg rows ~q:(q - 1)
                (Graph.Tuple.append u [| range_vertex rg i |])
              :: !children
          done;
        capped ctx.cap (runs (List.sort Int.compare !children))
      end
    in
    intern (sg, shape) q
  end

(* A rank-0 type needs no range, so [range] is only built from rank 1 *)
let compute_root ctx range rows ~q u =
  if q = 0 then begin
    note_row ctx rows;
    leaf ~cap:ctx.cap (atomic_signature ctx.g u)
  end
  else compute ctx (range ()) rows ~q u

let whole_of ctx () = whole (Lazy.force ctx.kernel)

let tp ctx ~q u =
  if q < 0 then invalid_arg "Types.tp: negative quantifier rank";
  compute_root ctx (whole_of ctx) ctx.rows ~q u

let tp_graph g ~q u = tp (make_ctx g) ~q u

module Tuple_tbl = Hashtbl.Make (Graph.Tuple)

(* The roots of one candidate are memoised for that candidate only: a
   sweep opens each candidate once.  At q = 1 the roots v·w̄ of
   examples of arity 1 are the rank-1 nodes that put v at position 0 of
   w̄: [with_open]'s hole at the front. *)
let with_candidate ctx ~q w f =
  let seen = Tuple_tbl.create 16 in
  let memo root v =
    match Tuple_tbl.find_opt seen v with
    | Some t -> Obs.Metric.incr tp_hits; t
    | None -> let t = root v in Tuple_tbl.add seen v t; t
  in
  let plain v = tp ctx ~q (Graph.Tuple.append v w) in
  if q <> 1 then f (memo plain)
  else begin
    let rg = whole_of ctx () in
    with_open rg (atomic_signature ctx.g w) w ~hole:0 (fun derive ->
        f
          (memo (fun v ->
               if Array.length v <> 1 || v.(0) < 0 || v.(0) >= rg.size then
                 plain v
               else derived ctx ctx.rows ~n:rg.size (derive v.(0)))))
  end

(* On the host graph, with the quantifiers ranging over the ball in
   ascending order: the induced graph's own numbering, so the type and
   the work are those of [tp] on [N_r(ū)].  Its rows count from 0, as
   in a context of its own. *)
let ltp_in memo ctx ~q ~r u =
  if r < 0 then invalid_arg "Types.ltp: negative radius";
  if q < 0 then invalid_arg "Types.ltp: negative quantifier rank";
  if Obs.Sink.enabled () then Obs.Metric.observe ltp_radius_h (float_of_int r);
  match Hashtbl.find_opt memo (q, r, u) with
  | Some t ->
      Obs.Metric.incr ltp_hits;
      t
  | None ->
      Obs.Metric.incr ltp_misses;
      Guard.tick ctx.budget Guard.Hintikka_build;
      let ball = Array.of_list (Bfs.ball_tuple ?budget:ctx.budget ctx.g ~r u) in
      let range () = over_ball (Lazy.force ctx.kernel) ball in
      let t = compute_root ctx range (ref 0) ~q u in
      Hashtbl.replace memo (q, r, u) t;
      t

let ltp ctx = ltp_in ctx.ltp_memo ctx

(* ------------------------------------------------------------------ *)
(* Far pairs by composition                                            *)
(* ------------------------------------------------------------------ *)

(* When dist(v̄, w̄) > 2r+1 the balls N_r(v̄) and N_r(w̄) are disjoint and
   no edge joins them, so N_r(v̄·w̄) is their disjoint union and the type
   of v̄·w̄ over it is a function of the types of its parts (Feferman-
   Vaught).  A layout deals the positions of a tuple between the parts:
   bit i set when position i is the next entry of the second part. *)

(* distinct ids sorted, with the counts of equal ids summed *)
let summed kids =
  List.fold_right
    (fun (t, c) acc ->
      match acc with
      | (t', c') :: rest when t' = t -> (t, c + c') :: rest
      | _ -> (t, c) :: acc)
    (by_id kids) []

(* The signature of the tuple that [layout] deals from two tuples far
   apart: each part's equalities and edges at its positions, none
   between the parts, in [atomic_signature]'s order (by the larger
   position, then the smaller) *)
let merged_signature layout sa sb =
  let k = sa.sig_arity + sb.sig_arity in
  let pa = Array.make sa.sig_arity 0 and pb = Array.make sb.sig_arity 0 in
  let cols = Array.make k [] and na = ref 0 and nb = ref 0 in
  for i = 0 to k - 1 do
    if layout land (1 lsl i) = 0 then begin
      pa.(!na) <- i;
      cols.(i) <- sa.cols.(!na);
      incr na
    end
    else begin
      pb.(!nb) <- i;
      cols.(i) <- sb.cols.(!nb);
      incr nb
    end
  done;
  let pairs la lb =
    let at p = List.map (fun (i, j) -> (p.(i), p.(j))) in
    List.sort
      (fun (i, j) (i', j') ->
        match Int.compare j j' with 0 -> Int.compare i i' | c -> c)
      (at pa la @ at pb lb)
  in
  { sig_arity = k; eqs = pairs sa.eqs sb.eqs; edgs = pairs sa.edgs sb.edgs;
    cols }

(* [tp_{q-1}] of a tuple from its [tp_q], q >= 1: the same signature, and
   each child one rank lower, counts summed and capped again *)
let rec truncate ctx t =
  match Int_tbl.find ctx.truncated t with
  | t' -> t'
  | exception Not_found ->
      let sg = fst (Reg.key t) in
      let t' =
        match counted t with
        | cap, Some kids when rank t >= 2 ->
            let kids = List.map (fun (x, c) -> (truncate ctx x, c)) kids in
            intern (sg, capped cap (summed kids)) (rank t - 1)
        | cap, _ -> leaf ~cap sg
      in
      Int_tbl.add ctx.truncated t t';
      t'

(* The type of the tuple [layout] deals from a and b, both of one rank.
   A child of the union extends it by a vertex of one part: a child of
   that part's type, with the other part's type one rank lower. *)
let rec compose ctx a b layout =
  let key = (a, b, layout) in
  match Triple_tbl.find ctx.composed key with
  | t -> t
  | exception Not_found ->
      let sg = merged_signature layout (fst (Reg.key a)) (fst (Reg.key b)) in
      let t =
        match (counted a, counted b) with
        | (cap, Some ka), (_, Some kb) ->
            let ta = truncate ctx a and tb = truncate ctx b in
            let second = layout lor (1 lsl sg.sig_arity) in
            let kids =
              List.map (fun (x, c) -> (compose ctx x tb layout, c)) ka
              @ List.map (fun (y, c) -> (compose ctx ta y second, c)) kb
            in
            intern (sg, capped cap (summed kids)) (rank a)
        | (cap, _), _ -> leaf ~cap sg
      in
      Triple_tbl.add ctx.composed key t;
      t

type examples = {
  eq : int;
  er : int;
  ecap : int;
  typed : (ty * Graph.vertex array) Tuple_tbl.t;
      (* tuple -> its local type and its (2r+1)-ball, sorted ([||] when
         built without the balls) *)
}

let local_examples ctx ~q ~r ?(far = true) tuples =
  let typed = Tuple_tbl.create 64 in
  List.iter
    (fun v ->
      if not (Tuple_tbl.mem typed v) then begin
        let t = ltp ctx ~q ~r v in
        let ball =
          if far then
            Array.of_list
              (Bfs.ball_tuple ?budget:ctx.budget ctx.g ~r:((2 * r) + 1) v)
          else [||]
        in
        Tuple_tbl.add typed v (t, ball)
      end)
    tuples;
  { eq = q; er = r; ecap = ctx.cap; typed }

(* some entry of [xs] from [i] on is in the ascending array [a] *)
let rec meets a xs i =
  i < Array.length xs
  && begin
       let v = xs.(i) and lo = ref 0 and hi = ref (Array.length a) in
       while !lo < !hi do
         let mid = (!lo + !hi) lsr 1 in
         if a.(mid) < v then lo := mid + 1 else hi := mid
       done;
       (!lo < Array.length a && a.(!lo) = v) || meets a xs (i + 1)
     end

(* A far pair composes its parts: the example's type from [examples] (or
   [ltp]), the candidate's computed once per context.  The far test
   looks the candidate's entries up in the example's (2r+1)-ball, or an
   example's entries up in the candidate's, built on the first example
   [examples] does not hold. *)
let with_local_candidate ctx ?examples ~q ~r w f =
  let typed =
    match examples with
    | Some e when e.eq <> q || e.er <> r || e.ecap <> ctx.cap ->
        invalid_arg
          "Types.with_local_candidate: examples of another q, r or cap"
    | Some e -> e.typed
    | None -> Tuple_tbl.create 1
  in
  if Array.length w = 0 then
    f (fun v ->
        match Tuple_tbl.find typed v with
        | t, _ -> t
        | exception Not_found -> ltp ctx ~q ~r v)
  else begin
    let tw = lazy (ltp_in ctx.candidates ctx ~q ~r w) in
    let around_w =
      lazy
        (Array.of_list
           (Bfs.ball_tuple ?budget:ctx.budget ctx.g ~r:((2 * r) + 1) w))
    in
    (* the layout is a function of tv's arity: memoised by tv alone *)
    let by_type = Int_tbl.create 16 in
    let composed tv =
      Obs.Metric.incr ltp_composed;
      match Int_tbl.find by_type tv with
      | t -> t
      | exception Not_found ->
          let t =
            compose ctx tv (Lazy.force tw)
              (((1 lsl Array.length w) - 1) lsl arity tv)
          in
          Int_tbl.add by_type tv t;
          t
    in
    f (fun v ->
        match Tuple_tbl.find typed v with
        | tv, ball ->
            if Array.length ball > 0 && not (meets ball w 0) then composed tv
            else ltp ctx ~q ~r (Graph.Tuple.append v w)
        | exception Not_found ->
            if Array.length v > 0 && not (meets (Lazy.force around_w) v 0)
            then composed (ltp ctx ~q ~r v)
            else ltp ctx ~q ~r (Graph.Tuple.append v w))
  end

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
