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

(* children sorted & deduplicated; None = rank 0 *)
module Reg = Intern.Make (struct
  type key = atomsig * ty list option

  let dummy = ({ sig_arity = 0; eqs = []; edgs = []; cols = [||] }, None)

  let hash (sg, children) =
    let h = hash_atomsig 0 sg in
    match children with
    | None -> h
    | Some l -> List.fold_left Intern.mix (Intern.mix h (-1)) l

  let prefix = "modelcheck.types"
end)

let intern = Reg.intern
let rank = Reg.rank

let arity (t : ty) =
  let sg, _ = Reg.key t in
  sg.sig_arity

let node (t : ty) = Reg.key t

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

(* a child of every parent with one signature: its id, and how many w
   reached it under the parent numbered [stamp] *)
type child = { id : int; mutable count : int; mutable stamp : int }

type leaves = {
  lg : Graph.t;
  colour_class : int array;  (* vertex -> id of its colour set *)
  class_bits : int;  (* bits a class id needs *)
  bits : int array;
      (* while a parent ū of arity k is open: bit i if u_i = w, bit
         k + i if E(u_i, w); zero otherwise *)
  children : child Int_tbl.t Sig_tbl.t;  (* parent signature -> key -> child *)
  mutable parents : int;  (* parents opened so far *)
}

let leaves g =
  let classes = Hashtbl.create 8 in
  let colour_class =
    Array.init (Graph.order g) (fun v ->
        let cs = Graph.colors_of g v in
        match Hashtbl.find_opt classes cs with
        | Some i -> i
        | None ->
            let i = Hashtbl.length classes in
            Hashtbl.add classes cs i;
            i)
  in
  let rec width b =
    if 1 lsl b >= Hashtbl.length classes then b else width (b + 1)
  in
  {
    lg = g;
    colour_class;
    class_bits = width 0;
    bits = Array.make (Graph.order g) 0;
    children = Sig_tbl.create 16;
    parents = 0;
  }

(* The signature of ū·w is fixed by ū's signature, which u_i equal w,
   which u_i are adjacent to w, and w's colours: the key.  So [mk] runs
   once per parent signature and key, on the first w that has them. *)
let extend lv mk sg u visit =
  let g = lv.lg and k = Array.length u in
  if 2 * k + lv.class_bits >= Sys.int_size then
    invalid_arg "Types.extend: tuple too long";
  let by_key =
    match Sig_tbl.find lv.children sg with
    | t -> t
    | exception Not_found ->
        let t = Int_tbl.create 8 in
        Sig_tbl.add lv.children sg t;
        t
  in
  lv.parents <- lv.parents + 1;
  let stamp = lv.parents and reached = ref [] in
  let child w =
    let key = lv.bits.(w) lor (lv.colour_class.(w) lsl (2 * k)) in
    let c =
      match Int_tbl.find by_key key with
      | c -> c
      | exception Not_found ->
          let id = mk (atomic_signature g (Graph.Tuple.append u [| w |])) in
          let c = { id; count = 0; stamp = 0 } in
          Int_tbl.add by_key key c;
          c
    in
    if c.stamp <> stamp then begin
      c.stamp <- stamp;
      c.count <- 0;
      reached := c :: !reached
    end;
    c.count <- c.count + 1;
    c.id
  in
  let mark v bit = lv.bits.(v) <- lv.bits.(v) lor bit in
  Array.iteri
    (fun i v ->
      mark v (1 lsl i);
      Graph.iter_neighbors g v (fun w -> mark w (1 lsl (k + i))))
    u;
  let unmark () =
    Array.iter
      (fun v ->
        lv.bits.(v) <- 0;
        Graph.iter_neighbors g v (fun w -> lv.bits.(w) <- 0))
      u
  in
  (match visit child with () -> unmark () | exception e -> unmark (); raise e);
  List.sort (fun (a, _) (b, _) -> Int.compare a b)
    (List.rev_map (fun c -> (c.id, c.count)) !reached)

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
  roots : (int * Graph.Tuple.t, ty) Hashtbl.t;
      (* [tp]'s own calls: a sample drawn with replacement repeats
         tuples; the nodes below a root are reached from it alone *)
  ltp_memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
  leaves : leaves Lazy.t;
  mutable rows : int;  (* nodes computed so far: the table's rows *)
}

let make_ctx ?budget g =
  {
    g;
    budget;
    roots = Hashtbl.create 256;
    ltp_memo = Hashtbl.create 256;
    leaves = lazy (leaves g);
    rows = 0;
  }

let graph ctx = ctx.g

(* Every computed node is a table row: the unit of the guard's
   Hintikka-table budget.  Counted before the node's children, so a
   row whose children are still being computed counts too. *)
let note_row ctx =
  Obs.Metric.incr tp_misses;
  ctx.rows <- ctx.rows + 1;
  Guard.note_table_row ctx.budget ctx.rows

let leaf sg = intern (sg, None) 0

let rec compute ctx ~q u =
  note_row ctx;
  let sg = atomic_signature ctx.g u in
  if q = 0 then leaf sg
  else begin
    let n = Graph.order ctx.g in
    let children =
      if q = 1 then
        extend (Lazy.force ctx.leaves) leaf sg u (fun child ->
            for w = 0 to n - 1 do
              note_row ctx;
              ignore (child w)
            done)
        |> List.map fst
      else begin
        let children = ref [] in
        for w = 0 to n - 1 do
          let child = compute ctx ~q:(q - 1) (Graph.Tuple.append u [| w |]) in
          children := child :: !children
        done;
        List.sort_uniq Int.compare !children
      end
    in
    intern (sg, Some children) q
  end

let tp ctx ~q u =
  if q < 0 then invalid_arg "Types.tp: negative quantifier rank";
  match Hashtbl.find_opt ctx.roots (q, u) with
  | Some t ->
      Obs.Metric.incr tp_hits;
      t
  | None ->
      let t = compute ctx ~q u in
      Hashtbl.replace ctx.roots (q, u) t;
      t

let tp_graph g ~q u = tp (make_ctx g) ~q u

let ltp ctx ~q ~r u =
  if r < 0 then invalid_arg "Types.ltp: negative radius";
  if Obs.Sink.enabled () then Obs.Metric.observe ltp_radius_h (float_of_int r);
  match Hashtbl.find_opt ctx.ltp_memo (q, r, u) with
  | Some t ->
      Obs.Metric.incr ltp_hits;
      t
  | None ->
      Obs.Metric.incr ltp_misses;
      Guard.tick ctx.budget Guard.Hintikka_build;
      let emb = Ops.neighborhood ?budget:ctx.budget ctx.g ~r u in
      let u' =
        Array.map
          (fun v ->
            match emb.Ops.to_sub v with
            | Some v' -> v'
            | None -> assert false (* members of ū are in their own ball *))
          u
      in
      let t = tp (make_ctx ?budget:ctx.budget emb.Ops.graph) ~q u' in
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

let count_types g ~q ~k =
  let ctx = make_ctx g in
  partition_by_tp ctx ~q (Graph.Tuple.all ~n:(Graph.order g) ~k) |> List.length
