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
(* Contexts and type computation                                       *)
(* ------------------------------------------------------------------ *)

let tp_hits = Obs.Metric.counter "modelcheck.types.tp_hits"
let tp_misses = Obs.Metric.counter "modelcheck.types.tp_misses"
let ltp_hits = Obs.Metric.counter "modelcheck.types.ltp_hits"
let ltp_misses = Obs.Metric.counter "modelcheck.types.ltp_misses"
let ltp_radius_h = Obs.Metric.histogram "modelcheck.types.ltp_radius"

type ctx = {
  g : Graph.t;
  tp_memo : (int * Graph.Tuple.t, ty) Hashtbl.t;
  ltp_memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
}

let make_ctx g = { g; tp_memo = Hashtbl.create 256; ltp_memo = Hashtbl.create 256 }

let graph ctx = ctx.g

let rec tp ctx ~q u =
  if q < 0 then invalid_arg "Types.tp: negative quantifier rank";
  match Hashtbl.find_opt ctx.tp_memo (q, u) with
  | Some t ->
      Obs.Metric.incr tp_hits;
      t
  | None ->
      Obs.Metric.incr tp_misses;
      (* Every memo miss is a fresh table row: the natural unit for
         the guard's Hintikka-table budget. *)
      Guard.note_table_row (Hashtbl.length ctx.tp_memo + 1);
      let sg = atomic_signature ctx.g u in
      let t =
        if q = 0 then intern (sg, None) 0
        else begin
          let n = Graph.order ctx.g in
          let children = ref [] in
          for w = 0 to n - 1 do
            let child = tp ctx ~q:(q - 1) (Graph.Tuple.append u [| w |]) in
            children := child :: !children
          done;
          let children = List.sort_uniq Int.compare !children in
          intern (sg, Some children) q
        end
      in
      Hashtbl.replace ctx.tp_memo (q, u) t;
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
      Guard.tick Guard.Hintikka_build;
      let emb = Ops.neighborhood ctx.g ~r u in
      let u' =
        Array.map
          (fun v ->
            match emb.Ops.to_sub v with
            | Some v' -> v'
            | None -> assert false (* members of ū are in their own ball *))
          u
      in
      let t = tp (make_ctx emb.Ops.graph) ~q u' in
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
