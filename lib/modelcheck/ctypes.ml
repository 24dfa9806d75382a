open Cgraph

type ty = int

let equal (a : ty) (b : ty) = a = b
let compare (a : ty) (b : ty) = Int.compare a b
let hash (a : ty) = a
let pp ppf (a : ty) = Format.fprintf ppf "c#%d" a

(* ------------------------------------------------------------------ *)
(* Registry (separate from the plain-type registry; sharded, see       *)
(* Intern)                                                             *)
(* ------------------------------------------------------------------ *)

let dummy_sig : Types.atomsig =
  { Types.sig_arity = 0; eqs = []; edgs = []; cols = [||] }

module Reg = Intern.Make (struct
  type key = Types.atomsig * (ty * int) list option

  let dummy = (dummy_sig, None)

  let hash (sg, children) =
    let h = Types.hash_atomsig 0 sg in
    match children with
    | None -> h
    | Some l ->
        List.fold_left
          (fun h (t, c) -> Intern.mix (Intern.mix h t) c)
          (Intern.mix h (-1))
          l

  let prefix = "modelcheck.ctypes"
end)

let intern = Reg.intern
let rank = Reg.rank

let arity (t : ty) =
  let sg, _ = Reg.key t in
  sg.Types.sig_arity

let node (t : ty) = Reg.key t

type table_stats = Reg.stats = { live : int; bytes : int }

let table_stats = Reg.stats
let reset_tables = Reg.reset

(* ------------------------------------------------------------------ *)
(* Computation                                                         *)
(* ------------------------------------------------------------------ *)

type ctx = {
  g : Graph.t;
  budget : Guard.Budget.t option;  (* charged by [cltp]'s balls *)
  roots : (int * int * Graph.Tuple.t, ty) Hashtbl.t;  (* as in Types *)
  lmemo : (int * int * int * Graph.Tuple.t, ty) Hashtbl.t;
  leaves : Types.leaves Lazy.t;  (* shared by [ctp] and every [cltp] miss *)
}

let make_ctx ?budget g =
  {
    g;
    budget;
    roots = Hashtbl.create 256;
    lmemo = Hashtbl.create 256;
    leaves = lazy (Types.leaves g);
  }

let leaf sg = intern (sg, None) 0

(* as [Types.compute]: the quantifiers range over [rg] *)
let rec compute ctx rg ~q ~tmax u =
  let sg = Types.atomic_signature ctx.g u in
  if q = 0 then leaf sg
  else begin
    let n = Types.range_size rg in
    let children =
      if q = 1 then
        Types.extend rg leaf sg u (fun child ->
            for i = 0 to n - 1 do
              ignore (child i)
            done)
        |> List.map (fun (t, c) -> (t, min tmax c))
      else begin
        let counts : (ty, int) Hashtbl.t = Hashtbl.create 16 in
        for i = 0 to n - 1 do
          let w = Types.range_vertex rg i in
          let child =
            compute ctx rg ~q:(q - 1) ~tmax (Graph.Tuple.append u [| w |])
          in
          let c = Option.value (Hashtbl.find_opt counts child) ~default:0 in
          Hashtbl.replace counts child (min tmax (c + 1))
        done;
        Hashtbl.fold (fun child c acc -> (child, c) :: acc) counts []
        |> List.sort (fun (a, _) (b, _) -> Int.compare a b)
      end
    in
    intern (sg, Some children) q
  end

(* as [Types.compute_root]: no range for a rank-0 type *)
let compute_root ctx range ~q ~tmax u =
  if q = 0 then leaf (Types.atomic_signature ctx.g u)
  else compute ctx (range ()) ~q ~tmax u

let check_args ~q ~tmax =
  if q < 0 then invalid_arg "Ctypes.ctp: negative quantifier rank";
  if tmax < 1 then invalid_arg "Ctypes.ctp: threshold cap must be >= 1"

let ctp ctx ~q ~tmax u =
  check_args ~q ~tmax;
  match Hashtbl.find_opt ctx.roots (q, tmax, u) with
  | Some t -> t
  | None ->
      let range () = Types.whole (Lazy.force ctx.leaves) in
      let t = compute_root ctx range ~q ~tmax u in
      Hashtbl.replace ctx.roots (q, tmax, u) t;
      t

(* as [Types.ltp]: on the host graph over the ascending ball *)
let cltp ctx ~q ~tmax ~r u =
  if r < 0 then invalid_arg "Ctypes.cltp: negative radius";
  check_args ~q ~tmax;
  match Hashtbl.find_opt ctx.lmemo (q, tmax, r, u) with
  | Some t -> t
  | None ->
      let ball = Array.of_list (Bfs.ball_tuple ?budget:ctx.budget ctx.g ~r u) in
      let range () = Types.over_ball (Lazy.force ctx.leaves) ball in
      let t = compute_root ctx range ~q ~tmax u in
      Hashtbl.replace ctx.lmemo (q, tmax, r, u) t;
      t

let partition ctx ~q ~tmax tuples =
  let tbl : (ty, Graph.Tuple.t list ref) Hashtbl.t = Hashtbl.create 64 in
  let order = ref [] in
  List.iter
    (fun u ->
      let t = ctp ctx ~q ~tmax u in
      match Hashtbl.find_opt tbl t with
      | Some cell -> cell := u :: !cell
      | None ->
          Hashtbl.replace tbl t (ref [ u ]);
          order := t :: !order)
    tuples;
  List.rev_map (fun t -> (t, List.rev !(Hashtbl.find tbl t))) !order

let count_types g ~q ~tmax ~k =
  let ctx = make_ctx g in
  partition ctx ~q ~tmax (Graph.Tuple.all ~n:(Graph.order g) ~k) |> List.length

(* ------------------------------------------------------------------ *)
(* Counting Hintikka formulas                                          *)
(* ------------------------------------------------------------------ *)

(* As [Hintikka.of_types]: one build makes each node's formula once.  A
   child below [c < tmax] appears three times (at least [c], not at
   least [c + 1], and in the [forall] disjunction); all three share it. *)
let builder ~colors ~tmax names =
  let var = Hintikka.namer (Option.value names ~default:[]) in
  let memo : (ty, Fo.Formula.t) Hashtbl.t = Hashtbl.create 64 in
  let rec go theta =
    match Hashtbl.find_opt memo theta with
    | Some f -> f
    | None ->
        let sg, children = node theta in
        let atomic = Hintikka.atomic_formula ~colors sg var in
        let f =
          match children with
          | None -> atomic
          | Some kids ->
              let y = var sg.Types.sig_arity in
              let multiplicities =
                List.concat_map
                  (fun (kid, c) ->
                    let body = go kid in
                    let lower = Fo.Formula.count_ge c y body in
                    if c < tmax then
                      [
                        lower;
                        Fo.Formula.not_ (Fo.Formula.count_ge (c + 1) y body);
                      ]
                    else [ lower ])
                  kids
              in
              let exhausted =
                Fo.Formula.forall y
                  (Fo.Formula.or_ (List.map (fun (kid, _) -> go kid) kids))
              in
              Fo.Formula.and_ ((atomic :: multiplicities) @ [ exhausted ])
        in
        Hashtbl.replace memo theta f;
        f
  in
  fun theta ->
    (match names with
    | Some vs when List.length vs <> arity theta ->
        invalid_arg "Ctypes.hintikka: variable/arity mismatch"
    | _ -> ());
    go theta

let hintikka ~colors ~tmax theta = builder ~colors ~tmax None theta

let hintikka_of_types ?vars ~colors ~tmax thetas =
  let build = builder ~colors ~tmax vars in
  Fo.Formula.or_ (List.map build thetas)
