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
  memo : (int * int * Graph.Tuple.t, ty) Hashtbl.t;
  lmemo : (int * int * int * Graph.Tuple.t, ty) Hashtbl.t;
}

let make_ctx g = { g; memo = Hashtbl.create 256; lmemo = Hashtbl.create 256 }

let rec ctp ctx ~q ~tmax u =
  if q < 0 then invalid_arg "Ctypes.ctp: negative quantifier rank";
  if tmax < 1 then invalid_arg "Ctypes.ctp: threshold cap must be >= 1";
  match Hashtbl.find_opt ctx.memo (q, tmax, u) with
  | Some t -> t
  | None ->
      let sg = Types.atomic_signature ctx.g u in
      let t =
        if q = 0 then intern (sg, None) 0
        else begin
          let counts : (ty, int) Hashtbl.t = Hashtbl.create 16 in
          for w = 0 to Graph.order ctx.g - 1 do
            let child = ctp ctx ~q:(q - 1) ~tmax (Graph.Tuple.append u [| w |]) in
            let c = Option.value (Hashtbl.find_opt counts child) ~default:0 in
            Hashtbl.replace counts child (min tmax (c + 1))
          done;
          let children =
            Hashtbl.fold (fun child c acc -> (child, c) :: acc) counts []
            |> List.sort (fun (a, ca) (b, cb) ->
                   match Int.compare a b with 0 -> Int.compare ca cb | c -> c)
          in
          intern (sg, Some children) q
        end
      in
      Hashtbl.replace ctx.memo (q, tmax, u) t;
      t

let cltp ctx ~q ~tmax ~r u =
  if r < 0 then invalid_arg "Ctypes.cltp: negative radius";
  match Hashtbl.find_opt ctx.lmemo (q, tmax, r, u) with
  | Some t -> t
  | None ->
      let emb = Ops.neighborhood ctx.g ~r u in
      let u' =
        Array.map
          (fun v ->
            match emb.Ops.to_sub v with Some v' -> v' | None -> assert false)
          u
      in
      let t = ctp (make_ctx emb.Ops.graph) ~q ~tmax u' in
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

let hintikka ~colors ~tmax theta =
  let atomic_formula sg vars =
    (* reuse the plain-type atomic rendering through a throwaway plain
       intern?  No — rebuild it here from the signature directly. *)
    let var = Array.of_list vars in
    let k = sg.Types.sig_arity in
    let conjuncts = ref [] in
    let push f = conjuncts := f :: !conjuncts in
    for i = 0 to k - 1 do
      for j = i + 1 to k - 1 do
        let e = Fo.Formula.eq var.(i) var.(j) in
        push (if List.mem (i, j) sg.Types.eqs then e else Fo.Formula.not_ e);
        let a = Fo.Formula.edge var.(i) var.(j) in
        push (if List.mem (i, j) sg.Types.edgs then a else Fo.Formula.not_ a)
      done
    done;
    for i = 0 to k - 1 do
      let held = sg.Types.cols.(i) in
      List.iter
        (fun c ->
          if not (List.mem c colors) then
            invalid_arg
              (Printf.sprintf "Ctypes.hintikka: colour %S not in vocabulary" c))
        held;
      List.iter
        (fun c ->
          let a = Fo.Formula.color c var.(i) in
          push (if List.mem c held then a else Fo.Formula.not_ a))
        colors
    done;
    Fo.Formula.and_ (List.rev !conjuncts)
  in
  let rec go theta vars =
    let sg, children = node theta in
    let atomic = atomic_formula sg vars in
    match children with
    | None -> atomic
    | Some kids ->
        let y = Printf.sprintf "x%d" (List.length vars + 1) in
        let vars' = vars @ [ y ] in
        let multiplicities =
          List.concat_map
            (fun (kid, c) ->
              let lower = Fo.Formula.count_ge c y (go kid vars') in
              if c < tmax then
                [
                  lower;
                  Fo.Formula.not_ (Fo.Formula.count_ge (c + 1) y (go kid vars'));
                ]
              else [ lower ])
            kids
        in
        let exhausted =
          Fo.Formula.forall y
            (Fo.Formula.or_ (List.map (fun (kid, _) -> go kid vars') kids))
        in
        Fo.Formula.and_ ((atomic :: multiplicities) @ [ exhausted ])
  in
  go theta (Hintikka.variables (arity theta))
