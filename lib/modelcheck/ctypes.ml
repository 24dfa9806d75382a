open Cgraph

type ty = Types.ty

let equal = Types.equal
let compare = Types.compare
let rank = Types.rank
let arity = Types.arity

type ctx = {
  g : Graph.t;
  budget : Guard.Budget.t option;
  by_cap : (int, Types.ctx) Hashtbl.t;
}

let make_ctx ?budget g = { g; budget; by_cap = Hashtbl.create 2 }

let at ctx tmax =
  match Hashtbl.find_opt ctx.by_cap tmax with
  | Some c -> c
  | None ->
      let c = Types.make_ctx ?budget:ctx.budget ~cap:tmax ctx.g in
      Hashtbl.replace ctx.by_cap tmax c;
      c

let ctp ctx ~q ~tmax u = Types.tp (at ctx tmax) ~q u
let cltp ctx ~q ~tmax ~r u = Types.ltp (at ctx tmax) ~q ~r u
let count_types g ~q ~tmax ~k = Types.count_types ~cap:tmax g ~q ~k
let node t = (fst (Types.node t), snd (Types.counted t))

(* At cap 1 the one builder spells a child's quantifier [exists]; this
   module's FOC formulas always spelled it [atleast 1] *)
let rec atleast_one : Fo.Formula.t -> Fo.Formula.t = function
  | Exists (y, f) -> CountGe (1, y, atleast_one f)
  | Forall (y, f) -> Forall (y, atleast_one f)
  | And fs -> And (List.map atleast_one fs)
  | Or fs -> Or (List.map atleast_one fs)
  | f -> f

let spelled ~tmax f = if tmax = 1 then atleast_one f else f
let hintikka ~colors ~tmax t = spelled ~tmax (Hintikka.of_type ~colors t)

let hintikka_of_types ?vars ~colors ~tmax ts =
  spelled ~tmax (Hintikka.of_types ?vars ~colors ts)

type table_stats = Types.table_stats = { live : int; bytes : int }

let table_stats () = { live = 0; bytes = 0 }
let reset_tables = Types.reset_tables
