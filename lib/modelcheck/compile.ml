open Cgraph

exception Unbound_variable of Fo.Formula.var

(* Compiled code: a closure tree over a flat int slot array.  [env] maps
   slot index -> vertex (free variables first, then one slot per
   quantifier nesting level); the [counter] batches quantifier-node
   visits exactly like the reference walker, so the flushed counter
   totals come out identical, and carries the budget each visit
   charges.

   The closures are pure with respect to shared state — they read the
   (immutable) graph and mutate only the caller-provided [env] — so one
   compiled formula is safely shared across domains as long as each
   caller brings its own slot array (the counted entry points below
   allocate a fresh one per call). *)
type counter = { mutable nodes : int; budget : Guard.Budget.t option }

let counter ?budget () = { nodes = 0; budget }

let[@inline] visit nd =
  nd.nodes <- nd.nodes + 1;
  Guard.tick nd.budget Guard.Eval_step

type code = int array -> counter -> bool

type t = {
  graph : Graph.t;
  vars : Fo.Formula.var list;
  k : int;
  nslots : int;
  code : code;
}

(* same registry handles as the reference walker in [Eval]: compiled and
   interpreted evaluation contribute to one series *)
let eval_calls = Obs.Metric.counter "modelcheck.eval.calls"
let quantifier_nodes = Obs.Metric.counter "modelcheck.eval.quantifier_nodes"

let compiles_c = Obs.Metric.counter "modelcheck.compile.compiles"
let cache_hits_c = Obs.Metric.counter "modelcheck.compile.cache_hits"

(* Edge guards.  [guard_slot senv x a] is the slot of [z] when [a] is
   [E(z,x)] or [E(x,z)] with [z <> x] bound in [senv]. *)
let guard_slot senv x (a : Fo.Formula.t) =
  match a with
  | Atom (Edge (u, z)) when u = x && z <> x -> List.assoc_opt z senv
  | Atom (Edge (z, u)) when u = x && z <> x -> List.assoc_opt z senv
  | _ -> None

(* The body of [exists x] or [atleast t x] guarded by its first
   conjunct, or bare [E(z,x)]: the guard's slot and the rest. *)
let conj_guard senv x (body : Fo.Formula.t) =
  match body with
  | And (a :: rest) ->
      Option.map (fun z -> (z, Fo.Formula.And rest)) (guard_slot senv x a)
  | Atom (Edge _) ->
      Option.map (fun z -> (z, Fo.Formula.True)) (guard_slot senv x body)
  | _ -> None

(* The body of [forall x] guarded as [E(z,x) -> rest]. *)
let impl_guard senv x (body : Fo.Formula.t) =
  match body with
  | Implies (a, rest) -> Option.map (fun z -> (z, rest)) (guard_slot senv x a)
  | _ -> None

(* The static environment maps a variable to its slot.  It is an assoc
   list with inner bindings in front, so quantifier shadowing — and,
   on the permissive path, a repeated free variable where the {e last}
   occurrence wins, matching the iterated-map-insert semantics of the
   reference enumerators — falls out of [List.assoc_opt]. *)
let lower g ~senv ~first_bound f =
  let n = Graph.order g in
  let max_slots = ref first_bound in
  let rec go senv depth (f : Fo.Formula.t) : code =
    match f with
    | True -> fun _ _ -> true
    | False -> fun _ _ -> false
    | Atom (Eq (x, y)) -> (
        match (List.assoc_opt x senv, List.assoc_opt y senv) with
        | Some i, Some j -> fun env _ -> env.(i) = env.(j)
        | None, _ -> fun _ _ -> raise (Unbound_variable x)
        | _, None -> fun _ _ -> raise (Unbound_variable y))
    | Atom (Edge (x, y)) -> (
        match (List.assoc_opt x senv, List.assoc_opt y senv) with
        | Some i, Some j -> fun env _ -> Graph.mem_edge g env.(i) env.(j)
        | None, _ -> fun _ _ -> raise (Unbound_variable x)
        | _, None -> fun _ _ -> raise (Unbound_variable y))
    | Atom (Color (c, x)) -> (
        match List.assoc_opt x senv with
        | Some i ->
            let test = Graph.color_test g c in
            fun env _ -> test env.(i)
        | None -> fun _ _ -> raise (Unbound_variable x))
    | Not f ->
        let c = go senv depth f in
        fun env nd -> not (c env nd)
    | And fs -> (
        let cs = Array.of_list (List.map (go senv depth) fs) in
        match Array.length cs with
        | 0 -> fun _ _ -> true
        | 1 -> cs.(0)
        | 2 ->
            let a = cs.(0) and b = cs.(1) in
            fun env nd -> a env nd && b env nd
        | len ->
            fun env nd ->
              let rec all i = i >= len || (cs.(i) env nd && all (i + 1)) in
              all 0)
    | Or fs -> (
        let cs = Array.of_list (List.map (go senv depth) fs) in
        match Array.length cs with
        | 0 -> fun _ _ -> false
        | 1 -> cs.(0)
        | 2 ->
            let a = cs.(0) and b = cs.(1) in
            fun env nd -> a env nd || b env nd
        | len ->
            fun env nd ->
              let rec any i = i < len && (cs.(i) env nd || any (i + 1)) in
              any 0)
    | Implies (a, b) ->
        let ca = go senv depth a and cb = go senv depth b in
        fun env nd -> (not (ca env nd)) || cb env nd
    | Iff (a, b) ->
        let ca = go senv depth a and cb = go senv depth b in
        fun env nd -> ca env nd = cb env nd
    (* A guarded quantifier walks the guard vertex's ascending row,
       where the scan would test the guard at every vertex in order
       (see the .mli).  The scan's first guard test raises
       [Graph.Invalid_vertex] for an out-of-range guard vertex, as
       [Graph.exists_neighbor] does; on the empty graph neither runs,
       hence the [n] tests. *)
    | Exists (x, body) -> (
        match conj_guard senv x body with
        | Some (z, rest) ->
            let s, c = bind senv depth x rest in
            fun env nd ->
              visit nd;
              n > 0
              && Graph.exists_neighbor g env.(z) (fun w ->
                     env.(s) <- w;
                     c env nd)
        | None ->
            let s, c = bind senv depth x body in
            fun env nd ->
              visit nd;
              let rec try_from v =
                v < n
                && ((env.(s) <- v;
                     c env nd)
                   || try_from (v + 1))
              in
              try_from 0)
    | Forall (x, body) -> (
        match impl_guard senv x body with
        | Some (z, rest) ->
            let s, c = bind senv depth x rest in
            fun env nd ->
              visit nd;
              n = 0
              || not
                   (Graph.exists_neighbor g env.(z) (fun w ->
                        env.(s) <- w;
                        not (c env nd)))
        | None ->
            let s, c = bind senv depth x body in
            fun env nd ->
              visit nd;
              let rec all_from v =
                v >= n
                || ((env.(s) <- v;
                     c env nd)
                   && all_from (v + 1))
              in
              all_from 0)
    | CountGe (t, x, body) -> (
        match conj_guard senv x body with
        | Some (z, rest) ->
            let s, c = bind senv depth x rest in
            fun env nd ->
              visit nd;
              t <= 0
              || n > 0
                 &&
                 let found = ref 0 in
                 Graph.exists_neighbor g env.(z) (fun w ->
                     env.(s) <- w;
                     c env nd
                     && (incr found;
                         !found >= t))
        | None ->
            let s, c = bind senv depth x body in
            fun env nd ->
              visit nd;
              let rec count_from v found =
                found >= t
                || (v < n
                   &&
                   (env.(s) <- v;
                    count_from (v + 1) (if c env nd then found + 1 else found)))
              in
              count_from 0 0)
  (* a quantifier binds [x] to the next slot and lowers its body there *)
  and bind senv depth x body =
    let s = depth in
    if s + 1 > !max_slots then max_slots := s + 1;
    (s, go ((x, s) :: senv) (depth + 1) body)
  in
  let code = go senv first_bound f in
  (code, !max_slots)

let stage ~checked g ~vars f =
  Obs.Metric.incr compiles_c;
  let k = List.length vars in
  if checked then begin
    let seen = Hashtbl.create (2 * k) in
    List.iter
      (fun x ->
        if Hashtbl.mem seen x then
          invalid_arg
            ("Modelcheck.Compile: duplicate binding for variable " ^ x)
        else Hashtbl.add seen x ())
      vars
  end;
  (* fold left with prepend: a repeated name ends up with its last
     occurrence in front, which is what the permissive path wants *)
  let senv =
    List.fold_left
      (fun (i, acc) x -> (i + 1, (x, i) :: acc))
      (0, []) vars
    |> snd
  in
  let code, nslots = lower g ~senv ~first_bound:k f in
  { graph = g; vars; k; nslots; code }

let compile g ~vars f = stage ~checked:true g ~vars f
let compile_shadow g ~vars f = stage ~checked:false g ~vars f

let graph t = t.graph
let vars t = t.vars
let arity t = t.k
let slots t = t.nslots
let run t env nodes = t.code env nodes

let flush nd =
  if nd.nodes > 0 then begin
    Obs.Metric.add quantifier_nodes nd.nodes;
    nd.nodes <- 0
  end

let holds_tuple ?budget t u =
  if Array.length u <> t.k then
    invalid_arg "Eval.holds_tuple: variable/tuple length mismatch";
  Obs.Metric.incr eval_calls;
  let env = Array.make (max t.nslots 1) 0 in
  Array.blit u 0 env 0 t.k;
  let nodes = counter ?budget () in
  match t.code env nodes with
  | r ->
      flush nodes;
      r
  | exception e ->
      flush nodes;
      raise e

(* ------------------------------------------------------------------ *)
(* Per-domain compilation cache                                        *)
(* ------------------------------------------------------------------ *)

(* Keyed on graph identity (uid), the variable list and the formula.
   Domain-local so the lookup takes no lock; bounded so a pathological
   caller cycling through formulas cannot leak closures. *)

let cache_cap = 128

type cache_key = int * Fo.Formula.var list * Fo.Formula.t

let cache : (cache_key, t) Hashtbl.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Hashtbl.create 64)

let cached g ~vars f =
  let tbl = Domain.DLS.get cache in
  let key = (Graph.uid g, vars, f) in
  match Hashtbl.find_opt tbl key with
  | Some c ->
      Obs.Metric.incr cache_hits_c;
      c
  | None ->
      let c = compile g ~vars f in
      if Hashtbl.length tbl >= cache_cap then Hashtbl.reset tbl;
      Hashtbl.add tbl key c;
      c
