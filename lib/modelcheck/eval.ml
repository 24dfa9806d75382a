open Cgraph

type env = (Fo.Formula.var * Graph.vertex) list

exception Unbound_variable = Compile.Unbound_variable

module VMap = Map.Make (String)

(* "calls" counts top-level evaluations (one per tuple checked);
   "quantifier_nodes" counts quantifier visits inside the recursion.
   Boolean/atom nodes are deliberately NOT counted: they are a handful
   of machine instructions each, and even a branch-on-atomic there shows
   up in the disabled-overhead budget.

   Quantifier visits are batched in a plain local ref and flushed to
   the sharded sink once per entry point: on a dense formula the
   recursion visits a quantifier node every ~100 ns, and even the
   sharded record path (atomic load + DLS get + array store) is visible
   at that rate — E19's sink ratio is the gate.  Guard.tick stays
   per-node: fuel accounting is load-bearing for the focost envelopes
   and must not coarsen.  The flush is exception-safe because a tick
   can unwind to the enclosing Guard.run mid-recursion, and counter
   totals must come out identical either way.

   [eval_n] below is the reference walker: it remains the semantics
   oracle (the QCheck suite pins compiled ≡ reference) and the engine
   of the generic assoc-list [holds] entry point.  The per-tuple entry
   points — [holds_tuple], [sentence], [answers], [count_answers] —
   route through {!Compile}, which evaluates the same recursion over a
   flat int slot array with identical tick and counter behaviour. *)
let eval_calls = Obs.Metric.counter "modelcheck.eval.calls"

let lookup env x =
  match VMap.find_opt x env with
  | Some v -> v
  | None -> raise (Unbound_variable x)

let rec eval_n g nodes env (f : Fo.Formula.t) =
  match f with
  | True -> true
  | False -> false
  | Atom (Eq (x, y)) -> lookup env x = lookup env y
  | Atom (Edge (x, y)) -> Graph.mem_edge g (lookup env x) (lookup env y)
  | Atom (Color (c, x)) -> Graph.has_color g c (lookup env x)
  | Not f -> not (eval_n g nodes env f)
  | And fs -> List.for_all (eval_n g nodes env) fs
  | Or fs -> List.exists (eval_n g nodes env) fs
  | Implies (a, b) -> (not (eval_n g nodes env a)) || eval_n g nodes env b
  | Iff (a, b) -> eval_n g nodes env a = eval_n g nodes env b
  | Exists (x, body) ->
      Compile.visit nodes;
      let n = Graph.order g in
      let rec try_from v =
        v < n && (eval_n g nodes (VMap.add x v env) body || try_from (v + 1))
      in
      try_from 0
  | Forall (x, body) ->
      Compile.visit nodes;
      let n = Graph.order g in
      let rec all_from v =
        v >= n || (eval_n g nodes (VMap.add x v env) body && all_from (v + 1))
      in
      all_from 0
  | CountGe (t, x, body) ->
      Compile.visit nodes;
      let n = Graph.order g in
      let rec count_from v found =
        found >= t
        || (v < n
           && count_from (v + 1)
                (if eval_n g nodes (VMap.add x v env) body then found + 1
                 else found))
      in
      count_from 0 0

let eval g nodes env f =
  match eval_n g nodes env f with
  | r -> Compile.flush nodes; r
  | exception e -> Compile.flush nodes; raise e

let holds ?budget g env f =
  Obs.Metric.incr eval_calls;
  (* A duplicate variable would silently resolve to the last binding
     (map semantics), the opposite of the assoc-list semantics callers
     expect — reject it instead of guessing. *)
  let env =
    List.fold_left
      (fun m (x, v) ->
        if VMap.mem x m then
          invalid_arg ("Eval.holds: duplicate binding for variable " ^ x)
        else VMap.add x v m)
      VMap.empty env
  in
  eval g (Compile.counter ?budget ()) env f

let sentence ?budget g f =
  Compile.holds_tuple ?budget (Compile.cached g ~vars:[] f) [||]

let holds_tuple ?budget g ~vars t f =
  if List.length vars <> Array.length t then
    invalid_arg "Eval.holds_tuple: variable/tuple length mismatch";
  Compile.holds_tuple ?budget (Compile.cached g ~vars f) t

(* One enumerator streams the n^k assignments iteratively (same
   lexicographic order as [Graph.Tuple.all]) into the compiled code's
   slot array and hands each satisfying one to [yield]: live memory is
   O(slots + answers), not O(n^k), there is no environment-map churn,
   and a Guard checkpoint inside the compiled quantifier nodes can stop
   the sweep early. *)
let iter_answers ?budget g ~vars f yield =
  let n = Graph.order g in
  let comp = Compile.compile_shadow g ~vars f in
  let k = List.length vars in
  let env = Array.make (max (Compile.slots comp) 1) 0 in
  let calls = ref 0 in
  let nodes = Compile.counter ?budget () in
  let rec go i =
    if i = k then begin
      incr calls;
      if Compile.run comp env nodes then yield env
    end
    else
      for v = 0 to n - 1 do
        env.(i) <- v;
        go (i + 1)
      done
  in
  let flush () =
    Obs.Metric.add eval_calls !calls;
    Compile.flush nodes
  in
  match go 0 with
  | () -> flush ()
  | exception e -> flush (); raise e

let answers ?budget g ~vars f =
  let k = List.length vars in
  let acc = ref [] in
  iter_answers ?budget g ~vars f (fun env -> acc := Array.sub env 0 k :: !acc);
  List.rev !acc

let count_answers ?budget g ~vars f =
  let count = ref 0 in
  iter_answers ?budget g ~vars f (fun _ -> incr count);
  !count
