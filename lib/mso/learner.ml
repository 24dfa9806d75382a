type entry = {
  name : string;
  phi : Formula.t;
  xvars : Formula.var list;
  yvars : Formula.var list;
}

type result = {
  entry : entry;
  params : int array;
  err : float;
  evaluations : int;
  states : int;
}

let scope_of entry =
  List.map (fun v -> (v, Formula.Pos)) (entry.xvars @ entry.yvars)

let check_entry entry =
  let scope = scope_of entry in
  List.iter
    (fun (v, kind) ->
      match List.assoc_opt v scope with
      | Some Formula.Pos when kind = Formula.Pos -> ()
      | _ ->
          invalid_arg
            (Printf.sprintf
               "Learner: free variable %S of %S is not an x/y position \
                variable"
               v entry.name))
    (Formula.free entry.phi)

let rec param_tuples n = function
  | 0 -> [ [||] ]
  | j ->
      List.concat_map
        (fun rest ->
          List.init n (fun p -> Array.append [| p |] rest))
        (param_tuples n (j - 1))

let erm ~n ~catalogue ~prepare examples =
  let m = List.length examples in
  let best = ref None in
  let evals = ref 0 in
  List.iter
    (fun entry ->
      check_entry entry;
      let kx = List.length entry.xvars in
      List.iter
        (fun (v, _) ->
          if Array.length v <> kx then
            invalid_arg "Learner.solve: example arity mismatch")
        examples;
      let states, holds = prepare entry in
      List.iter
        (fun params ->
          let errs =
            List.fold_left
              (fun acc (v, label) ->
                incr evals;
                if holds v params <> label then acc + 1 else acc)
              0 examples
          in
          (* keep the first of equally good hypotheses *)
          match !best with
          | Some (_, _, _, e) when e <= errs -> ()
          | _ -> best := Some (entry, params, states, errs))
        (param_tuples n (List.length entry.yvars)))
    catalogue;
  match !best with
  | None -> None
  | Some (entry, params, states, errs) ->
      Some
        {
          entry;
          params;
          err = (if m = 0 then 0.0 else float_of_int errs /. float_of_int m);
          evaluations = !evals;
          states;
        }

(* marks for an (example, params) pair: track i = i-th scope entry *)
let marks_of entry example params =
  let kx = List.length entry.xvars in
  List.mapi (fun i p -> (p, 1 lsl i)) (Array.to_list example)
  @ List.mapi (fun j p -> (p, 1 lsl (kx + j))) (Array.to_list params)

let prepare ~sigma ~word entry =
  let dfa = Formula.compile ~sigma ~scope:(scope_of entry) entry.phi in
  let oracle = Oracle.make ~sigma dfa word in
  ( dfa.Automaton.states,
    fun v params ->
      Oracle.eval_with_marks oracle ~marks:(marks_of entry v params) )

let solve ~sigma ~word ~catalogue examples =
  erm ~n:(Array.length word) ~catalogue ~prepare:(prepare ~sigma ~word)
    examples

let predict ~sigma ~word result v =
  snd (prepare ~sigma ~word result.entry) v result.params
