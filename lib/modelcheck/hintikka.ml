let variables k = List.init k (fun i -> Printf.sprintf "x%d" (i + 1))

let formulas_built = Obs.Metric.counter "modelcheck.hintikka.formulas_built"

let atomic_formula ~colors (sg : Types.atomsig) vars =
  let var = Array.of_list vars in
  let k = sg.Types.sig_arity in
  if Array.length var <> k then
    invalid_arg "Hintikka: variable/arity mismatch";
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
            (Printf.sprintf "Hintikka.of_type: colour %S not in vocabulary" c))
      held;
    List.iter
      (fun c ->
        let a = Fo.Formula.color c var.(i) in
        push (if List.mem c held then a else Fo.Formula.not_ a))
      colors
  done;
  Fo.Formula.and_ (List.rev !conjuncts)

let of_type ?budget ~colors theta =
  Obs.Metric.incr formulas_built;
  let rec go theta vars =
    Guard.tick budget Guard.Hintikka_build;
    let sg, children = Types.node theta in
    let atomic = atomic_formula ~colors sg vars in
    match children with
    | None -> atomic
    | Some kids ->
        let y = Printf.sprintf "x%d" (List.length vars + 1) in
        let vars' = vars @ [ y ] in
        let realised =
          List.map (fun kid -> Fo.Formula.exists y (go kid vars')) kids
        in
        let exhausted =
          Fo.Formula.forall y (Fo.Formula.or_ (List.map (fun kid -> go kid vars') kids))
        in
        Fo.Formula.and_ ((atomic :: realised) @ [ exhausted ])
  in
  go theta (variables (Types.arity theta))

let of_types ~colors thetas =
  Fo.Formula.or_ (List.map (fun t -> of_type ~colors t) thetas)

let of_tuple ~colors g ~q u =
  of_type ~colors (Types.tp_graph g ~q u)
