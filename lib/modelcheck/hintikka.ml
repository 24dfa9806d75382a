let variables k = List.init k (fun i -> Printf.sprintf "x%d" (i + 1))

let formulas_built = Obs.Metric.counter "modelcheck.hintikka.formulas_built"

(* position i of a type's tuple: the i-th of [names] while they last,
   the standard x(i+1) beyond *)
let namer names =
  let names = Array.of_list names in
  fun i ->
    if i < Array.length names then names.(i) else Printf.sprintf "x%d" (i + 1)

let atomic_formula ~colors (sg : Types.atomsig) var =
  let k = sg.Types.sig_arity in
  let var = Array.init k var in
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
            (Printf.sprintf "Hintikka: colour %S not in vocabulary" c))
      held;
    List.iter
      (fun c ->
        let a = Fo.Formula.color c var.(i) in
        push (if List.mem c held then a else Fo.Formula.not_ a))
      colors
  done;
  Fo.Formula.and_ (List.rev !conjuncts)

let check_arity names arity =
  match names with
  | Some vs when List.length vs <> arity ->
      invalid_arg "Hintikka: variable/arity mismatch"
  | _ -> ()

(* One build: each type id's formula is made once and shared by every
   occurrence below the roots.  A type's children go in the structural
   order [order], one memo for the build.  Each child occurs once under
   its quantifier ([exists], or at cap [c] above 1 [atleast m] and, when
   [m < c], [~(atleast m+1)]) and once in the [forall] disjunction.  The
   formula of the plain tree, which makes every occurrence afresh, has
   [size] nodes; a memo hit charges them all, so the budget sees the
   same [Hintikka_build] ticks as a tree build. *)
let builder ?budget ~colors ~order names =
  let var = namer (Option.value names ~default:[]) in
  let memo : (Types.ty, Fo.Formula.t * int) Hashtbl.t = Hashtbl.create 64 in
  let rec go theta =
    match Hashtbl.find_opt memo theta with
    | Some ((_, size) as hit) ->
        if budget <> None then
          for _ = 1 to size do
            Guard.tick budget Guard.Hintikka_build
          done;
        hit
    | None ->
        Guard.tick budget Guard.Hintikka_build;
        let sg, _ = Types.node theta in
        let atomic = atomic_formula ~colors sg var in
        let built =
          match Types.counted theta with
          | _, None -> (atomic, 1)
          | cap, Some kids ->
              let kids = List.sort (fun (a, _) (b, _) -> order a b) kids in
              let y = var sg.Types.sig_arity in
              let under quantify kid =
                let f, size = go kid in
                (quantify f, size)
              in
              let quantified =
                List.concat_map
                  (fun (kid, m) ->
                    if cap = 1 then [ under (Fo.Formula.exists y) kid ]
                    else
                      let lower = under (Fo.Formula.count_ge m y) kid in
                      if m < cap then
                        let not_more f =
                          Fo.Formula.not_ (Fo.Formula.count_ge (m + 1) y f)
                        in
                        [ lower; under not_more kid ]
                      else [ lower ])
                  kids
              in
              let exhausted = List.map (fun (kid, _) -> go kid) kids in
              let size l = List.fold_left (fun acc (_, s) -> acc + s) 0 l in
              ( Fo.Formula.and_
                  ((atomic :: List.map fst quantified)
                  @ [ Fo.Formula.forall y (Fo.Formula.or_ (List.map fst exhausted)) ]),
                1 + size quantified + size exhausted )
        in
        Hashtbl.replace memo theta built;
        built
  in
  fun theta ->
    check_arity names (Types.arity theta);
    Obs.Metric.incr formulas_built;
    fst (go theta)

let of_type ?budget ~colors theta =
  builder ?budget ~colors ~order:(Types.order ()) None theta

let of_types ?budget ?vars ~colors thetas =
  let order = Types.order () in
  let build = builder ?budget ~colors ~order vars in
  Fo.Formula.or_ (List.map build (List.sort order thetas))

let of_tuple ~colors g ~q u =
  of_type ~colors (Types.tp_graph g ~q u)
