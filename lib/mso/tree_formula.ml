open Formula

let eval ~tree asg phi =
  let node_labels = Tree.nodes tree in
  let label_of id = List.assoc id node_labels in
  eval_skeleton ~size:(List.length node_labels) asg phi ~atom:(fun pos ->
    function
    | Letter (a, x) -> label_of (pos x) = a
    | Child1 (x, y) -> (
        match Tree.children tree (pos x) with
        | c :: _ -> c = pos y
        | [] -> false)
    | Child2 (x, y) -> (
        match Tree.children tree (pos x) with
        | [ _; c ] -> c = pos y
        | _ -> false)
    | atom -> foreign ~structure:"trees" atom)

(* preorder relabelling: [f id label] at every node *)
let mapi_labels f tree =
  let counter = ref (-1) in
  let rec go t =
    incr counter;
    let id = !counter in
    match t with
    | Tree.Leaf a -> Tree.Leaf (f id a)
    | Tree.Unary (a, c) ->
        let a' = f id a in
        Tree.Unary (a', go c)
    | Tree.Binary (a, l, r) ->
        let a' = f id a in
        let l' = go l in
        let r' = go r in
        Tree.Binary (a', l', r')
  in
  go tree

include Compile (struct
  type input = Tree.t

  let shape = Automaton.Trees
  let mapi_letters = mapi_labels
  let accepts = Automaton.accepts_tree

  (* states: 0 = neither, 1 = y at the subtree root, 2 = x above y *)
  let atom ~sigma ~tracks track = function
    | (Child1 (x, y) | Child2 (x, y)) as atom ->
        let child = match atom with Child1 _ -> 0 | _ -> 1 in
        let on t m = (m lsr track t) land 1 = 1 in
        machine Automaton.Trees ~sigma ~tracks ~states:3
          ~next:(fun below _ m ->
            let sum = List.fold_left ( + ) 0 below in
            match (on x m, on y m) with
            | true, true -> None
            | false, true -> if sum = 0 then Some 1 else None
            | true, false ->
                if sum = 1 && List.nth_opt below child = Some 1 then Some 2
                else None
            | false, false ->
                if List.mem 1 below || (sum <> 0 && sum <> 2) then None
                else Some sum)
          ~accepting:(fun q -> q = 2)
    | atom -> foreign ~structure:"trees" atom
end)
