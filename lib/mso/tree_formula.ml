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

module Ta = Tree_automaton

let bit mask i = (mask lsr i) land 1 = 1

(* tree-automaton builder with a rejecting sink; the [next] callbacks see
   (base label, track mask) and return [Some state] or [None] (sink) *)
let machine ~sigma ~tracks ~states ~leaf_next ~unary_next ~binary_next
    ~accepting =
  let alphabet = sigma lsl tracks in
  let total = states + 1 in
  let sink = states in
  let split l = (l mod sigma, l / sigma) in
  let leaf =
    Array.init alphabet (fun l ->
        let a, m = split l in
        match leaf_next a m with Some q -> q | None -> sink)
  in
  let unary =
    Array.init total (fun q ->
        Array.init alphabet (fun l ->
            if q = sink then sink
            else begin
              let a, m = split l in
              match unary_next q a m with Some q' -> q' | None -> sink
            end))
  in
  let binary =
    Array.init total (fun q1 ->
        Array.init total (fun q2 ->
            Array.init alphabet (fun l ->
                if q1 = sink || q2 = sink then sink
                else begin
                  let a, m = split l in
                  match binary_next q1 q2 a m with
                  | Some q' -> q'
                  | None -> sink
                end)))
  in
  let accept = Array.init total (fun q -> q <> sink && accepting q) in
  Ta.create ~states:total ~alphabet ~leaf ~unary ~binary ~accept

(* one mark on track t anywhere in the tree, at a node whose label and
   track mask pass [ok] *)
let one_mark ~sigma ~tracks t ok =
  machine ~sigma ~tracks ~states:2
    ~leaf_next:(fun a m ->
      if bit m t then if ok a m then Some 1 else None else Some 0)
    ~unary_next:(fun q a m ->
      match (q, bit m t) with
      | 0, false -> Some 0
      | 0, true -> if ok a m then Some 1 else None
      | 1, false -> Some 1
      | _ -> None)
    ~binary_next:(fun q1 q2 a m ->
      let below = q1 + q2 in
      if bit m t then if below = 0 && ok a m then Some 1 else None
      else if below <= 1 then Some below
      else None)
    ~accepting:(fun q -> q = 1)

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
  type automaton = Ta.t
  type input = Tree.t

  let total_language = Ta.total_language
  let empty_language = Ta.empty_language
  let complement = Ta.complement
  let product = Ta.product
  let minimize = Ta.minimize

  let erase = Ta.erase

  let singleton ~sigma ~tracks t = one_mark ~sigma ~tracks t (fun _ _ -> true)
  let mapi_letters = mapi_labels
  let accepts = Ta.accepts

  let atom ~sigma ~tracks track = function
    | Letter (la, x) -> one_mark ~sigma ~tracks (track x) (fun a _ -> a = la)
    | Mem (x, bigx) ->
        let ts = track bigx in
        one_mark ~sigma ~tracks (track x) (fun _ m -> bit m ts)
    | (Child1 (x, y) | Child2 (x, y)) as atom ->
        let is_first = match atom with Child1 _ -> true | _ -> false in
        let tx = track x and ty = track y in
        (* states: 0 = N, 1 = y at subtree root, 2 = OK *)
        machine ~sigma ~tracks ~states:3
          ~leaf_next:(fun _ m ->
            match (bit m tx, bit m ty) with
            | false, false -> Some 0
            | false, true -> Some 1
            | _ -> None)
          ~unary_next:(fun q _ m ->
            match (bit m tx, bit m ty) with
            | true, true -> None
            | false, true -> if q = 0 then Some 1 else None
            | true, false ->
                if is_first && q = 1 then Some 2 else None
            | false, false -> (
                match q with 0 -> Some 0 | 2 -> Some 2 | _ -> None))
          ~binary_next:(fun q1 q2 _ m ->
            match (bit m tx, bit m ty) with
            | true, true -> None
            | false, true -> if q1 = 0 && q2 = 0 then Some 1 else None
            | true, false ->
                if is_first then if q1 = 1 && q2 = 0 then Some 2 else None
                else if q1 = 0 && q2 = 1 then Some 2
                else None
            | false, false -> (
                match (q1, q2) with
                | 0, 0 -> Some 0
                | 2, 0 | 0, 2 -> Some 2
                | _ -> None))
          ~accepting:(fun q -> q = 2)
    | EqPos (x, y) ->
        let tx = track x and ty = track y in
        machine ~sigma ~tracks ~states:2
          ~leaf_next:(fun _ m ->
            match (bit m tx, bit m ty) with
            | false, false -> Some 0
            | true, true -> Some 1
            | _ -> None)
          ~unary_next:(fun q _ m ->
            match (bit m tx, bit m ty) with
            | false, false -> Some q
            | true, true -> if q = 0 then Some 1 else None
            | _ -> None)
          ~binary_next:(fun q1 q2 _ m ->
            let below = q1 + q2 in
            match (bit m tx, bit m ty) with
            | false, false -> if below <= 1 then Some below else None
            | true, true -> if below = 0 then Some 1 else None
            | _ -> None)
          ~accepting:(fun q -> q = 1)
    | atom -> foreign ~structure:"trees" atom
end)
