let prepare ~sigma ~tree (entry : Learner.entry) =
  let scope =
    List.map (fun v -> (v, Formula.Pos)) (entry.xvars @ entry.yvars)
  in
  let ta = Tree_formula.compile ~sigma ~scope entry.phi in
  ( ta.Automaton.states,
    fun example params ->
      Tree_formula.holds_compiled ~sigma ~scope ta tree
        {
          Formula.pos =
            List.combine
              (entry.xvars @ entry.yvars)
              (Array.to_list example @ Array.to_list params);
          sets = [];
        } )

let solve ~sigma ~tree ~catalogue examples =
  Learner.erm ~n:(Tree.size tree) ~catalogue ~prepare:(prepare ~sigma ~tree)
    examples

let predict ~sigma ~tree (result : Learner.result) v =
  snd (prepare ~sigma ~tree result.entry) v result.params

(* ------------------------------------------------------------------ *)
(* Per-node preprocessing for unary concepts ([19])                    *)
(* ------------------------------------------------------------------ *)

module Node_oracle = struct
  type t = {
    ta : Automaton.t;
    verdict : bool array;  (** per preorder node id *)
  }

  let make ~sigma phi tree =
    let x =
      match Formula.free phi with
      | [ (x, Formula.Pos) ] -> x
      | _ ->
          invalid_arg
            "Node_oracle.make: the formula must have exactly one free \
             position variable"
    in
    let ta = Tree_formula.compile ~sigma ~scope:[ (x, Formula.Pos) ] phi in
    let { Automaton.states; leaf; unary; binary; accept; _ } = ta in
    let n = Tree.size tree in
    (* pass 1 (bottom-up): zero-annotated state below every node, and
       the size of every subtree *)
    let below = Array.make n 0 and size = Array.make n 1 in
    let counter = ref (-1) in
    let rec pass1 t =
      incr counter;
      let id = !counter in
      let q =
        match t with
        | Tree.Leaf a -> leaf.(a)
        | Tree.Unary (a, c) ->
            let qc = pass1 c in
            unary.(qc).(a)
        | Tree.Binary (a, l, r) ->
            let ql = pass1 l in
            let qr = pass1 r in
            binary.(ql).(qr).(a)
      in
      below.(id) <- q;
      size.(id) <- !counter - id + 1;
      q
    in
    ignore (pass1 tree);
    (* pass 2 (top-down): context behaviour above every node, then the
       verdict with the node itself marked (mask bit 0 => label + sigma) *)
    let verdict = Array.make n false in
    let counter = ref (-1) in
    let rec pass2 t (above : bool array) =
      incr counter;
      let id = !counter in
      let marked a = a + sigma in
      (match t with
      | Tree.Leaf a -> verdict.(id) <- above.(leaf.(marked a))
      | Tree.Unary (a, c) ->
          let qc = below.(id + 1) in
          verdict.(id) <- above.(unary.(qc).(marked a));
          pass2 c (Array.init states (fun q -> above.(unary.(q).(a))))
      | Tree.Binary (a, l, r) ->
          let idl = id + 1 in
          let idr = idl + size.(idl) in
          let ql = below.(idl) and qr = below.(idr) in
          verdict.(id) <- above.(binary.(ql).(qr).(marked a));
          pass2 l (Array.init states (fun q -> above.(binary.(q).(qr).(a))));
          pass2 r (Array.init states (fun q -> above.(binary.(ql).(q).(a)))))
    in
    pass2 tree accept;
    { ta; verdict }

  let holds o v =
    if v < 0 || v >= Array.length o.verdict then
      invalid_arg "Node_oracle.holds: node id out of range";
    o.verdict.(v)

  let states o = o.ta.Automaton.states
end
