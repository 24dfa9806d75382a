module Formula = Fo.Formula

type config = {
  free_vars : Formula.var list;
  colors : string list;
  max_depth : int;
  allow_counting : bool;
}

let default =
  {
    free_vars = [ "x"; "y" ];
    colors = [ "Red"; "Blue" ];
    max_depth = 4;
    allow_counting = false;
  }

let gen cfg st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let rec go vars depth =
    let var () = pick vars in
    if depth = 0 || Random.State.int st 3 = 0 then
      match Random.State.int st (if cfg.colors = [] then 3 else 4) with
      | 0 -> Formula.eq (var ()) (var ())
      | 1 -> Formula.edge (var ()) (var ())
      | 2 -> if Random.State.bool st then Formula.tru else Formula.fls
      | _ -> Formula.color (pick cfg.colors) (var ())
    else begin
      (* build through the smart constructors: generated formulas are
         then fixpoints of the parser's normalisation, so pp/parse
         round-trips are exact structural identity *)
      let max_case = if cfg.allow_counting then 7 else 6 in
      match Random.State.int st max_case with
      | 0 -> Formula.not_ (go vars (depth - 1))
      | 1 -> Formula.and_ [ go vars (depth - 1); go vars (depth - 1) ]
      | 2 -> Formula.or_ [ go vars (depth - 1); go vars (depth - 1) ]
      | 3 -> Formula.implies (go vars (depth - 1)) (go vars (depth - 1))
      | 4 ->
          let v = Printf.sprintf "b%d" (Random.State.int st 3) in
          Formula.exists v (go (v :: vars) (depth - 1))
      | 5 ->
          let v = Printf.sprintf "b%d" (Random.State.int st 3) in
          Formula.forall v (go (v :: vars) (depth - 1))
      | _ ->
          let v = Printf.sprintf "b%d" (Random.State.int st 3) in
          Formula.count_ge
            (1 + Random.State.int st 3)
            v
            (go (v :: vars) (depth - 1))
    end
  in
  go cfg.free_vars cfg.max_depth

let formula ?(config = default) ~seed () =
  let st = Random.State.make [| seed; 0x6f |] in
  gen config st

let sentence ?(config = default) ~seed () =
  let st = Random.State.make [| seed; 0x5e |] in
  let body = gen { config with free_vars = [ "x" ] } st in
  if Random.State.bool st then Formula.forall "x" body
  else Formula.exists "x" body
