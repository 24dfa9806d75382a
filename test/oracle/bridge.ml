module Formula = Mso.Formula

exception Unsupported of string

let letter_of_color ~sigma c =
  if c = "First" then None
  else if String.length c >= 2 && c.[0] = 'L' then begin
    match int_of_string_opt (String.sub c 1 (String.length c - 1)) with
    | Some a when a >= 0 && a < sigma -> Some a
    | _ ->
        raise
          (Unsupported
             (Printf.sprintf "colour %S is outside the word-graph vocabulary" c))
  end
  else
    raise
      (Unsupported
         (Printf.sprintf "colour %S is outside the word-graph vocabulary" c))

let mso_of_fo ~sigma phi =
  let fresh = ref 0 in
  let fresh_var () =
    incr fresh;
    Printf.sprintf "_bp%d" !fresh
  in
  let rec go (f : Fo.Formula.t) : Formula.t =
    match f with
    | True -> Formula.MTrue
    | False -> Formula.MFalse
    | Atom (Eq (x, y)) -> Formula.EqPos (x, y)
    | Atom (Edge (x, y)) ->
        Formula.Or [ Formula.Succ (x, y); Formula.Succ (y, x) ]
    | Atom (Color (c, x)) -> (
        match letter_of_color ~sigma c with
        | Some a -> Formula.Letter (a, x)
        | None ->
            (* First(x): no predecessor *)
            let p = fresh_var () in
            Formula.Not (Formula.ExistsPos (p, Formula.Succ (p, x))))
    | Not f -> Formula.Not (go f)
    | And fs -> Formula.And (List.map go fs)
    | Or fs -> Formula.Or (List.map go fs)
    | Implies (a, b) -> Formula.Or [ Formula.Not (go a); go b ]
    | Iff (a, b) ->
        let a' = go a and b' = go b in
        Formula.Or
          [ Formula.And [ a'; b' ];
            Formula.And [ Formula.Not a'; Formula.Not b' ] ]
    | Exists (x, f) -> Formula.ExistsPos (x, go f)
    | Forall (x, f) -> Formula.ForallPos (x, go f)
    | CountGe _ ->
        raise (Unsupported "counting quantifiers have no MSO counterpart here")
  in
  go phi
