let dist_le ~d x y =
  if d < 0 then invalid_arg "Localize.dist_le: negative distance";
  (* A generated [_dN] name must not collide with either endpoint: with
     x = "_d1" the naive scheme would bind the endpoint variable. *)
  let used = Hashtbl.create 8 in
  Hashtbl.replace used x ();
  Hashtbl.replace used y ();
  let counter = ref 0 in
  let rec fresh () =
    incr counter;
    let cand = Printf.sprintf "_d%d" !counter in
    if Hashtbl.mem used cand then fresh ()
    else begin
      Hashtbl.replace used cand ();
      cand
    end
  in
  let rec go d x y =
    if d = 0 then Formula.eq x y
    else if d = 1 then Formula.or_ [ Formula.eq x y; Formula.edge x y ]
    else begin
      let half = (d + 1) / 2 in
      let z = fresh () in
      Formula.exists z (Formula.and_ [ go half x z; go (d - half) z y ])
    end
  in
  go d x y

let ball_membership ~r centers y =
  Formula.or_ (List.map (fun x -> dist_le ~d:r y x) centers)

let relativize ~r ~around phi =
  if r < 0 then invalid_arg "Localize.relativize: negative radius";
  (* Avoid clashes between the guard centres and bound variables: rename
     bound variables away from [around] first by substituting identity
     (rename is capture-avoiding, so we refresh any bound variable whose
     name collides with a centre by substituting it with itself). *)
  let rec go f =
    match f with
    | Formula.True | Formula.False | Formula.Atom _ -> f
    | Formula.Not f -> Formula.not_ (go f)
    | Formula.And fs -> Formula.and_ (List.map go fs)
    | Formula.Or fs -> Formula.or_ (List.map go fs)
    | Formula.Implies (a, b) -> Formula.implies (go a) (go b)
    | Formula.Iff (a, b) -> Formula.iff (go a) (go b)
    | Formula.Exists (x, body) ->
        let x, body = avoid_centres x body in
        Formula.exists x
          (Formula.and_ [ ball_membership ~r around x; go body ])
    | Formula.Forall (x, body) ->
        let x, body = avoid_centres x body in
        Formula.forall x
          (Formula.implies (ball_membership ~r around x) (go body))
    | Formula.CountGe (t, x, body) ->
        let x, body = avoid_centres x body in
        Formula.count_ge t x
          (Formula.and_ [ ball_membership ~r around x; go body ])
  and avoid_centres x body =
    if List.mem x around then begin
      let avoid = around @ Formula.all_vars body in
      let x' = Formula.fresh_var ~avoid x in
      (x', Formula.substitute [ (x, x') ] body)
    end
    else (x, body)
  in
  go phi
