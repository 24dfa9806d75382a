type var = string

type atom =
  | Eq of var * var
  | Edge of var * var
  | Color of string * var

type t =
  | True
  | False
  | Atom of atom
  | Not of t
  | And of t list
  | Or of t list
  | Implies of t * t
  | Iff of t * t
  | Exists of var * t
  | Forall of var * t
  | CountGe of int * var * t

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let tru = True
let fls = False
let eq x y = Atom (Eq (x, y))
let edge x y = Atom (Edge (x, y))
let color c x = Atom (Color (c, x))

let not_ = function
  | True -> False
  | False -> True
  | Not f -> f
  | f -> Not f

let and_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | True :: rest -> flatten acc rest
    | False :: _ -> None
    | And gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> False
  | Some [] -> True
  | Some [ f ] -> f
  | Some fs -> And fs

let or_ fs =
  let rec flatten acc = function
    | [] -> Some (List.rev acc)
    | False :: rest -> flatten acc rest
    | True :: _ -> None
    | Or gs :: rest -> flatten acc (gs @ rest)
    | f :: rest -> flatten (f :: acc) rest
  in
  match flatten [] fs with
  | None -> True
  | Some [] -> False
  | Some [ f ] -> f
  | Some fs -> Or fs

let implies a b =
  match (a, b) with
  | False, _ -> True
  | True, b -> b
  | _, True -> True
  | a, False -> not_ a
  | a, b -> Implies (a, b)

let iff a b =
  match (a, b) with
  | True, b -> b
  | a, True -> a
  | False, b -> not_ b
  | a, False -> not_ a
  | a, b -> Iff (a, b)

let exists x f = match f with False -> False | f -> Exists (x, f)
let forall x f = match f with True -> True | f -> Forall (x, f)

let count_ge t x f =
  if t < 0 then invalid_arg "Formula.count_ge: negative threshold";
  if t = 0 then True
  else match f with False -> False | f -> CountGe (t, x, f)
let exists_many xs f = List.fold_right exists xs f
let forall_many xs f = List.fold_right forall xs f

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let rec quantifier_rank = function
  | True | False | Atom _ -> 0
  | Not f -> quantifier_rank f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> max acc (quantifier_rank f)) 0 fs
  | Implies (a, b) | Iff (a, b) ->
      max (quantifier_rank a) (quantifier_rank b)
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + quantifier_rank f

module VSet = Set.Make (String)

let atom_vars = function
  | Eq (x, y) | Edge (x, y) -> VSet.of_list [ x; y ]
  | Color (_, x) -> VSet.singleton x

let rec free_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> free_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (free_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (free_set a) (free_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.remove x (free_set f)

let free_vars f = VSet.elements (free_set f)

let rec all_set = function
  | True | False -> VSet.empty
  | Atom a -> atom_vars a
  | Not f -> all_set f
  | And fs | Or fs ->
      List.fold_left (fun acc f -> VSet.union acc (all_set f)) VSet.empty fs
  | Implies (a, b) | Iff (a, b) -> VSet.union (all_set a) (all_set b)
  | Exists (x, f) | Forall (x, f) | CountGe (_, x, f) -> VSet.add x (all_set f)

let all_vars f = VSet.elements (all_set f)

module SSet = Set.Make (String)

let colors_used f =
  let rec go acc = function
    | True | False -> acc
    | Atom (Color (c, _)) -> SSet.add c acc
    | Atom _ -> acc
    | Not f -> go acc f
    | And fs | Or fs -> List.fold_left go acc fs
    | Implies (a, b) | Iff (a, b) -> go (go acc a) b
    | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> go acc f
  in
  SSet.elements (go SSet.empty f)

let rec size = function
  | True | False | Atom _ -> 1
  | Not f -> 1 + size f
  | And fs | Or fs -> List.fold_left (fun acc f -> acc + size f) 1 fs
  | Implies (a, b) | Iff (a, b) -> 1 + size a + size b
  | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> 1 + size f

let equal (a : t) (b : t) = a = b
let compare (a : t) (b : t) = Stdlib.compare a b
let hash (f : t) = Hashtbl.hash f

(* ------------------------------------------------------------------ *)
(* Renaming and substitution                                           *)
(* ------------------------------------------------------------------ *)

let fresh_var ~avoid base =
  if not (List.mem base avoid) then base
  else begin
    let rec go i =
      let cand = Printf.sprintf "%s%d" base i in
      if List.mem cand avoid then go (i + 1) else cand
    in
    go 0
  end

let rename sigma f =
  (* capture-avoiding: when entering a binder whose variable collides with
     the image of a free variable, refresh the bound variable first.

     Linear in the size of [f] (up to set operations on its variables):
     - [go] also returns the free variables of the formula it renamed,
       built from its children's, so each node's free set is computed
       once.  A binder renames its body as if nothing were captured, and
       only when the body's free set shows a capture renames it again
       under a fresh variable;
     - the renaming in force is [sigma] with the variables of the
       binders entered since fixed: [shadowed] holds them, rather than
       one closure per binder for a lookup to walk. *)
  let ren sigma shadowed y = if VSet.mem y shadowed then y else sigma y in
  let rec go sigma shadowed f =
    let ren = ren sigma shadowed in
    match f with
    | True | False -> (f, VSet.empty)
    | Atom (Eq (x, y)) -> (Atom (Eq (ren x, ren y)), VSet.add x (VSet.singleton y))
    | Atom (Edge (x, y)) ->
        (Atom (Edge (ren x, ren y)), VSet.add x (VSet.singleton y))
    | Atom (Color (c, x)) -> (Atom (Color (c, ren x)), VSet.singleton x)
    | Not f ->
        let f', fv = go sigma shadowed f in
        (Not f', fv)
    | And fs ->
        let fs', fv = go_list sigma shadowed fs in
        (And fs', fv)
    | Or fs ->
        let fs', fv = go_list sigma shadowed fs in
        (Or fs', fv)
    | Implies (a, b) ->
        let a', fa = go sigma shadowed a in
        let b', fb = go sigma shadowed b in
        (Implies (a', b'), VSet.union fa fb)
    | Iff (a, b) ->
        let a', fa = go sigma shadowed a in
        let b', fb = go sigma shadowed b in
        (Iff (a', b'), VSet.union fa fb)
    | Exists (x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (Exists (x', body'), fv)
    | Forall (x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (Forall (x', body'), fv)
    | CountGe (t, x, body) ->
        let x', body', fv = bind sigma shadowed x body in
        (CountGe (t, x', body'), fv)
  and go_list sigma shadowed fs =
    let fs' = List.map (go sigma shadowed) fs in
    ( List.map fst fs',
      List.fold_left (fun acc (_, fv) -> VSet.union acc fv) VSet.empty fs' )
  and bind sigma shadowed x body =
    let body', fv_body = go sigma (VSet.add x shadowed) body in
    let fv = VSet.remove x fv_body in
    let images = VSet.elements fv |> List.map (ren sigma shadowed) in
    if List.mem x images then begin
      let avoid = images @ VSet.elements (all_set body) in
      let x' = fresh_var ~avoid x in
      let refreshed, _ =
        go (fun y -> if y = x then x' else y) VSet.empty body
      in
      (x', fst (go sigma (VSet.add x' shadowed) refreshed), fv)
    end
    else (x, body', fv)
  in
  fst (go sigma VSet.empty f)

let substitute assoc f =
  rename (fun x -> match List.assoc_opt x assoc with Some y -> y | None -> x) f

let rec map_atoms h = function
  | True -> True
  | False -> False
  | Atom a -> h a
  | Not f -> not_ (map_atoms h f)
  | And fs -> and_ (List.map (map_atoms h) fs)
  | Or fs -> or_ (List.map (map_atoms h) fs)
  | Implies (a, b) -> implies (map_atoms h a) (map_atoms h b)
  | Iff (a, b) -> iff (map_atoms h a) (map_atoms h b)
  | Exists (x, f) -> exists x (map_atoms h f)
  | Forall (x, f) -> forall x (map_atoms h f)
  | CountGe (t, x, f) -> count_ge t x (map_atoms h f)

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

let rec nnf f =
  match f with
  | True | False | Atom _ -> f
  | Implies (a, b) -> nnf (Or [ Not a; b ])
  | Iff (a, b) -> nnf (Or [ And [ a; b ]; And [ Not a; Not b ] ])
  | And fs -> and_ (List.map nnf fs)
  | Or fs -> or_ (List.map nnf fs)
  | Exists (x, f) -> exists x (nnf f)
  | Forall (x, f) -> forall x (nnf f)
  | CountGe (t, x, f) -> count_ge t x (nnf f)
  | Not g -> (
      match g with
      | True -> False
      | False -> True
      | Atom _ -> Not g
      | Not h -> nnf h
      | And fs -> or_ (List.map (fun f -> nnf (Not f)) fs)
      | Or fs -> and_ (List.map (fun f -> nnf (Not f)) fs)
      | Implies (a, b) -> nnf (And [ a; Not b ])
      | Iff (a, b) -> nnf (Or [ And [ a; Not b ]; And [ Not a; b ] ])
      | Exists (x, f) -> forall x (nnf (Not f))
      | Forall (x, f) -> exists x (nnf (Not f))
      | CountGe (t, x, f) ->
          (* "< t" has no positive form in our syntax; keep the guarded
             negation, whose operand is in NNF *)
          not_ (count_ge t x (nnf f)))

let rec simplify f =
  match f with
  | True | False -> f
  | Atom (Eq (x, y)) when x = y -> True
  | Atom _ -> f
  | Not f -> not_ (simplify f)
  | And fs -> and_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Or fs -> or_ (List.sort_uniq Stdlib.compare (List.map simplify fs))
  | Implies (a, b) -> implies (simplify a) (simplify b)
  | Iff (a, b) -> iff (simplify a) (simplify b)
  | Exists (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else exists x f
  | Forall (x, f) ->
      let f = simplify f in
      if not (VSet.mem x (free_set f)) then f else forall x f
  | CountGe (t, x, f) -> count_ge t x (simplify f)

(* ------------------------------------------------------------------ *)
(* Printing                                                            *)
(* ------------------------------------------------------------------ *)

(* precedence levels: 0 = iff, 1 = implies, 2 = or, 3 = and, 4 = unary.

   Format lays a line out only at breaks and box boundaries, so text
   that no break or box separates can go out as one token without
   moving a line break.  [pre] and [post] are such text: whatever must
   print right before and right after [f] (a [~], a parenthesis, the
   [" /\\"] of the enclosing conjunction), glued to [f]'s first and last
   token where no box boundary intervenes.  An atom with its [~] and
   the connective after it is then one [pp_print_string], and so is a
   quantifier head such as ["(exists x3."]. *)
let rec pp_prec lvl ~pre ~post ppf f =
  let glue parts = Format.pp_print_string ppf (String.concat "" parts) in
  let paren needed = if needed then (pre ^ "(", ")" ^ post) else (pre, post) in
  let quantifier head x f =
    let pre, post = paren (lvl > 0) in
    glue [ pre; head; x; "." ];
    Format.pp_print_break ppf 1 0;
    pp_prec 0 ~pre:"" ~post ppf f
  in
  match f with
  | True -> glue [ pre; "true"; post ]
  | False -> glue [ pre; "false"; post ]
  | Atom (Eq (x, y)) -> glue [ pre; x; " = "; y; post ]
  | Atom (Edge (x, y)) -> glue [ pre; "E("; x; ", "; y; ")"; post ]
  | Atom (Color (c, x)) -> glue [ pre; c; "("; x; ")"; post ]
  | Not f -> pp_prec 4 ~pre:(pre ^ "~") ~post ppf f
  | And fs ->
      let pre, post = paren (lvl > 3) in
      pp_junction " /\\" 4 ~pre ~post ppf fs
  | Or fs ->
      let pre, post = paren (lvl > 2) in
      pp_junction " \\/" 3 ~pre ~post ppf fs
  | Implies (a, b) ->
      let pre, post = paren (lvl > 1) in
      pp_prec 2 ~pre ~post:" -> " ppf a;
      pp_prec 1 ~pre:"" ~post ppf b
  | Iff (a, b) ->
      let pre, post = paren (lvl > 0) in
      pp_prec 1 ~pre ~post:" <-> " ppf a;
      pp_prec 1 ~pre:"" ~post ppf b
  | Exists (x, f) -> quantifier "exists " x f
  | Forall (x, f) -> quantifier "forall " x f
  | CountGe (t, x, f) -> quantifier ("atleast " ^ string_of_int t ^ " ") x f

(* [fs] in an hv box, [sep] and a break between them; the box keeps
   [pre] and [post] outside *)
and pp_junction sep lvl ~pre ~post ppf fs =
  let text s = if s <> "" then Format.pp_print_string ppf s in
  let rec items = function
    | [] -> ()
    | [ f ] -> pp_prec lvl ~pre:"" ~post:"" ppf f
    | f :: rest ->
        pp_prec lvl ~pre:"" ~post:sep ppf f;
        Format.pp_print_break ppf 1 0;
        items rest
  in
  text pre;
  Format.pp_open_hvbox ppf 0;
  items fs;
  Format.pp_close_box ppf ();
  text post

let pp ppf f =
  Format.pp_open_hvbox ppf 0;
  pp_prec 0 ~pre:"" ~post:"" ppf f;
  Format.pp_close_box ppf ()

let to_string f = Format.asprintf "%a" pp f
