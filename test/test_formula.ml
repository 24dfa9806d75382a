(* Tests for the FO substrate: syntax, parser, localisation, Gaifman. *)

module F = Fo.Formula

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_str = Alcotest.(check string)

let phi_example =
  (* exists z. E(x, z) /\ Red(z) *)
  F.exists "z" (F.and_ [ F.edge "x" "z"; F.color "Red" "z" ])

(* ------------------------------------------------------------------ *)
(* Smart constructors                                                  *)
(* ------------------------------------------------------------------ *)

let test_smart_and () =
  check "empty and is true" true (F.and_ [] = F.tru);
  check "and with false collapses" true (F.and_ [ F.eq "x" "y"; F.fls ] = F.fls);
  check "and flattens" true
    (F.and_ [ F.and_ [ F.eq "x" "y"; F.eq "y" "z" ]; F.eq "x" "z" ]
    = F.And [ F.eq "x" "y"; F.eq "y" "z"; F.eq "x" "z" ]);
  check "singleton unwraps" true (F.and_ [ F.eq "x" "y" ] = F.eq "x" "y")

let test_smart_or () =
  check "empty or is false" true (F.or_ [] = F.fls);
  check "or with true collapses" true (F.or_ [ F.eq "x" "y"; F.tru ] = F.tru);
  check "true units dropped in and" true (F.and_ [ F.tru; F.eq "x" "y" ] = F.eq "x" "y")

let test_smart_not () =
  check "double negation" true (F.not_ (F.not_ (F.eq "x" "y")) = F.eq "x" "y");
  check "not true" true (F.not_ F.tru = F.fls)

let test_smart_quantifiers () =
  check "exists false" true (F.exists "x" F.fls = F.fls);
  check "forall true" true (F.forall "x" F.tru = F.tru);
  check "exists_many" true
    (F.exists_many [ "a"; "b" ] F.(eq "a" "b")
    = F.Exists ("a", F.Exists ("b", F.eq "a" "b")))

let test_implies_iff () =
  check "false implies" true (F.implies F.fls (F.eq "x" "y") = F.tru);
  check "implies false is negation" true
    (F.implies (F.eq "x" "y") F.fls = F.not_ (F.eq "x" "y"));
  check "iff true unit" true (F.iff F.tru (F.eq "x" "y") = F.eq "x" "y")

(* ------------------------------------------------------------------ *)
(* Inspection                                                          *)
(* ------------------------------------------------------------------ *)

let test_quantifier_rank () =
  check_int "atom" 0 (F.quantifier_rank (F.eq "x" "y"));
  check_int "one" 1 (F.quantifier_rank phi_example);
  check_int "nested" 2
    (F.quantifier_rank (F.forall "w" phi_example));
  check_int "parallel takes max" 1
    (F.quantifier_rank (F.and_ [ phi_example; F.exists "u" (F.eq "u" "u") ]))

let test_free_vars () =
  Alcotest.(check (list string)) "free vars" [ "x" ] (F.free_vars phi_example);
  Alcotest.(check (list string))
    "bound removed" []
    (F.free_vars (F.exists "x" phi_example));
  Alcotest.(check (list string))
    "all vars" [ "x"; "z" ] (F.all_vars phi_example)

let test_colors_used () =
  Alcotest.(check (list string)) "colors" [ "Red" ] (F.colors_used phi_example)

let test_size () =
  check "atom size 1" true (F.size (F.eq "x" "y") = 1);
  check "structure counted" true (F.size phi_example >= 4)

(* ------------------------------------------------------------------ *)
(* Substitution and renaming                                           *)
(* ------------------------------------------------------------------ *)

let test_substitute_free () =
  let f = F.substitute [ ("x", "u") ] phi_example in
  Alcotest.(check (list string)) "renamed free var" [ "u" ] (F.free_vars f)

let test_substitute_avoids_capture () =
  (* substituting x := z into exists z. E(x,z) must refresh the binder *)
  let f = F.substitute [ ("x", "z") ] phi_example in
  (* the free z must not be captured: semantics check via evaluation *)
  Alcotest.(check (list string)) "free var is z" [ "z" ] (F.free_vars f);
  match f with
  | F.Exists (b, _) -> check "binder refreshed" true (b <> "z")
  | _ -> Alcotest.fail "expected an existential"

let test_substitute_bound_untouched () =
  let f = F.substitute [ ("z", "w") ] phi_example in
  check "bound occurrence untouched" true (f = phi_example)

let test_map_atoms () =
  let f =
    F.map_atoms
      (function
        | F.Edge (a, b) -> F.color "Q" b |> fun c -> F.and_ [ c; F.eq a a ]
        | a -> F.Atom a)
      phi_example
  in
  check "edge rewritten" true (F.colors_used f = [ "Q"; "Red" ])

(* ------------------------------------------------------------------ *)
(* Normal forms                                                        *)
(* ------------------------------------------------------------------ *)

let test_nnf () =
  let f = F.not_ (F.exists "z" (F.implies (F.edge "x" "z") (F.fls))) in
  let g = F.nnf f in
  let rec no_bad = function
    | F.Not (F.Atom _) | F.Atom _ | F.True | F.False -> true
    | F.Not (F.CountGe (_, _, f)) -> no_bad f (* counting has no dual *)
    | F.Not _ -> false
    | F.Implies _ | F.Iff _ -> false
    | F.And fs | F.Or fs -> List.for_all no_bad fs
    | F.Exists (_, f) | F.Forall (_, f) | F.CountGe (_, _, f) -> no_bad f
  in
  check "nnf shape" true (no_bad g);
  check "rank preserved" true (F.quantifier_rank g = F.quantifier_rank f)

let test_simplify () =
  check "x = x folds" true (F.simplify (F.eq "x" "x") = F.tru);
  check "dedup juncts" true
    (F.simplify (F.And [ F.eq "x" "y"; F.eq "x" "y" ]) = F.eq "x" "y");
  check "vacuous quantifier dropped" true
    (F.simplify (F.Exists ("w", F.eq "x" "y")) = F.eq "x" "y")

let test_fresh_var () =
  check_str "fresh avoids" "x0" (F.fresh_var ~avoid:[ "x" ] "x");
  check_str "fresh keeps free name" "y" (F.fresh_var ~avoid:[ "x" ] "y")

(* ------------------------------------------------------------------ *)
(* Parser round-trips                                                  *)
(* ------------------------------------------------------------------ *)

let test_parse_atoms () =
  check "eq" true (Fo.Parser.parse "x = y" = F.eq "x" "y");
  check "neq" true (Fo.Parser.parse "x != y" = F.not_ (F.eq "x" "y"));
  check "edge" true (Fo.Parser.parse "E(x, y)" = F.edge "x" "y");
  check "color" true (Fo.Parser.parse "Red(x)" = F.color "Red" "x");
  check "true" true (Fo.Parser.parse "true" = F.tru)

let test_parse_precedence () =
  check "and binds tighter than or" true
    (Fo.Parser.parse "a = b \\/ c = d /\\ e = f"
    = F.or_ [ F.eq "a" "b"; F.and_ [ F.eq "c" "d"; F.eq "e" "f" ] ]);
  check "implies right assoc" true
    (Fo.Parser.parse "a = b -> c = d -> e = f"
    = F.implies (F.eq "a" "b") (F.implies (F.eq "c" "d") (F.eq "e" "f")));
  check "negation tight" true
    (Fo.Parser.parse "~ a = b /\\ c = d"
    = F.and_ [ F.not_ (F.eq "a" "b"); F.eq "c" "d" ])

let test_parse_quantifiers () =
  check "multi-binder" true
    (Fo.Parser.parse "exists x y. E(x, y)"
    = F.exists "x" (F.exists "y" (F.edge "x" "y")));
  check "body extends right" true
    (Fo.Parser.parse "forall x. Red(x) \\/ Blue(x)"
    = F.forall "x" (F.or_ [ F.color "Red" "x"; F.color "Blue" "x" ]))

let test_parse_errors () =
  check "unbalanced" true (Fo.Parser.parse_opt "(x = y" = None);
  check "missing dot" true (Fo.Parser.parse_opt "exists x E(x, x)" = None);
  check "binary non-E" true (Fo.Parser.parse_opt "R(x, y)" = None);
  check "unary E" true (Fo.Parser.parse_opt "E(x)" = None);
  check "trailing garbage" true (Fo.Parser.parse_opt "x = y y" = None)

(* random formula generator for round-trip and semantics properties *)
let rec gen_formula vars depth st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let var () = pick vars in
  if depth = 0 || Random.State.int st 3 = 0 then
    match Random.State.int st 4 with
    | 0 -> F.eq (var ()) (var ())
    | 1 -> F.edge (var ()) (var ())
    | 2 -> F.color (pick [ "Red"; "Blue" ]) (var ())
    | _ -> if Random.State.bool st then F.True else F.False
  else begin
    match Random.State.int st 6 with
    | 0 -> F.Not (gen_formula vars (depth - 1) st)
    | 1 ->
        F.And
          [ gen_formula vars (depth - 1) st; gen_formula vars (depth - 1) st ]
    | 2 ->
        F.Or
          [ gen_formula vars (depth - 1) st; gen_formula vars (depth - 1) st ]
    | 3 ->
        F.Implies
          (gen_formula vars (depth - 1) st, gen_formula vars (depth - 1) st)
    | 4 ->
        let v = Printf.sprintf "b%d" (Random.State.int st 3) in
        F.Exists (v, gen_formula (v :: vars) (depth - 1) st)
    | _ ->
        let v = Printf.sprintf "b%d" (Random.State.int st 3) in
        F.Forall (v, gen_formula (v :: vars) (depth - 1) st)
  end

(* [F.rename] as it was before it computed each free set once: [refresh]
   recomputes [free_set body] at every binder it enters *)
let rename_by_refresh sigma f =
  let module VSet = Set.Make (String) in
  let atom_vars = function
    | F.Eq (x, y) | F.Edge (x, y) -> VSet.of_list [ x; y ]
    | F.Color (_, x) -> VSet.singleton x
  in
  let rec free_set = function
    | F.True | F.False -> VSet.empty
    | F.Atom a -> atom_vars a
    | F.Not f -> free_set f
    | F.And fs | F.Or fs ->
        List.fold_left (fun acc f -> VSet.union acc (free_set f)) VSet.empty fs
    | F.Implies (a, b) | F.Iff (a, b) -> VSet.union (free_set a) (free_set b)
    | F.Exists (x, f) | F.Forall (x, f) | F.CountGe (_, x, f) ->
        VSet.remove x (free_set f)
  in
  let rec all_set = function
    | F.True | F.False -> VSet.empty
    | F.Atom a -> atom_vars a
    | F.Not f -> all_set f
    | F.And fs | F.Or fs ->
        List.fold_left (fun acc f -> VSet.union acc (all_set f)) VSet.empty fs
    | F.Implies (a, b) | F.Iff (a, b) -> VSet.union (all_set a) (all_set b)
    | F.Exists (x, f) | F.Forall (x, f) | F.CountGe (_, x, f) ->
        VSet.add x (all_set f)
  in
  let fresh_var ~avoid base =
    if not (List.mem base avoid) then base
    else begin
      let rec go i =
        let cand = Printf.sprintf "%s%d" base i in
        if List.mem cand avoid then go (i + 1) else cand
      in
      go 0
    end
  in
  let rec go sigma f =
    match f with
    | F.True | F.False -> f
    | F.Atom (F.Eq (x, y)) -> F.Atom (F.Eq (sigma x, sigma y))
    | F.Atom (F.Edge (x, y)) -> F.Atom (F.Edge (sigma x, sigma y))
    | F.Atom (F.Color (c, x)) -> F.Atom (F.Color (c, sigma x))
    | F.Not f -> F.Not (go sigma f)
    | F.And fs -> F.And (List.map (go sigma) fs)
    | F.Or fs -> F.Or (List.map (go sigma) fs)
    | F.Implies (a, b) -> F.Implies (go sigma a, go sigma b)
    | F.Iff (a, b) -> F.Iff (go sigma a, go sigma b)
    | F.Exists (x, body) ->
        let x', body' = refresh sigma x body in
        F.Exists (x', go (under x' sigma) body')
    | F.Forall (x, body) ->
        let x', body' = refresh sigma x body in
        F.Forall (x', go (under x' sigma) body')
    | F.CountGe (t, x, body) ->
        let x', body' = refresh sigma x body in
        F.CountGe (t, x', go (under x' sigma) body')
  and under x sigma y = if y = x then x else sigma y
  and refresh sigma x body =
    let fv = VSet.remove x (free_set body) in
    let images = VSet.elements fv |> List.map sigma in
    if List.mem x images then begin
      let avoid = images @ VSet.elements (all_set body) in
      let x' = fresh_var ~avoid x in
      let body' =
        go (fun y -> if y = x then x' else y) body
      in
      (x', body')
    end
    else (x, body)
  in
  go sigma f

(* Free and bound variables come from one small pool that also holds
   the names [fresh_var] tries first, and the renaming maps the pool
   into itself: binders collide with images, and refreshed names with
   names already in the body. *)
let rename_matches_refresh =
  let pool = [| "x"; "y"; "z"; "x0"; "y0"; "x1" |] in
  QCheck.Test.make ~name:"rename = rename by refresh, captures included"
    ~count:500 QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let var () = pool.(Random.State.int st (Array.length pool)) in
      let rec gen depth =
        if depth = 0 || Random.State.int st 4 = 0 then
          match Random.State.int st 4 with
          | 0 -> F.eq (var ()) (var ())
          | 1 -> F.edge (var ()) (var ())
          | 2 -> F.color "Red" (var ())
          | _ -> if Random.State.bool st then F.True else F.False
        else
          match Random.State.int st 9 with
          | 0 -> F.Not (gen (depth - 1))
          | 1 -> F.And (List.init (Random.State.int st 3) (fun _ -> gen (depth - 1)))
          | 2 -> F.Or (List.init (Random.State.int st 3) (fun _ -> gen (depth - 1)))
          | 3 -> F.Implies (gen (depth - 1), gen (depth - 1))
          | 4 -> F.Iff (gen (depth - 1), gen (depth - 1))
          | 5 | 6 -> F.Exists (var (), gen (depth - 1))
          | 7 -> F.Forall (var (), gen (depth - 1))
          | _ -> F.CountGe (1 + Random.State.int st 3, var (), gen (depth - 1))
      in
      let f = gen 6 in
      let image = Array.map (fun _ -> var ()) pool in
      let sigma v =
        match Array.find_index (String.equal v) pool with
        | Some i -> image.(i)
        | None -> v
      in
      F.rename sigma f = rename_by_refresh sigma f)

let parser_roundtrip =
  QCheck.Test.make ~name:"pp then parse is semantically faithful" ~count:120
    QCheck.(int_range 0 10000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let f = gen_formula [ "x"; "y" ] 4 st in
      match Fo.Parser.parse_opt (F.to_string f) with
      | None -> false
      | Some g ->
          (* parsing normalises through the smart constructors; compare
             semantically on a fixed small graph *)
          let graph =
            Cgraph.Graph.create ~n:4
              ~edges:[ (0, 1); (1, 2); (2, 3) ]
              ~colors:[ ("Red", [ 0; 2 ]); ("Blue", [ 1 ]) ]
          in
          List.for_all
            (fun vx ->
              List.for_all
                (fun vy ->
                  let env = [ ("x", vx); ("y", vy) ] in
                  Modelcheck.Eval.holds graph env f
                  = Modelcheck.Eval.holds graph env g)
                [ 0; 1; 2; 3 ])
            [ 0; 1; 2; 3 ])

(* Genform builds through the same smart constructors the parser
   normalises with, so on that class the round-trip is exact structural
   identity, not just semantic equivalence. *)
let parser_exact_roundtrip =
  QCheck.Test.make ~name:"parse . pp = id over Genform" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let f = Oracle.Genform.formula ~seed () in
      Fo.Parser.parse_opt (F.to_string f) = Some f)

let parser_exact_roundtrip_counting =
  QCheck.Test.make ~name:"parse . pp = id over counting Genform" ~count:300
    QCheck.(int_range 0 100_000)
    (fun seed ->
      let config = { Oracle.Genform.default with allow_counting = true } in
      let f = Oracle.Genform.formula ~config ~seed () in
      Fo.Parser.parse_opt (F.to_string f) = Some f)

(* The printer before it glued atoms, connectives and quantifier heads
   into single text tokens, kept verbatim as the reference: the layout
   is Format's, so the new printer must give the same bytes. *)
module Reference_pp = struct
  open F

  (* precedence levels: 0 = iff, 1 = implies, 2 = or, 3 = and, 4 = unary *)
  let rec pp_prec lvl ppf f =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match f with
    | True -> Format.pp_print_string ppf "true"
    | False -> Format.pp_print_string ppf "false"
    | Atom (Eq (x, y)) -> Format.fprintf ppf "%s = %s" x y
    | Atom (Edge (x, y)) -> Format.fprintf ppf "E(%s, %s)" x y
    | Atom (Color (c, x)) -> Format.fprintf ppf "%s(%s)" c x
    | Not f ->
        Format.pp_print_string ppf "~";
        pp_prec 4 ppf f
    | And fs ->
        paren (lvl > 3) (fun ppf ->
            Format.pp_open_hvbox ppf 0;
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " /\\@ ")
              (pp_prec 4) ppf fs;
            Format.pp_close_box ppf ())
    | Or fs ->
        paren (lvl > 2) (fun ppf ->
            Format.pp_open_hvbox ppf 0;
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " \\/@ ")
              (pp_prec 3) ppf fs;
            Format.pp_close_box ppf ())
    | Implies (a, b) ->
        paren (lvl > 1) (fun ppf ->
            Format.fprintf ppf "%a -> %a" (pp_prec 2) a (pp_prec 1) b)
    | Iff (a, b) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "%a <-> %a" (pp_prec 1) a (pp_prec 1) b)
    | Exists (x, f) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "exists %s.@ %a" x (pp_prec 0) f)
    | Forall (x, f) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "forall %s.@ %a" x (pp_prec 0) f)
    | CountGe (t, x, f) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "atleast %d %s.@ %a" t x (pp_prec 0) f)

  let pp ppf f =
    Format.pp_open_hvbox ppf 0;
    pp_prec 0 ppf f;
    Format.pp_close_box ppf ()
end

(* Every constructor, raw (no smart-constructor normalisation: [Not
   (Not _)], empty and singleton junctions, nested junctions of one
   kind), with colour and variable names long enough that whole boxes
   fit a line only sometimes. *)
let rec gen_any_formula depth st =
  let pick l = List.nth l (Random.State.int st (List.length l)) in
  let var () = pick [ "x"; "y1"; "x12"; "a_long_variable_name" ] in
  let colour () =
    pick [ "Red"; "R"; "AVeryLongColourNameIndeed"; "Colour_with_38_characters_in_its_name" ]
  in
  let sub () = gen_any_formula (depth - 1) st in
  if depth = 0 || Random.State.int st 4 = 0 then
    match Random.State.int st 5 with
    | 0 -> F.eq (var ()) (var ())
    | 1 -> F.edge (var ()) (var ())
    | 2 -> F.color (colour ()) (var ())
    | 3 -> F.True
    | _ -> F.False
  else
    match Random.State.int st 9 with
    | 0 -> F.Not (sub ())
    | 1 -> F.And (List.init (Random.State.int st 5) (fun _ -> sub ()))
    | 2 -> F.Or (List.init (Random.State.int st 5) (fun _ -> sub ()))
    | 3 -> F.Implies (sub (), sub ())
    | 4 -> F.Iff (sub (), sub ())
    | 5 -> F.Exists (var (), sub ())
    | 6 -> F.Forall (var (), sub ())
    | 7 -> F.CountGe (1 + Random.State.int st 12, var (), sub ())
    | _ -> F.And [ sub (); F.Or [ sub (); sub () ]; F.Not (sub ()) ]

let render ~margin pp f =
  let b = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer b in
  Format.pp_set_margin ppf margin;
  (* once alone, once inside the boxes [Hypothesis.pp] puts around it *)
  Format.fprintf ppf "%a@.@[<v>phi =@;<1 2>@[%a@]@,w = 0@]@." pp f pp f;
  Buffer.contents b

let pp_matches_reference =
  QCheck.Test.make ~name:"pp gives the reference printer's bytes"
    ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed ->
      let f = gen_any_formula 6 (Random.State.make [| seed |]) in
      List.for_all
        (fun margin ->
          render ~margin F.pp f = render ~margin Reference_pp.pp f)
        [ 78; 40; 12 ])

(* [output ~col] against the box it stands for: at column 0, at the
   column 2 that [Hypothesis.pp] writes at, and past the max indent
   (6 at margin 12), where only the enclosing hbox keeps Format from
   breaking the line before the box *)
let output_agrees f =
  let render ~margin print =
    let b = Buffer.create 4096 in
    let ppf = Format.formatter_of_buffer b in
    Format.pp_set_margin ppf margin;
    print ppf;
    Buffer.contents b
  in
  List.for_all
    (fun margin ->
      List.for_all
        (fun col ->
          let pad = String.make col ' ' in
          render ~margin (fun ppf ->
              Format.fprintf ppf "head@.@[<h>%s@[%a@]@]@.tail@." pad F.pp f)
          = render ~margin (fun ppf ->
                Format.fprintf ppf "head@.%s%a@.tail@." pad (F.output ~col) f))
        [ 0; 2; 9 ])
    [ 78; 40; 12 ]

let output_matches_pp =
  QCheck.Test.make ~name:"output gives pp's bytes" ~count:1000
    QCheck.(int_range 0 1_000_000)
    (fun seed -> output_agrees (gen_any_formula 6 (Random.State.make [| seed |])))

(* A DAG like a Hintikka formula's: each node is built over a pool of
   earlier nodes, physically shared, so one junction recurs at several
   depths, columns and enclosing boxes.  A node joins the pool only
   while the tree it stands for stays small enough for [pp]. *)
let gen_shared_formula st =
  let pool = Array.make 24 F.True and sizes = Array.make 24 1 in
  let count = ref 0 in
  let add f size =
    pool.(!count) <- f;
    sizes.(!count) <- size;
    incr count
  in
  for _ = 1 to 5 do
    let f = gen_any_formula 2 st in
    add f (F.size f)
  done;
  while !count < Array.length pool do
    let pick () =
      (* the recent nodes more often, so sharing nests *)
      let i =
        if Random.State.bool st then !count - 1 - Random.State.int st (min 4 !count)
        else Random.State.int st !count
      in
      (pool.(i), sizes.(i))
    in
    let junction make =
      let ps = List.init (1 + Random.State.int st 4) (fun _ -> pick ()) in
      (make (List.map fst ps), List.fold_left (fun s (_, k) -> s + k) 1 ps)
    in
    let var = if Random.State.bool st then "x" else "a_long_variable_name" in
    let (a, sa), (b, sb), (c, sc) = (pick (), pick (), pick ()) in
    let f, size =
      match Random.State.int st 7 with
      | 0 | 1 -> junction (fun fs -> F.And fs)
      | 2 | 3 -> junction (fun fs -> F.Or fs)
      | 4 ->
          ( F.And [ a; F.Exists (var, b); F.Forall (var, F.Or [ b; c ]) ],
            4 + sa + (2 * sb) + sc )
      | 5 -> (F.Not a, 1 + sa)
      | _ -> (F.Implies (a, F.CountGe (2, var, b)), 2 + sa + sb)
    in
    if size <= 1500 then add f size else add a sa
  done;
  F.Or [ pool.(23); pool.(22); F.Not pool.(21); pool.(23) ]

(* [output] with its layout memo on shared DAGs: a memoised layout
   replayed at another column, in another box, or taken while measuring
   gives other bytes *)
let output_matches_pp_shared =
  QCheck.Test.make ~name:"output gives pp's bytes on shared DAGs" ~count:300
    QCheck.(int_range 0 1_000_000)
    (fun seed -> output_agrees (gen_shared_formula (Random.State.make [| seed |])))

let nnf_preserves_semantics =
  QCheck.Test.make ~name:"nnf and simplify preserve semantics" ~count:120
    QCheck.(int_range 0 10000)
    (fun seed ->
      let st = Random.State.make [| seed + 777 |] in
      let f = gen_formula [ "x"; "y" ] 4 st in
      let graph =
        Cgraph.Graph.create ~n:4
          ~edges:[ (0, 1); (1, 2); (2, 3); (3, 0) ]
          ~colors:[ ("Red", [ 1; 3 ]); ("Blue", [ 0 ]) ]
      in
      List.for_all
        (fun vx ->
          List.for_all
            (fun vy ->
              let env = [ ("x", vx); ("y", vy) ] in
              let base = Modelcheck.Eval.holds graph env f in
              Modelcheck.Eval.holds graph env (F.nnf f) = base
              && Modelcheck.Eval.holds graph env (F.simplify f) = base)
            [ 0; 2 ])
        [ 1; 3 ])

(* ------------------------------------------------------------------ *)
(* Localisation                                                        *)
(* ------------------------------------------------------------------ *)

let test_dist_le_semantics () =
  let g = Cgraph.Gen.path 8 in
  List.iter
    (fun d ->
      let f = Fo.Localize.dist_le ~d "x" "y" in
      List.iter
        (fun u ->
          List.iter
            (fun v ->
              let expected = Cgraph.Bfs.dist g u v <= d in
              let got =
                Modelcheck.Eval.holds g [ ("x", u); ("y", v) ] f
              in
              if got <> expected then
                Alcotest.failf "dist_le %d wrong at (%d,%d)" d u v)
            [ 0; 3; 7 ])
        [ 0; 2; 5 ])
    [ 0; 1; 2; 3; 5 ]

let test_dist_le_rank () =
  check_int "d=1 rank 0" 0 (F.quantifier_rank (Fo.Localize.dist_le ~d:1 "x" "y"));
  check_int "d=2 rank 1" 1 (F.quantifier_rank (Fo.Localize.dist_le ~d:2 "x" "y"));
  check_int "d=4 rank 2" 2 (F.quantifier_rank (Fo.Localize.dist_le ~d:4 "x" "y"));
  check "d=8 rank 3" true
    (F.quantifier_rank (Fo.Localize.dist_le ~d:8 "x" "y") = 3)

let test_relativize_local () =
  (* "x has a neighbour that is Red" is 1-local; its relativisation to
     r=1 must agree with evaluation in the induced 1-ball *)
  let f = F.exists "z" (F.and_ [ F.edge "x" "z"; F.color "Red" "z" ]) in
  let loc = Fo.Localize.relativize ~r:1 ~around:[ "x" ] f in
  let g =
    Cgraph.Graph.create ~n:6
      ~edges:[ (0, 1); (1, 2); (2, 3); (3, 4); (4, 5) ]
      ~colors:[ ("Red", [ 2; 5 ]) ]
  in
  List.iter
    (fun v ->
      let emb = Cgraph.Ops.induced g (Cgraph.Bfs.ball_tuple g ~r:1 [| v |]) in
      let v' = Option.get (emb.Cgraph.Ops.to_sub v) in
      let expected = Modelcheck.Eval.holds emb.Cgraph.Ops.graph [ ("x", v') ] f in
      let got = Modelcheck.Eval.holds g [ ("x", v) ] loc in
      if got <> expected then Alcotest.failf "relativize wrong at %d" v)
    (Cgraph.Graph.vertices g)

let relativize_is_local =
  QCheck.Test.make
    ~name:"relativised formulas depend only on the r-neighbourhood" ~count:60
    QCheck.(pair (int_range 0 10000) (int_range 1 2))
    (fun (seed, r) ->
      let st = Random.State.make [| seed; r |] in
      let f = gen_formula [ "x" ] 3 st in
      let loc = Fo.Localize.relativize ~r ~around:[ "x" ] f in
      let g =
        Cgraph.Gen.colored ~seed ~colors:[ "Red"; "Blue" ]
          (Cgraph.Gen.random_tree ~seed:(seed + 1) 12)
      in
      List.for_all
        (fun v ->
          let emb = Cgraph.Ops.induced g (Cgraph.Bfs.ball_tuple g ~r [| v |]) in
          let v' = Option.get (emb.Cgraph.Ops.to_sub v) in
          Modelcheck.Eval.holds g [ ("x", v) ] loc
          = Modelcheck.Eval.holds emb.Cgraph.Ops.graph [ ("x", v') ] loc)
        [ 0; 5; 11 ])

let test_gaifman_radius () =
  check_int "r(0)" 0 (Fo.Gaifman.radius 0);
  check_int "r(1)" 3 (Fo.Gaifman.radius 1);
  check_int "r(2)" 24 (Fo.Gaifman.radius 2);
  check "overflow guarded" true
    (try
       ignore (Fo.Gaifman.radius 25);
       false
     with Invalid_argument _ -> true)

let test_rank_overhead () =
  check_int "r<=1 free" 0 (Fo.Gaifman.rank_overhead 1);
  check_int "r=2" 1 (Fo.Gaifman.rank_overhead 2);
  check_int "r=3" 2 (Fo.Gaifman.rank_overhead 3);
  check_int "r=8" 3 (Fo.Gaifman.rank_overhead 8)

let suite =
  [
    Alcotest.test_case "smart and" `Quick test_smart_and;
    Alcotest.test_case "smart or" `Quick test_smart_or;
    Alcotest.test_case "smart not" `Quick test_smart_not;
    Alcotest.test_case "smart quantifiers" `Quick test_smart_quantifiers;
    Alcotest.test_case "implies iff" `Quick test_implies_iff;
    Alcotest.test_case "quantifier rank" `Quick test_quantifier_rank;
    Alcotest.test_case "free vars" `Quick test_free_vars;
    Alcotest.test_case "colors used" `Quick test_colors_used;
    Alcotest.test_case "size" `Quick test_size;
    Alcotest.test_case "substitute free" `Quick test_substitute_free;
    Alcotest.test_case "substitute avoids capture" `Quick
      test_substitute_avoids_capture;
    Alcotest.test_case "substitute bound untouched" `Quick
      test_substitute_bound_untouched;
    Alcotest.test_case "map atoms" `Quick test_map_atoms;
    Alcotest.test_case "nnf" `Quick test_nnf;
    Alcotest.test_case "simplify" `Quick test_simplify;
    Alcotest.test_case "fresh var" `Quick test_fresh_var;
    Alcotest.test_case "parse atoms" `Quick test_parse_atoms;
    Alcotest.test_case "parse precedence" `Quick test_parse_precedence;
    Alcotest.test_case "parse quantifiers" `Quick test_parse_quantifiers;
    Alcotest.test_case "parse errors" `Quick test_parse_errors;
    Alcotest.test_case "dist_le semantics" `Quick test_dist_le_semantics;
    Alcotest.test_case "dist_le rank" `Quick test_dist_le_rank;
    Alcotest.test_case "relativize local" `Quick test_relativize_local;
    Alcotest.test_case "gaifman radius" `Quick test_gaifman_radius;
    Alcotest.test_case "rank overhead" `Quick test_rank_overhead;
    QCheck_alcotest.to_alcotest pp_matches_reference;
    QCheck_alcotest.to_alcotest output_matches_pp;
    QCheck_alcotest.to_alcotest output_matches_pp_shared;
    QCheck_alcotest.to_alcotest parser_roundtrip;
    QCheck_alcotest.to_alcotest rename_matches_refresh;
    QCheck_alcotest.to_alcotest parser_exact_roundtrip;
    QCheck_alcotest.to_alcotest parser_exact_roundtrip_counting;
    QCheck_alcotest.to_alcotest nnf_preserves_semantics;
    QCheck_alcotest.to_alcotest relativize_is_local;
  ]
