(* Every rule walks the one MSO AST, words and trees alike. *)

module F = Mso.Formula
module VSet = Set.Make (String)
module VMap = Map.Make (String)

let kind_name = function F.Pos -> "position" | F.Set -> "set"

let binder_step existential kind x =
  Printf.sprintf "%s%s %s"
    (if existential then "exists" else "forall")
    (match kind with F.Pos -> "" | F.Set -> "set")
    x

let junct_step conj i =
  Printf.sprintf "%s[%d]" (if conj then "and" else "or") (i + 1)

let rec rank = function
  | F.ExistsPos (_, g) | F.ForallPos (_, g) | F.ExistsSet (_, g)
  | F.ForallSet (_, g) ->
      1 + rank g
  | F.Not g -> rank g
  | F.And gs | F.Or gs -> List.fold_left (fun acc g -> max acc (rank g)) 0 gs
  | _ -> 0

(* free variable names, without the kind checks of [F.free] *)
let rec free_set = function
  | F.ExistsPos (x, g) | F.ForallPos (x, g) | F.ExistsSet (x, g)
  | F.ForallSet (x, g) ->
      VSet.remove x (free_set g)
  | F.Not g -> free_set g
  | F.And gs | F.Or gs ->
      List.fold_left (fun acc g -> VSet.union acc (free_set g)) VSet.empty gs
  | atom -> VSet.of_list (List.map fst (F.uses atom))

let check ?sigma ?allowed_free ?max_rank phi =
  let diags = ref [] in
  let emit ~path ~rule msg =
    diags := Diagnostic.make ~path:(List.rev path) ~rule msg :: !diags
  in
  let total_rank = rank phi in
  (* kinds: the kind a variable was first seen with (bound or free),
     per scope for bound variables, global for free ones *)
  let free_kinds = ref VMap.empty in
  let reported_unbound = ref VSet.empty in
  let reported_clash = ref VSet.empty in
  let clash path x k1 k2 =
    if not (VSet.mem x !reported_clash) then begin
      reported_clash := VSet.add x !reported_clash;
      emit ~path ~rule:"kind-clash"
        (Printf.sprintf
           "variable %S is used both as a %s variable and as a %s variable"
           x (kind_name k1) (kind_name k2))
    end
  in
  let use path env (x, k) =
    match VMap.find_opt x env with
    | Some k' -> if k <> k' then clash path x k' k
    | None -> (
        (match VMap.find_opt x !free_kinds with
        | Some k' -> if k <> k' then clash path x k' k
        | None -> free_kinds := VMap.add x k !free_kinds);
        match allowed_free with
        | Some allowed
          when (not (List.mem x allowed))
               && not (VSet.mem x !reported_unbound) ->
            reported_unbound := VSet.add x !reported_unbound;
            emit ~path ~rule:"unbound-variable"
              (Printf.sprintf
                 "variable %S occurs free but is not among the interface \
                  variables [%s]"
                 x
                 (String.concat "; " allowed))
        | _ -> ())
  in
  let rec go path env remaining = function
    | ( F.ExistsPos (x, body)
      | F.ForallPos (x, body)
      | F.ExistsSet (x, body)
      | F.ForallSet (x, body) ) as q ->
        let existential =
          match q with F.ExistsPos _ | F.ExistsSet _ -> true | _ -> false
        in
        let kind =
          match q with F.ExistsPos _ | F.ForallPos _ -> F.Pos | _ -> F.Set
        in
        let path = binder_step existential kind x :: path in
        (match max_rank with
        | Some _ when remaining = 0 ->
            emit ~path ~rule:"rank-over-budget"
              (Printf.sprintf
                 "this quantifier exceeds the rank budget: the formula has \
                  quantifier rank %d, the declared budget is %d"
                 total_rank
                 (Option.get max_rank))
        | _ ->
            let shadows_bound = VMap.mem x env in
            let shadows_free =
              match allowed_free with
              | Some l -> List.mem x l
              | None -> false
            in
            if shadows_bound || shadows_free then
              emit ~path ~rule:"shadowed-binder"
                (Printf.sprintf "binder re-binds %s %S already in scope"
                   (if shadows_bound then "the bound variable"
                    else "the interface variable")
                   x);
            if not (VSet.mem x (free_set body)) then
              emit ~path ~rule:"vacuous-quantifier"
                (Printf.sprintf
                   "quantifier binds %s variable %S that does not occur \
                    free in its body"
                   (kind_name kind) x);
            go path (VMap.add x kind env) (remaining - 1) body)
    | F.MTrue | F.MFalse -> ()
    | F.Not (F.Not g) ->
        emit ~path ~rule:"double-negation" "double negation; ~~phi is phi";
        go ("~" :: "~" :: path) env remaining g
    | F.Not g -> go ("~" :: path) env remaining g
    | (F.And gs | F.Or gs) as junct ->
        let conj = match junct with F.And _ -> true | _ -> false in
        let rec dup i seen = function
          | [] -> ()
          | g :: rest ->
              if List.mem g seen then
                emit
                  ~path:(junct_step conj i :: path)
                  ~rule:"duplicate-junct"
                  (Printf.sprintf "%s repeats a subformula; drop the duplicate"
                     (if conj then "conjunction" else "disjunction"));
              dup (i + 1) (g :: seen) rest
        in
        dup 0 [] gs;
        if List.mem (if conj then F.MFalse else F.MTrue) gs then
          emit ~path ~rule:"constant-junct"
            (Printf.sprintf "%s contains %s, so the whole junction is %s"
               (if conj then "conjunction" else "disjunction")
               (if conj then "false" else "true")
               (if conj then "false" else "true"));
        List.iteri
          (fun i g -> go (junct_step conj i :: path) env remaining g)
          gs
    | atom ->
        List.iter (use path env) (F.uses atom);
        (match (atom, sigma) with
        | F.Letter (a, x), Some s when a < 0 || a >= s ->
            emit ~path ~rule:"unknown-letter"
              (Printf.sprintf
                 "atom letter_%d(%s) uses letter index %d outside the \
                  declared alphabet 0..%d"
                 a x a (s - 1))
        | _ -> ())
  in
  let remaining = match max_rank with Some q -> q | None -> max_int in
  go [] VMap.empty remaining phi;
  Diagnostic.sort (List.rev !diags)

