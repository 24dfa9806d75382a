open Fo

type budget = {
  max_rank : int option;
  max_free : int option;
  radius : int option;
}

let no_budget = { max_rank = None; max_free = None; radius = None }
let budget ?max_rank ?max_free ?radius () = { max_rank; max_free; radius }

module VSet = Set.Make (String)

(* ------------------------------------------------------------------ *)
(* Paths                                                               *)
(* ------------------------------------------------------------------ *)

(* Breadcrumbs are built in reverse (innermost first) and flipped when a
   diagnostic is emitted. *)
let step_binder kind x = Printf.sprintf "%s %s" kind x
let step_junct kind i = Printf.sprintf "%s[%d]" kind (i + 1)

let at path = List.rev path

(* ------------------------------------------------------------------ *)
(* Signature conformance                                               *)
(* ------------------------------------------------------------------ *)

let check_atom_signature vocab path acc atom =
  let use name used_arity rendered =
    match Vocab.arity vocab name with
    | None ->
        Diagnostic.make ~path:(at path) ~rule:"unknown-relation"
          (Printf.sprintf
             "relation %S in atom %s is not declared in the vocabulary [%s]"
             name rendered
             (Format.asprintf "%a" Vocab.pp vocab))
        :: acc
    | Some a when a <> used_arity ->
        Diagnostic.make ~path:(at path) ~rule:"arity-mismatch"
          (Printf.sprintf
             "relation %S is declared with arity %d but atom %s applies it \
              to %d argument%s"
             name a rendered used_arity (if used_arity = 1 then "" else "s"))
        :: acc
    | Some _ -> acc
  in
  match atom with
  | Formula.Eq _ -> acc (* equality is a logical symbol *)
  | Formula.Edge (x, y) -> use "E" 2 (Printf.sprintf "E(%s, %s)" x y)
  | Formula.Color (c, x) -> use c 1 (Printf.sprintf "%s(%s)" c x)

let signature_pass vocab f =
  let rec go path acc f =
    match f with
    | Formula.True | Formula.False -> acc
    | Formula.Atom a -> check_atom_signature vocab path acc a
    | Formula.Not g -> go ("~" :: path) acc g
    | Formula.And fs ->
        List.fold_left
          (fun (i, acc) g -> (i + 1, go (step_junct "and" i :: path) acc g))
          (0, acc) fs
        |> snd
    | Formula.Or fs ->
        List.fold_left
          (fun (i, acc) g -> (i + 1, go (step_junct "or" i :: path) acc g))
          (0, acc) fs
        |> snd
    | Formula.Implies (a, b) ->
        go ("->rhs" :: path) (go ("->lhs" :: path) acc a) b
    | Formula.Iff (a, b) ->
        go ("<->rhs" :: path) (go ("<->lhs" :: path) acc a) b
    | Formula.Exists (x, g) -> go (step_binder "exists" x :: path) acc g
    | Formula.Forall (x, g) -> go (step_binder "forall" x :: path) acc g
    | Formula.CountGe (t, x, g) ->
        go (step_binder (Printf.sprintf "atleast %d" t) x :: path) acc g
  in
  List.rev (go [] [] f)

(* ------------------------------------------------------------------ *)
(* Scope analysis                                                      *)
(* ------------------------------------------------------------------ *)

let scope_pass ?allowed_free f =
  let reported_unbound = ref VSet.empty in
  let use path acc x bound =
    match allowed_free with
    | None -> acc
    | Some allowed ->
        if VSet.mem x bound || List.mem x allowed
           || VSet.mem x !reported_unbound
        then acc
        else begin
          reported_unbound := VSet.add x !reported_unbound;
          Diagnostic.make ~path:(at path) ~rule:"unbound-variable"
            (Printf.sprintf
               "variable %S occurs free but is not among the interface \
                variables [%s]"
               x
               (String.concat "; " allowed))
          :: acc
        end
  in
  let bind kind path acc x body bound =
    let acc =
      let shadows_bound = VSet.mem x bound in
      let shadows_free =
        match allowed_free with Some l -> List.mem x l | None -> false
      in
      if shadows_bound || shadows_free then
        Diagnostic.make ~path:(at path) ~rule:"shadowed-binder"
          (Printf.sprintf "%s %s re-binds %s %S already in scope" kind x
             (if shadows_bound then "the bound variable"
              else "the interface variable")
             x)
        :: acc
      else acc
    in
    if VSet.mem x (Formula.free_vars body |> VSet.of_list) then acc
    else
      Diagnostic.make ~path:(at path) ~rule:"vacuous-quantifier"
        (Printf.sprintf
           "%s %s binds a variable that does not occur free in its body \
            (one unit of quantifier rank for nothing)"
           kind x)
      :: acc
  in
  let rec go path bound acc f =
    match f with
    | Formula.True | Formula.False -> acc
    | Formula.Atom (Formula.Eq (x, y)) | Formula.Atom (Formula.Edge (x, y)) ->
        use path (use path acc x bound) y bound
    | Formula.Atom (Formula.Color (_, x)) -> use path acc x bound
    | Formula.Not g -> go ("~" :: path) bound acc g
    | Formula.And fs ->
        List.fold_left
          (fun (i, acc) g ->
            (i + 1, go (step_junct "and" i :: path) bound acc g))
          (0, acc) fs
        |> snd
    | Formula.Or fs ->
        List.fold_left
          (fun (i, acc) g ->
            (i + 1, go (step_junct "or" i :: path) bound acc g))
          (0, acc) fs
        |> snd
    | Formula.Implies (a, b) ->
        go ("->rhs" :: path) bound (go ("->lhs" :: path) bound acc a) b
    | Formula.Iff (a, b) ->
        go ("<->rhs" :: path) bound (go ("<->lhs" :: path) bound acc a) b
    | Formula.Exists (x, g) ->
        let path = step_binder "exists" x :: path in
        go path (VSet.add x bound) (bind "exists" path acc x g bound) g
    | Formula.Forall (x, g) ->
        let path = step_binder "forall" x :: path in
        go path (VSet.add x bound) (bind "forall" path acc x g bound) g
    | Formula.CountGe (t, x, g) ->
        let kind = Printf.sprintf "atleast %d" t in
        let path = step_binder kind x :: path in
        go path (VSet.add x bound) (bind kind path acc x g bound) g
  in
  List.rev (go [] VSet.empty [] f)

(* ------------------------------------------------------------------ *)
(* Budget verification                                                 *)
(* ------------------------------------------------------------------ *)

(* Walk down with the remaining rank budget and report the first binder
   on each branch that crosses it (rather than one toplevel count), so
   the path points at the offending quantifier. *)
let rank_pass ~max_rank f =
  let total = Formula.quantifier_rank f in
  let rec go path remaining acc f =
    match f with
    | Formula.True | Formula.False | Formula.Atom _ -> acc
    | Formula.Not g -> go ("~" :: path) remaining acc g
    | Formula.And fs | Formula.Or fs ->
        let kind = match f with Formula.And _ -> "and" | _ -> "or" in
        List.fold_left
          (fun (i, acc) g ->
            (i + 1, go (step_junct kind i :: path) remaining acc g))
          (0, acc) fs
        |> snd
    | Formula.Implies (a, b) ->
        go ("->rhs" :: path) remaining (go ("->lhs" :: path) remaining acc a) b
    | Formula.Iff (a, b) ->
        go ("<->rhs" :: path) remaining
          (go ("<->lhs" :: path) remaining acc a)
          b
    | Formula.Exists (x, g) | Formula.Forall (x, g)
    | Formula.CountGe (_, x, g) ->
        let kind =
          match f with
          | Formula.Exists _ -> "exists"
          | Formula.Forall _ -> "forall"
          | _ -> "atleast"
        in
        let path = step_binder kind x :: path in
        if remaining = 0 && Formula.quantifier_rank f > 0 then
          Diagnostic.make ~path:(at path) ~rule:"rank-over-budget"
            (Printf.sprintf
               "this quantifier exceeds the rank budget: the formula has \
                quantifier rank %d, the class Phi(q, k, l) admits q = %d"
               total max_rank)
          :: acc
        else go path (remaining - 1) acc g
  in
  if total <= max_rank then []
  else List.rev (go [] max_rank [] f)

let free_pass ~max_free f =
  let fv = Formula.free_vars f in
  if List.length fv <= max_free then []
  else
    [
      Diagnostic.make ~rule:"free-over-budget"
        (Printf.sprintf
           "formula has %d free variables [%s], over the budget of %d \
            (k example slots plus l parameter slots)"
           (List.length fv) (String.concat "; " fv) max_free);
    ]

(* ------------------------------------------------------------------ *)
(* Locality                                                            *)
(* ------------------------------------------------------------------ *)

(* Recognise the output shapes of Localize.dist_le:
     d = 0           x = y
     d = 1           x = y \/ E(x, y)
     d = a + b       exists z. (dist_le a x z /\ dist_le b z y)        *)
let rec as_dist_le f =
  match f with
  | Formula.Atom (Formula.Eq (x, y)) -> Some (x, y, 0)
  | Formula.Or [ Formula.Atom (Formula.Eq (x, y)); Formula.Atom (Formula.Edge (x', y')) ]
    when x = x' && y = y' ->
      Some (x, y, 1)
  | Formula.Exists (z, Formula.And [ a; b ]) -> (
      match (as_dist_le a, as_dist_le b) with
      | Some (x, z1, d1), Some (z2, y, d2)
        when z1 = z && z2 = z && x <> z && y <> z ->
          Some (x, y, d1 + d2)
      | _ -> None)
  | _ -> None

(* Recognise Localize.ball_membership ~r centers y — a disjunction of
   dist_le formulas all guarding the same source variable [y].  The
   smart constructor or_ flattens the r = 1 disjuncts into the outer
   disjunction, so juncts are parsed greedily: an equality immediately
   followed by the matching edge atom is one radius-1 guard. *)
let as_ball_guard y f =
  let rec parse acc = function
    | [] -> Some (List.rev acc)
    | Formula.Atom (Formula.Eq (s, c)) :: Formula.Atom (Formula.Edge (s', c')) :: rest
      when s = y && s' = y && c = c' ->
        parse ((c, 1) :: acc) rest
    | junct :: rest -> (
        match as_dist_le junct with
        | Some (s, c, d) when s = y -> parse ((c, d) :: acc) rest
        | _ -> None)
  in
  match f with Formula.Or fs -> parse [] fs | f -> parse [] [ f ]

(* Reach of a bound variable: an upper bound on its distance from the
   interface variables, accumulated through chained guards.  A guard
   [\/_i dist(y, c_i) <= d_i] places y within max_i (reach c_i + d_i)
   (the disjunction only promises SOME centre, so the max is the sound
   bound). *)
type reach_result = {
  max_reach : int;
  offenders : (string list * string * int) list;
      (* path, binder rendering, rank of the unguarded subformula *)
}

let locality_walk ~around f =
  let offenders = ref [] in
  let max_reach = ref 0 in
  let reach_env0 =
    List.fold_left (fun m x -> (x, 0) :: m) [] around
  in
  let guard_reach env centers =
    List.fold_left
      (fun acc (c, d) ->
        match (acc, List.assoc_opt c env) with
        | Some m, Some rc -> Some (max m (rc + d))
        | _ -> None)
      (Some 0) centers
  in
  let offend path kind x g =
    offenders :=
      (at path, step_binder kind x, 1 + Formula.quantifier_rank g)
      :: !offenders
  in
  let rec go path env f =
    match f with
    | Formula.True | Formula.False | Formula.Atom _ -> ()
    | _ when is_bounded_dist env f -> ()
    | Formula.Not g -> go ("~" :: path) env g
    | Formula.And fs ->
        List.iteri (fun i g -> go (step_junct "and" i :: path) env g) fs
    | Formula.Or fs ->
        List.iteri (fun i g -> go (step_junct "or" i :: path) env g) fs
    | Formula.Implies (a, b) ->
        go ("->lhs" :: path) env a;
        go ("->rhs" :: path) env b
    | Formula.Iff (a, b) ->
        go ("<->lhs" :: path) env a;
        go ("<->rhs" :: path) env b
    | Formula.Exists (x, body) ->
        quant path env "exists" x body
          (function
            | Formula.And (g :: rest) -> Some (g, Formula.and_ rest)
            | g -> (match as_ball_guard x g with
                    | Some _ -> Some (g, Formula.True)
                    | None -> None))
    | Formula.Forall (x, body) ->
        quant path env "forall" x body
          (function
            | Formula.Implies (g, rest) -> Some (g, rest)
            | Formula.Not g ->
                (* [implies g False] simplifies to [Not g], so a
                   relativised forall with body [False] reaches us in
                   this shape. *)
                (match as_ball_guard x g with
                 | Some _ -> Some (g, Formula.False)
                 | None -> None)
            | _ -> None)
    | Formula.CountGe (t, x, body) ->
        quant path env (Printf.sprintf "atleast %d" t) x body
          (function
            | Formula.And (g :: rest) -> Some (g, Formula.and_ rest)
            | g -> (match as_ball_guard x g with
                    | Some _ -> Some (g, Formula.True)
                    | None -> None))
  and quant path env kind x body split =
    let path = step_binder kind x :: path in
    match split body with
    | Some (g, rest) -> (
        match as_ball_guard x g with
        | Some centers -> (
            match guard_reach env centers with
            | Some r ->
                max_reach := max !max_reach r;
                go path ((x, r) :: env) rest
            | None -> offend path kind x body)
        | None -> offend path kind x body)
    | None -> offend path kind x body
  and is_bounded_dist env f =
    (* a raw dist_le used as a subformula (not a quantifier guard) is
       local as long as one endpoint has bounded reach *)
    match as_dist_le f with
    | Some (a, b, _) ->
        List.mem_assoc a env || List.mem_assoc b env
    | None -> false
  in
  go [] reach_env0 f;
  { max_reach = !max_reach; offenders = List.rev !offenders }

let inferred_radius ~around f =
  let { max_reach; offenders } = locality_walk ~around f in
  if offenders = [] then Some max_reach else None

let gaifman_fallback rank =
  if rank > 21 then
    Printf.sprintf
      "r(%d) = (7^%d - 1)/2, astronomically large (overflows 63 bits)" rank
      rank
  else Printf.sprintf "r(%d) = %d" rank (Gaifman.radius rank)

let locality_pass ~radius ~around f =
  let { max_reach; offenders } = locality_walk ~around f in
  let unguarded =
    List.map
      (fun (path, binder, rank) ->
        Diagnostic.make ~path ~rule:"non-local"
          (Printf.sprintf
             "%s is not relativised to a neighbourhood of the interface \
              variables [%s]; Gaifman's theorem guarantees locality only \
              at radius %s for its quantifier rank %d"
             binder
             (String.concat "; " around)
             (gaifman_fallback rank) rank))
      offenders
  in
  if unguarded <> [] then unguarded
  else if max_reach > radius then
    [
      Diagnostic.make ~rule:"non-local"
        (Printf.sprintf
           "formula is syntactically %d-local, over the declared locality \
            radius budget r = %d"
           max_reach radius);
    ]
  else []

(* ------------------------------------------------------------------ *)
(* Simplification hints                                                *)
(* ------------------------------------------------------------------ *)

let hints_pass f =
  let junction kind path acc fs =
    let acc =
      let rec dup i seen acc = function
        | [] -> acc
        | g :: rest ->
            if List.exists (Formula.equal g) seen then
              dup (i + 1) seen
                (Diagnostic.make
                   ~path:(at (step_junct kind i :: path))
                   ~rule:"duplicate-junct"
                   (Printf.sprintf
                      "%s repeats the subformula %s; drop the duplicate" kind
                      (Formula.to_string g))
                :: acc)
                rest
            else dup (i + 1) (g :: seen) acc rest
      in
      dup 0 [] acc fs
    in
    let absorbing = if kind = "and" then Formula.False else Formula.True in
    if List.exists (Formula.equal absorbing) fs then
      Diagnostic.make ~path:(at path) ~rule:"constant-junct"
        (Printf.sprintf "%s contains %s, so the whole junction is %s" kind
           (Formula.to_string absorbing)
           (Formula.to_string absorbing))
      :: acc
    else acc
  in
  let rec go path acc f =
    match f with
    | Formula.True | Formula.False -> acc
    | Formula.Atom (Formula.Eq (x, y)) when x = y ->
        Diagnostic.make ~path:(at path) ~rule:"trivial-atom"
          (Printf.sprintf "%s = %s is always true" x y)
        :: acc
    | Formula.Atom (Formula.Edge (x, y)) when x = y ->
        Diagnostic.make ~path:(at path) ~rule:"trivial-atom"
          (Printf.sprintf "E(%s, %s) is always false on loop-free graphs" x y)
        :: acc
    | Formula.Atom _ -> acc
    | Formula.Not (Formula.Not g) ->
        go ("~" :: "~" :: path)
          (Diagnostic.make ~path:(at path) ~rule:"double-negation"
             "double negation; ~~phi is phi"
          :: acc)
          g
    | Formula.Not g -> go ("~" :: path) acc g
    | Formula.And fs ->
        let acc = junction "and" path acc fs in
        List.fold_left
          (fun (i, acc) g ->
            (i + 1, go (step_junct "and" i :: path) acc g))
          (0, acc) fs
        |> snd
    | Formula.Or fs ->
        let acc = junction "or" path acc fs in
        List.fold_left
          (fun (i, acc) g -> (i + 1, go (step_junct "or" i :: path) acc g))
          (0, acc) fs
        |> snd
    | Formula.Implies (a, b) ->
        go ("->rhs" :: path) (go ("->lhs" :: path) acc a) b
    | Formula.Iff (a, b) ->
        go ("<->rhs" :: path) (go ("<->lhs" :: path) acc a) b
    | Formula.Exists (x, g) -> go (step_binder "exists" x :: path) acc g
    | Formula.Forall (x, g) -> go (step_binder "forall" x :: path) acc g
    | Formula.CountGe (t, x, g) ->
        go (step_binder (Printf.sprintf "atleast %d" t) x :: path) acc g
  in
  List.rev (go [] [] f)

(* ------------------------------------------------------------------ *)
(* Driver                                                              *)
(* ------------------------------------------------------------------ *)

let check ?vocab ?allowed_free ?(budget = no_budget) f =
  let sig_ds =
    match vocab with None -> [] | Some v -> signature_pass v f
  in
  let scope_ds = scope_pass ?allowed_free f in
  let rank_ds =
    match budget.max_rank with
    | None -> []
    | Some q -> rank_pass ~max_rank:q f
  in
  let free_ds =
    match budget.max_free with
    | None -> []
    | Some k -> free_pass ~max_free:k f
  in
  let local_ds =
    match budget.radius with
    | None -> []
    | Some r ->
        let around =
          match allowed_free with
          | Some l -> l
          | None -> Formula.free_vars f
        in
        locality_pass ~radius:r ~around f
  in
  Diagnostic.sort (sig_ds @ scope_ds @ rank_ds @ free_ds @ local_ds @ hints_pass f)

(* ------------------------------------------------------------------ *)
(* Cost metadata (informational)                                       *)
(* ------------------------------------------------------------------ *)

type cost = {
  rank : int;
  free_count : int;
  size : int;
  locality_radius : int option;
  hintikka_log2 : Cost_model.Log2.t;
  ramsey_r233_log2 : Cost_model.Log2.t;
}

let colour_names f =
  let acc = ref VSet.empty in
  let rec go (f : Formula.t) =
    match f with
    | True | False -> ()
    | Atom (Color (c, _)) -> acc := VSet.add c !acc
    | Atom _ -> ()
    | Not f -> go f
    | And fs | Or fs -> List.iter go fs
    | Implies (a, b) | Iff (a, b) -> go a; go b
    | Exists (_, f) | Forall (_, f) | CountGe (_, _, f) -> go f
  in
  go f;
  VSet.elements !acc

(* The tower bounds live in [Cost_model]; both saturate to an explicit
   [Saturated] (serialised as the string "saturated") rather than to a
   float infinity, which [Obs.Json] could only encode as [null] and
   never parse back. *)
let hintikka_log2 = Cost_model.hintikka_log2
let ramsey_r233_log2 ~s_log2 = Cost_model.ramsey_r233_log2 ~s_log2

let cost ?vocab phi =
  let rank = Formula.quantifier_rank phi in
  let free = Formula.free_vars phi in
  let colors =
    match vocab with
    | Some v -> List.length (List.filter (fun n -> Vocab.arity v n = Some 1) (Vocab.names v))
    | None -> List.length (colour_names phi)
  in
  let locality_radius =
    match inferred_radius ~around:free phi with
    | Some r -> Some r
    | None -> ( try Some (Gaifman.radius rank) with Invalid_argument _ -> None)
  in
  {
    rank;
    free_count = List.length free;
    size = Formula.size phi;
    locality_radius;
    hintikka_log2 =
      hintikka_log2 ~colors ~q:rank ~k:(max 1 (List.length free));
    ramsey_r233_log2 =
      ramsey_r233_log2
        ~s_log2:(hintikka_log2 ~colors ~q:rank ~k:(max 1 (List.length free)));
  }

let cost_json c =
  Obs.Json.Obj
    [
      ("quantifier_rank", Obs.Json.Int c.rank);
      ("free_variables", Obs.Json.Int c.free_count);
      ("size", Obs.Json.Int c.size);
      ( "locality_radius",
        match c.locality_radius with
        | Some r -> Obs.Json.Int r
        | None -> Obs.Json.Null );
      (* saturated bounds encode as the string "saturated", not as a
         bare non-finite float (which [Obs.Json] writes as null) *)
      ("hintikka_log2", Cost_model.Log2.to_json c.hintikka_log2);
      ("ramsey_r233_log2", Cost_model.Log2.to_json c.ramsey_r233_log2);
    ]

let cost_diagnostic ?vocab phi =
  Diagnostic.make ~rule:"cost-metadata"
    (Obs.Json.to_string (cost_json (cost ?vocab phi)))
