type var = string

type t =
  | MTrue
  | MFalse
  | Letter of int * var
  | Less of var * var
  | Succ of var * var
  | Child1 of var * var
  | Child2 of var * var
  | EqPos of var * var
  | Mem of var * var
  | Not of t
  | And of t list
  | Or of t list
  | ExistsPos of var * t
  | ForallPos of var * t
  | ExistsSet of var * t
  | ForallSet of var * t

type kind = Pos | Set

module VMap = Map.Make (String)

let uses = function
  | Letter (_, x) -> [ (x, Pos) ]
  | Less (x, y) | Succ (x, y) | Child1 (x, y) | Child2 (x, y) | EqPos (x, y)
    ->
      [ (x, Pos); (y, Pos) ]
  | Mem (x, bigx) -> [ (x, Pos); (bigx, Set) ]
  | _ -> []

let free phi =
  let clash name =
    invalid_arg
      (Printf.sprintf "Mso: variable %S used both as position and set" name)
  in
  (* [bound]: the kind of each bound variable, innermost binding first *)
  let use bound acc (name, kind) =
    match List.assoc_opt name bound with
    | Some k -> if k <> kind then clash name else acc
    | None -> (
        match VMap.find_opt name acc with
        | Some k when k <> kind -> clash name
        | _ -> VMap.add name kind acc)
  in
  let rec go bound acc = function
    | Not f -> go bound acc f
    | And fs | Or fs -> List.fold_left (go bound) acc fs
    | ExistsPos (x, f) | ForallPos (x, f) -> go ((x, Pos) :: bound) acc f
    | ExistsSet (x, f) | ForallSet (x, f) -> go ((x, Set) :: bound) acc f
    | atom -> List.fold_left (use bound) acc (uses atom)
  in
  VMap.bindings (go [] VMap.empty phi)

(* the name of a structure-specific atom, for foreign-atom errors *)
let foreign ~structure atom =
  let name =
    match atom with
    | Less _ -> "'<'"
    | Succ _ -> "succ"
    | Child1 _ -> "child1"
    | Child2 _ -> "child2"
    | _ -> "this atom"
  in
  invalid_arg (Printf.sprintf "Mso: %s is not an atom on %s" name structure)

(* ------------------------------------------------------------------ *)
(* Direct evaluation                                                   *)
(* ------------------------------------------------------------------ *)

type assignment = {
  pos : (var * int) list;
  sets : (var * int list) list;
}

let empty_assignment = { pos = []; sets = [] }

let eval_skeleton ~size ~atom asg phi =
  let positions = List.init size Fun.id in
  let rec subsets = function
    | [] -> [ [] ]
    | p :: rest ->
        let s = subsets rest in
        s @ List.map (fun u -> p :: u) s
  in
  let rec go asg = function
    | MTrue -> true
    | MFalse -> false
    | EqPos (x, y) -> List.assoc x asg.pos = List.assoc y asg.pos
    | Mem (x, bigx) -> List.mem (List.assoc x asg.pos) (List.assoc bigx asg.sets)
    | (Letter _ | Less _ | Succ _ | Child1 _ | Child2 _) as a ->
        atom (fun x -> List.assoc x asg.pos) a
    | Not f -> not (go asg f)
    | And fs -> List.for_all (go asg) fs
    | Or fs -> List.exists (go asg) fs
    | ExistsPos (x, f) ->
        List.exists (fun p -> go { asg with pos = (x, p) :: asg.pos } f) positions
    | ForallPos (x, f) ->
        List.for_all (fun p -> go { asg with pos = (x, p) :: asg.pos } f) positions
    | ExistsSet (bigx, f) ->
        List.exists
          (fun s -> go { asg with sets = (bigx, s) :: asg.sets } f)
          (subsets positions)
    | ForallSet (bigx, f) ->
        List.for_all
          (fun s -> go { asg with sets = (bigx, s) :: asg.sets } f)
          (subsets positions)
  in
  go asg phi

let eval ~word asg phi =
  let n = Array.length word in
  eval_skeleton ~size:n asg phi ~atom:(fun pos -> function
    | Letter (a, x) ->
        let p = pos x in
        p >= 0 && p < n && word.(p) = a
    | Less (x, y) -> pos x < pos y
    | Succ (x, y) -> pos y = pos x + 1
    | atom -> foreign ~structure:"words" atom)

(* ------------------------------------------------------------------ *)
(* Compilation                                                         *)
(* ------------------------------------------------------------------ *)

module type STRUCTURE = sig
  type input

  val shape : Automaton.shape
  val atom : sigma:int -> tracks:int -> (var -> int) -> t -> Automaton.t
  val mapi_letters : (int -> int -> int) -> input -> input
  val accepts : Automaton.t -> input -> bool
end

(* the track of a variable: quantifiers append their variable at the end
   of the scope, so the innermost binding is the LAST entry *)
let innermost scope name =
  let rec find i best = function
    | [] -> best
    | (v, k) :: rest ->
        find (i + 1) (if v = name then Some (i, k) else best) rest
  in
  find 0 None scope

let bit mask i = (mask lsr i) land 1 = 1

let machine shape ~sigma ~tracks ~states ~next ~accepting =
  let sink = states in
  Automaton.tabulate shape ~states:(states + 1) ~alphabet:(sigma lsl tracks)
    (fun below l ->
      if below = [] && shape = Automaton.Words then 0
      else if List.mem sink below then sink
      else Option.value (next below (l mod sigma) (l / sigma)) ~default:sink)
    (fun q -> q <> sink && accepting q)

(* exactly one position whose track mask passes [marked], where the
   letter and mask pass [ok]: the state counts the marks below (0 or 1) *)
let one_mark shape ~sigma ~tracks marked ok =
  machine shape ~sigma ~tracks ~states:2
    ~next:(fun below a m ->
      let marks = List.fold_left ( + ) 0 below in
      if not (marked m) then if marks <= 1 then Some marks else None
      else if marks = 0 && ok a m then Some 1
      else None)
    ~accepting:(fun q -> q = 1)

module Compile (S : STRUCTURE) = struct
  module A = Automaton

  let compile ~sigma ~scope phi =
    if sigma < 1 then invalid_arg "Mso.compile: need sigma >= 1";
    List.iter
      (fun (v, k) ->
        match innermost scope v with
        | Some (_, k') when k = k' -> ()
        | Some _ ->
            invalid_arg
              (Printf.sprintf "Mso.compile: %S has the wrong kind in scope" v)
        | None ->
            invalid_arg
              (Printf.sprintf "Mso.compile: free variable %S not in scope" v))
      (free phi);
    (* [free] accepted the formula, so every variable below resolves in
       the scope with the kind its atom uses it at *)
    let rec go scope phi =
      let tracks = List.length scope in
      let alphabet = sigma lsl tracks in
      let track x =
        match innermost scope x with Some (i, _) -> i | None -> assert false
      in
      let on x m = bit m (track x) in
      let atom marked ok =
        A.minimize (one_mark S.shape ~sigma ~tracks marked ok)
      in
      let quantify ~exists x kind body =
        let inner = go (scope @ [ (x, kind) ]) body in
        let inner = if exists then inner else A.complement inner in
        let inner =
          match kind with
          | Pos ->
              let single =
                one_mark S.shape ~sigma ~tracks:(tracks + 1)
                  (fun m -> bit m tracks) (fun _ _ -> true)
              in
              A.minimize (A.product inner single ~mode:`Inter)
          | Set -> inner
        in
        (* erase the top track *)
        let projected =
          A.minimize (A.erase inner ~alphabet (fun b -> [ b; b + alphabet ]))
        in
        if exists then projected else A.minimize (A.complement projected)
      in
      match phi with
      | MTrue -> A.total S.shape ~alphabet
      | MFalse -> A.empty S.shape ~alphabet
      | Letter (a, _) when a < 0 || a >= sigma ->
          invalid_arg "Mso.compile: letter out of range"
      | Letter (a, x) -> atom (on x) (fun l _ -> l = a)
      | Mem (x, bigx) -> atom (on x) (fun _ m -> on bigx m)
      | EqPos (x, y) ->
          atom (fun m -> on x m || on y m) (fun _ m -> on x m && on y m)
      | Less _ | Succ _ | Child1 _ | Child2 _ ->
          A.minimize (S.atom ~sigma ~tracks track phi)
      | Not f -> A.minimize (A.complement (go scope f))
      | And fs ->
          A.minimize
            (List.fold_left
               (fun acc f -> A.product acc (go scope f) ~mode:`Inter)
               (A.total S.shape ~alphabet) fs)
      | Or fs ->
          A.minimize
            (List.fold_left
               (fun acc f -> A.product acc (go scope f) ~mode:`Union)
               (A.empty S.shape ~alphabet) fs)
      | ExistsPos (x, f) -> quantify ~exists:true x Pos f
      | ForallPos (x, f) -> quantify ~exists:false x Pos f
      | ExistsSet (x, f) -> quantify ~exists:true x Set f
      | ForallSet (x, f) -> quantify ~exists:false x Set f
    in
    go scope phi

  (* encode the assignment as track marks on the input's letters *)
  let annotate ~sigma ~scope input asg =
    let tracks = List.mapi (fun t entry -> (t, entry)) scope in
    S.mapi_letters
      (fun i a ->
        if a < 0 || a >= sigma then
          invalid_arg "Mso.annotate: letter out of range";
        let mask =
          List.fold_left
            (fun acc (t, (v, kind)) ->
              let marked =
                match kind with
                | Pos -> List.assoc v asg.pos = i
                | Set -> List.mem i (List.assoc v asg.sets)
              in
              if marked then acc lor (1 lsl t) else acc)
            0 tracks
        in
        a + (sigma * mask))
      input

  let holds_compiled ~sigma ~scope a input asg =
    S.accepts a (annotate ~sigma ~scope input asg)
end

include Compile (struct
  type input = int array

  let shape = Automaton.Words
  let mapi_letters = Array.mapi
  let accepts = Automaton.accepts_word

  (* states: 0 = before x, 1 = x seen, 2 = y seen after x ([Succ]: right
     after) *)
  let atom ~sigma ~tracks track = function
    | (Less (x, y) | Succ (x, y)) as atom ->
        let tx = track x and ty = track y in
        let gap = match atom with Less _ -> true | _ -> false in
        machine Automaton.Words ~sigma ~tracks ~states:3
          ~next:(fun below _ m ->
            match (below, bit m tx, bit m ty) with
            | [ q ], false, false when q <> 1 || gap -> Some q
            | [ 0 ], true, false -> Some 1
            | [ 1 ], false, true -> Some 2
            | _ -> None)
          ~accepting:(fun q -> q = 2)
    | atom -> foreign ~structure:"words" atom
end)

(* precedence: 0 = quantifiers/top, 2 = or, 3 = and, 4 = unary *)
let pp ~letters ppf phi =
  let letter a =
    match List.nth_opt letters a with
    | Some l -> l
    | None -> invalid_arg (Printf.sprintf "Mso.pp: letter %d out of alphabet" a)
  in
  let rec go lvl ppf f =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match f with
    | MTrue -> Format.pp_print_string ppf "true"
    | MFalse -> Format.pp_print_string ppf "false"
    | Letter (a, x) -> Format.fprintf ppf "%s(%s)" (letter a) x
    | Less (x, y) -> Format.fprintf ppf "%s < %s" x y
    | Succ (x, y) -> Format.fprintf ppf "succ(%s, %s)" x y
    | Child1 (x, y) -> Format.fprintf ppf "child1(%s, %s)" x y
    | Child2 (x, y) -> Format.fprintf ppf "child2(%s, %s)" x y
    | EqPos (x, y) -> Format.fprintf ppf "%s = %s" x y
    | Mem (x, bigx) -> Format.fprintf ppf "%s in %s" x bigx
    | Not f ->
        Format.pp_print_string ppf "~";
        go 4 ppf f
    | And fs ->
        paren (lvl > 3) (fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " /\\ ")
              (go 4) ppf fs)
    | Or fs ->
        paren (lvl > 2) (fun ppf ->
            Format.pp_print_list
              ~pp_sep:(fun ppf () -> Format.fprintf ppf " \\/ ")
              (go 3) ppf fs)
    | ExistsPos (x, f) ->
        paren (lvl > 0) (fun ppf -> Format.fprintf ppf "exists %s. %a" x (go 0) f)
    | ForallPos (x, f) ->
        paren (lvl > 0) (fun ppf -> Format.fprintf ppf "forall %s. %a" x (go 0) f)
    | ExistsSet (x, f) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "existsset %s. %a" x (go 0) f)
    | ForallSet (x, f) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "forallset %s. %a" x (go 0) f)
  in
  go 0 ppf phi

let to_string ~letters phi = Format.asprintf "%a" (pp ~letters) phi

let language ~sigma phi =
  if free phi <> [] then
    invalid_arg "Mso.language: formula has free variables";
  compile ~sigma ~scope:[] phi
