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
  type automaton
  type input

  val total_language : alphabet:int -> automaton
  val empty_language : alphabet:int -> automaton
  val complement : automaton -> automaton
  val product : automaton -> automaton -> mode:[ `Inter | `Union ] -> automaton
  val minimize : automaton -> automaton
  val erase : automaton -> alphabet:int -> (int -> int list) -> automaton
  val singleton : sigma:int -> tracks:int -> int -> automaton
  val atom : sigma:int -> tracks:int -> (var -> int) -> t -> automaton
  val mapi_letters : (int -> int -> int) -> input -> input
  val accepts : automaton -> input -> bool
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

module Compile (S : STRUCTURE) = struct
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
      let quantify ~exists x kind body =
        let inner = go (scope @ [ (x, kind) ]) body in
        let inner = if exists then inner else S.complement inner in
        let inner =
          match kind with
          | Pos ->
              S.minimize
                (S.product inner
                   (S.singleton ~sigma ~tracks:(tracks + 1) tracks)
                   ~mode:`Inter)
          | Set -> inner
        in
        (* erase the top track *)
        let projected =
          S.minimize (S.erase inner ~alphabet (fun b -> [ b; b + alphabet ]))
        in
        if exists then projected else S.minimize (S.complement projected)
      in
      match phi with
      | MTrue -> S.minimize (S.total_language ~alphabet)
      | MFalse -> S.minimize (S.empty_language ~alphabet)
      | Letter (a, _) when a < 0 || a >= sigma ->
          invalid_arg "Mso.compile: letter out of range"
      | Letter _ | Less _ | Succ _ | Child1 _ | Child2 _ | EqPos _ | Mem _ ->
          let track x =
            match innermost scope x with Some (i, _) -> i | None -> assert false
          in
          S.minimize (S.atom ~sigma ~tracks track phi)
      | Not f -> S.minimize (S.complement (go scope f))
      | And fs ->
          S.minimize
            (List.fold_left
               (fun acc f -> S.product acc (go scope f) ~mode:`Inter)
               (S.total_language ~alphabet)
               fs)
      | Or fs ->
          S.minimize
            (List.fold_left
               (fun acc f -> S.product acc (go scope f) ~mode:`Union)
               (S.empty_language ~alphabet)
               fs)
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

let bit mask i = (mask lsr i) land 1 = 1

(* Build a DFA over alphabet sigma * 2^tracks from an explicit
   state-machine description: start state 0, [next state letter bitmask]
   and accepting states.  [None] is a rejecting sink. *)
let machine ~sigma ~tracks ~states ~next ~accepting =
  let alphabet = sigma lsl tracks in
  let total = states + 1 in
  let sink = states in
  let delta =
    Array.init total (fun q ->
        Array.init alphabet (fun l ->
            if q = sink then sink
            else begin
              let a = l mod sigma and mask = l / sigma in
              match next q a mask with Some q' -> q' | None -> sink
            end))
  in
  let accept = Array.init total (fun q -> q <> sink && accepting q) in
  Dfa.create ~states:total ~alphabet ~start:0 ~delta ~accept

(* one mark on track t, at a position whose letter and track mask pass
   [ok] *)
let one_mark ~sigma ~tracks t ok =
  machine ~sigma ~tracks ~states:2
    ~next:(fun q letter mask ->
      match (q, bit mask t) with
      | 0, false -> Some 0
      | 0, true -> if ok letter mask then Some 1 else None
      | 1, false -> Some 1
      | _ -> None)
    ~accepting:(fun q -> q = 1)

module Words = struct
  type automaton = Dfa.t
  type input = int array

  let total_language = Dfa.total_language
  let empty_language = Dfa.empty_language
  let complement = Dfa.complement
  let product = Dfa.product
  let minimize = Dfa.minimize

  let erase d ~alphabet preimages =
    Nfa.determinize (Nfa.project d ~alphabet preimages)

  let singleton ~sigma ~tracks t = one_mark ~sigma ~tracks t (fun _ _ -> true)
  let mapi_letters = Array.mapi
  let accepts = Dfa.accepts

  let atom ~sigma ~tracks track = function
    | Letter (a, x) -> one_mark ~sigma ~tracks (track x) (fun l _ -> l = a)
    | Mem (x, bigx) ->
        let ts = track bigx in
        one_mark ~sigma ~tracks (track x) (fun _ mask -> bit mask ts)
    | Less (x, y) ->
        let tx = track x and ty = track y in
        machine ~sigma ~tracks ~states:3
          ~next:(fun q _ mask ->
            let mx = bit mask tx and my = bit mask ty in
            match q with
            | 0 -> (
                match (mx, my) with
                | false, false -> Some 0
                | true, false -> Some 1
                | _ -> None)
            | 1 -> (
                match (mx, my) with
                | false, false -> Some 1
                | false, true -> Some 2
                | _ -> None)
            | 2 -> if mx || my then None else Some 2
            | _ -> None)
          ~accepting:(fun q -> q = 2)
    | Succ (x, y) ->
        let tx = track x and ty = track y in
        machine ~sigma ~tracks ~states:3
          ~next:(fun q _ mask ->
            let mx = bit mask tx and my = bit mask ty in
            match q with
            | 0 -> (
                match (mx, my) with
                | false, false -> Some 0
                | true, false -> Some 1
                | _ -> None)
            | 1 -> if my && not mx then Some 2 else None
            | 2 -> if mx || my then None else Some 2
            | _ -> None)
          ~accepting:(fun q -> q = 2)
    | EqPos (x, y) ->
        let tx = track x and ty = track y in
        machine ~sigma ~tracks ~states:2
          ~next:(fun q _ mask ->
            let mx = bit mask tx and my = bit mask ty in
            match q with
            | 0 -> (
                match (mx, my) with
                | false, false -> Some 0
                | true, true -> Some 1
                | _ -> None)
            | 1 -> if mx || my then None else Some 1
            | _ -> None)
          ~accepting:(fun q -> q = 1)
    | atom -> foreign ~structure:"words" atom
end

include Compile (Words)

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
