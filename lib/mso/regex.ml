type t =
  | Empty
  | Eps
  | Letter of int
  | Seq of t * t
  | Alt of t * t
  | Star of t

let letter a = Letter a

let seq2 a b =
  match (a, b) with
  | Empty, _ | _, Empty -> Empty
  | Eps, r | r, Eps -> r
  | a, b -> Seq (a, b)

let alt2 a b =
  match (a, b) with
  | Empty, r | r, Empty -> r
  | a, b -> if a = b then a else Alt (a, b)

let seq rs = List.fold_right seq2 rs Eps
let alt rs = List.fold_right alt2 rs Empty

let star = function
  | Empty | Eps -> Eps
  | Star _ as r -> r
  | r -> Star r

let plus r = seq2 r (star r)
let opt r = alt2 r Eps
let any ~sigma = alt (List.init sigma letter)
let all ~sigma = star (any ~sigma)

let rec nullable = function
  | Empty | Letter _ -> false
  | Eps | Star _ -> true
  | Seq (a, b) -> nullable a && nullable b
  | Alt (a, b) -> nullable a || nullable b

(* Brzozowski derivative *)
let rec deriv a = function
  | Empty | Eps -> Empty
  | Letter b -> if a = b then Eps else Empty
  | Seq (r, s) ->
      let left = seq2 (deriv a r) s in
      if nullable r then alt2 left (deriv a s) else left
  | Alt (r, s) -> alt2 (deriv a r) (deriv a s)
  | Star r as whole -> seq2 (deriv a r) whole

let matches r word =
  nullable (Array.fold_left (fun r a -> deriv a r) r word)

(* --------------------------------------------------------------- *)
(* Glushkov position automaton                                      *)
(* --------------------------------------------------------------- *)

module ISet = Set.Make (Int)

(* linearise: annotate each letter occurrence with a position id *)
type lin =
  | LEmpty
  | LEps
  | LLetter of int * int  (* letter, position *)
  | LSeq of lin * lin
  | LAlt of lin * lin
  | LStar of lin

let linearise r =
  let count = ref 0 in
  let letters = ref [] in
  let rec go = function
    | Empty -> LEmpty
    | Eps -> LEps
    | Letter a ->
        incr count;
        letters := (!count, a) :: !letters;
        LLetter (a, !count)
    | Seq (x, y) ->
        let x' = go x in
        let y' = go y in
        LSeq (x', y')
    | Alt (x, y) ->
        let x' = go x in
        let y' = go y in
        LAlt (x', y')
    | Star x -> LStar (go x)
  in
  let l = go r in
  (l, !count, !letters)

let rec lnullable = function
  | LEmpty | LLetter _ -> false
  | LEps | LStar _ -> true
  | LSeq (a, b) -> lnullable a && lnullable b
  | LAlt (a, b) -> lnullable a || lnullable b

let rec first = function
  | LEmpty | LEps -> ISet.empty
  | LLetter (_, p) -> ISet.singleton p
  | LSeq (a, b) ->
      if lnullable a then ISet.union (first a) (first b) else first a
  | LAlt (a, b) -> ISet.union (first a) (first b)
  | LStar a -> first a

let rec last = function
  | LEmpty | LEps -> ISet.empty
  | LLetter (_, p) -> ISet.singleton p
  | LSeq (a, b) ->
      if lnullable b then ISet.union (last a) (last b) else last b
  | LAlt (a, b) -> ISet.union (last a) (last b)
  | LStar a -> last a

let follow_table lin count =
  let follow = Array.make (count + 1) ISet.empty in
  let add_all src targets =
    ISet.iter
      (fun p -> follow.(p) <- ISet.union follow.(p) targets)
      src
  in
  let rec go = function
    | LEmpty | LEps | LLetter _ -> ()
    | LSeq (a, b) ->
        go a;
        go b;
        add_all (last a) (first b)
    | LAlt (a, b) ->
        go a;
        go b
    | LStar a ->
        go a;
        add_all (last a) (first a)
  in
  go lin;
  follow

let to_dfa ~sigma r =
  let rec check = function
    | Letter a ->
        if a < 0 || a >= sigma then
          invalid_arg "Regex.to_dfa: letter out of alphabet"
    | Seq (a, b) | Alt (a, b) ->
        check a;
        check b
    | Star a -> check a
    | Empty | Eps -> ()
  in
  check r;
  let lin, count, letters = linearise r in
  let letter_of = Array.make (count + 1) 0 in
  List.iter (fun (p, a) -> letter_of.(p) <- a) letters;
  let follow = follow_table lin count in
  let firsts = first lin in
  let lasts = last lin in
  (* state 0 = start, states 1..count = positions *)
  let states = count + 1 in
  let unary =
    Array.init states (fun q ->
        Array.init sigma (fun a ->
            let sources = if q = 0 then firsts else follow.(q) in
            ISet.elements
              (ISet.filter (fun p -> letter_of.(p) = a) sources)))
  in
  let accept =
    Array.init states (fun q ->
        if q = 0 then lnullable lin else ISet.mem q lasts)
  in
  Automaton.minimize
    (Automaton.determinize
       { Automaton.states; alphabet = sigma; leaf = [| [ 0 ] |]; unary;
         binary = [||]; accept })

let pp ~letters ppf r =
  let name a =
    match List.nth_opt letters a with Some l -> l | None -> string_of_int a
  in
  (* precedence: alt 0, seq 1, star/atom 2 *)
  let rec go lvl ppf r =
    let paren needed body =
      if needed then Format.fprintf ppf "(%t)" body else body ppf
    in
    match r with
    | Empty -> Format.pp_print_string ppf "0"
    | Eps -> Format.pp_print_string ppf "1"
    | Letter a -> Format.pp_print_string ppf (name a)
    | Alt (a, b) ->
        paren (lvl > 0) (fun ppf ->
            Format.fprintf ppf "%a|%a" (go 0) a (go 0) b)
    | Seq (a, b) ->
        paren (lvl > 1) (fun ppf ->
            Format.fprintf ppf "%a%a" (go 1) a (go 1) b)
    | Star a ->
        paren false (fun ppf -> Format.fprintf ppf "%a*" (go 2) a)
  in
  go 0 ppf r

exception Parse_error of string

let of_string ~letters input =
  List.iter
    (fun l ->
      if String.length l <> 1 then
        raise (Parse_error (Printf.sprintf "letter name %S must be one character" l)))
    letters;
  let letter_of c =
    let rec find i = function
      | [] -> None
      | l :: rest -> if l.[0] = c then Some i else find (i + 1) rest
    in
    find 0 letters
  in
  let n = String.length input in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
  let peek () = if !pos < n then Some input.[!pos] else None in
  let rec alt_level () =
    let first = seq_level () in
    let rec loop acc =
      match peek () with
      | Some '|' ->
          incr pos;
          loop (alt2 acc (seq_level ()))
      | _ -> acc
    in
    loop first
  and seq_level () =
    let rec loop acc =
      match peek () with
      | Some c when c <> '|' && c <> ')' -> loop (seq2 acc (star_level ()))
      | _ -> acc
    in
    (match peek () with
    | Some c when c <> '|' && c <> ')' -> loop (star_level ())
    | _ -> Eps)
  and star_level () =
    let base = atom_level () in
    let rec postfix acc =
      match peek () with
      | Some '*' ->
          incr pos;
          postfix (star acc)
      | Some '+' ->
          incr pos;
          postfix (plus acc)
      | Some '?' ->
          incr pos;
          postfix (opt acc)
      | _ -> acc
    in
    postfix base
  and atom_level () =
    match peek () with
    | Some '(' ->
        incr pos;
        let r = alt_level () in
        (match peek () with
        | Some ')' -> incr pos
        | _ -> fail "expected ')'");
        r
    | Some '0' when letter_of '0' = None ->
        incr pos;
        Empty
    | Some '1' when letter_of '1' = None ->
        incr pos;
        Eps
    | Some c -> (
        match letter_of c with
        | Some a ->
            incr pos;
            Letter a
        | None -> fail (Printf.sprintf "unknown letter %C" c))
    | None -> fail "unexpected end of input"
  in
  let r = alt_level () in
  if !pos <> n then fail "trailing input";
  r
