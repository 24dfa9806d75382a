type t = {
  dfa : Automaton.t;
  sigma : int;
  word : int array;
  (* a bottom-up segment tree over the zero-annotated word, flattened:
     node [v] (1 <= v < 2n) holds its transition function as the
     [states] ints from [v * states].  Leaf [n + i] is letter [i]; inner
     node [v] runs [2v], then [2v + 1]. *)
  tree : int array;
}

let make ~sigma (dfa : Automaton.t) word =
  if sigma < 1 then invalid_arg "Oracle.make: need sigma >= 1";
  let rec is_power_scaled a = a = sigma || (a mod 2 = 0 && is_power_scaled (a / 2)) in
  if not (is_power_scaled dfa.alphabet) then
    invalid_arg "Oracle.make: alphabet is not sigma * 2^tracks";
  if Array.length dfa.binary > 0 then invalid_arg "Oracle.make: not a word automaton";
  Array.iter
    (fun a ->
      if a < 0 || a >= sigma then
        invalid_arg "Oracle.make: word letter out of base alphabet")
    word;
  let n = Array.length word in
  let states = dfa.states in
  let tree = Array.make (2 * n * states) 0 in
  for i = 0 to n - 1 do
    let base = (n + i) * states in
    for q = 0 to states - 1 do
      tree.(base + q) <- dfa.unary.(q).(word.(i))
    done
  done;
  for v = n - 1 downto 1 do
    let l = 2 * v * states and r = ((2 * v) + 1) * states in
    for q = 0 to states - 1 do
      tree.((v * states) + q) <- tree.(r + tree.(l + q))
    done
  done;
  { dfa; sigma; word; tree }

(* advance state q through the zero-annotated segment [i, j): at each
   level, a left boundary node applies before the nodes above it and a
   right boundary node after them *)
let advance o q i j =
  let step q v = o.tree.((v * o.dfa.states) + q) in
  let rec up q l r =
    if l >= r then q
    else
      let q = if l land 1 = 1 then step q l else q in
      let q = up q ((l + 1) / 2) (r / 2) in
      if r land 1 = 1 then step q (r - 1) else q
  in
  let n = Array.length o.word in
  up q (i + n) (j + n)

let normalise_marks o marks =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (p, mask) ->
      if p < 0 || p >= Array.length o.word then
        invalid_arg "Oracle: mark position out of range";
      let prev = Option.value (Hashtbl.find_opt tbl p) ~default:0 in
      Hashtbl.replace tbl p (prev lor mask))
    marks;
  Hashtbl.fold (fun p mask acc -> (p, mask) :: acc) tbl []
  |> List.sort compare

let eval_with_marks o ~marks =
  let marks = normalise_marks o marks in
  let n = Array.length o.word in
  let q = ref o.dfa.leaf.(0) in
  let pos = ref 0 in
  List.iter
    (fun (p, mask) ->
      q := advance o !q !pos p;
      let letter = o.word.(p) + (o.sigma * mask) in
      q := o.dfa.unary.(!q).(letter);
      pos := p + 1)
    marks;
  q := advance o !q !pos n;
  o.dfa.accept.(!q)

let eval_naive o ~marks =
  let marks = normalise_marks o marks in
  let annotated = Array.copy o.word in
  List.iter
    (fun (p, mask) -> annotated.(p) <- o.word.(p) + (o.sigma * mask))
    marks;
  Automaton.accepts_word o.dfa annotated
