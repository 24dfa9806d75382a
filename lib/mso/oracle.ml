type t = {
  dfa : Automaton.t;
  sigma : int;
  word : int array;
  (* table.(k).(i): transition function (as a state array) of the
     zero-annotated segment [i, i + 2^k) *)
  table : int array array array;
  levels : int;
}

let compose_into dst f g states =
  (* dst = g after f: dst.(q) = g.(f.(q)) *)
  for q = 0 to states - 1 do
    dst.(q) <- g.(f.(q))
  done

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
  let levels =
    let rec go k = if 1 lsl k >= max 1 n then k + 1 else go (k + 1) in
    go 0
  in
  let table =
    Array.init levels (fun _ -> Array.make (max 1 n) [||])
  in
  (* level 0: single letters *)
  for i = 0 to n - 1 do
    table.(0).(i) <- Array.init states (fun q -> dfa.unary.(q).(word.(i)))
  done;
  if n = 0 then table.(0).(0) <- Array.init states Fun.id;
  for k = 1 to levels - 1 do
    let len = 1 lsl k in
    for i = 0 to n - 1 do
      if i + (len / 2) < n then begin
        let dst = Array.make states 0 in
        compose_into dst table.(k - 1).(i) table.(k - 1).(i + (len / 2)) states;
        table.(k).(i) <- dst
      end
      else table.(k).(i) <- table.(k - 1).(i)
    done
  done;
  { dfa; sigma; word; table; levels }

(* advance state q through the zero-annotated segment [i, j) *)
let advance o q i j =
  let q = ref q in
  let i = ref i in
  let k = ref (o.levels - 1) in
  while !i < j do
    while !k > 0 && (!i + (1 lsl !k) > j || 1 lsl !k > j - !i) do
      decr k
    done;
    q := o.table.(!k).(!i).(!q);
    i := !i + (1 lsl !k)
  done;
  !q

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
