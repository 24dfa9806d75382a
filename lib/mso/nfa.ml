type t = {
  states : int;
  alphabet : int;
  starts : int list;
  delta : int list array array;
  accept : bool array;
}

let create ~states ~alphabet ~starts ~delta ~accept =
  if states < 1 then invalid_arg "Nfa.create: need at least one state";
  if alphabet < 1 then invalid_arg "Nfa.create: need at least one letter";
  List.iter
    (fun q ->
      if q < 0 || q >= states then invalid_arg "Nfa.create: bad start state")
    starts;
  if Array.length delta <> states || Array.length accept <> states then
    invalid_arg "Nfa.create: table sizes do not match";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet then
        invalid_arg "Nfa.create: transition row has wrong width";
      Array.iter
        (List.iter (fun q ->
             if q < 0 || q >= states then
               invalid_arg "Nfa.create: transition target out of range"))
        row)
    delta;
  { states; alphabet; starts; delta; accept }

module ISet = Set.Make (Int)

let step_set n set letter =
  ISet.fold
    (fun q acc ->
      List.fold_left (fun acc q' -> ISet.add q' acc) acc n.delta.(q).(letter))
    set ISet.empty

let accepts n word =
  let final =
    Array.fold_left
      (fun set letter -> step_set n set letter)
      (ISet.of_list n.starts) word
  in
  ISet.exists (fun q -> n.accept.(q)) final

let project (d : Dfa.t) ~alphabet preimages =
  {
    states = d.Dfa.states;
    alphabet;
    starts = [ d.Dfa.start ];
    delta =
      Array.init d.Dfa.states (fun q ->
          Array.init alphabet (fun b ->
              List.sort_uniq compare
                (List.map (fun a -> d.Dfa.delta.(q).(a)) (preimages b))));
    accept = d.Dfa.accept;
  }

let determinize n =
  let module SMap = Map.Make (ISet) in
  let ids = ref SMap.empty in
  let table = ref [] in
  let count = ref 0 in
  let rec visit set =
    match SMap.find_opt set !ids with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        ids := SMap.add set id !ids;
        let row = Array.make n.alphabet (-1) in
        table := (id, set, row) :: !table;
        for a = 0 to n.alphabet - 1 do
          row.(a) <- visit (step_set n set a)
        done;
        id
  in
  let start = visit (ISet.of_list n.starts) in
  let states = !count in
  let delta = Array.make states [||] in
  let accept = Array.make states false in
  List.iter
    (fun (id, set, row) ->
      delta.(id) <- row;
      accept.(id) <- ISet.exists (fun q -> n.accept.(q)) set)
    !table;
  Dfa.create ~states ~alphabet:n.alphabet ~start ~delta ~accept
