type t = {
  states : int;
  alphabet : int;
  start : int;
  delta : int array array;
  accept : bool array;
}

let create ~states ~alphabet ~start ~delta ~accept =
  if states < 1 then invalid_arg "Dfa.create: need at least one state";
  if alphabet < 1 then invalid_arg "Dfa.create: need at least one letter";
  if start < 0 || start >= states then invalid_arg "Dfa.create: bad start";
  if Array.length delta <> states || Array.length accept <> states then
    invalid_arg "Dfa.create: table sizes do not match the state count";
  Array.iter
    (fun row ->
      if Array.length row <> alphabet then
        invalid_arg "Dfa.create: transition row has wrong width";
      Array.iter
        (fun q ->
          if q < 0 || q >= states then
            invalid_arg "Dfa.create: transition target out of range")
        row)
    delta;
  { states; alphabet; start; delta; accept }

let accepts a word =
  let step q letter =
    if letter < 0 || letter >= a.alphabet then
      invalid_arg "Dfa.accepts: letter out of range";
    a.delta.(q).(letter)
  in
  a.accept.(Array.fold_left step a.start word)

let complement a = { a with accept = Array.map not a.accept }

let product a b ~mode =
  if a.alphabet <> b.alphabet then
    invalid_arg "Dfa.product: alphabet mismatch";
  let states = a.states * b.states in
  let pair qa qb = (qa * b.states) + qb in
  let delta =
    Array.init states (fun s ->
        let qa = s / b.states and qb = s mod b.states in
        Array.init a.alphabet (fun l ->
            pair a.delta.(qa).(l) b.delta.(qb).(l)))
  in
  let accept =
    Array.init states (fun s ->
        let qa = s / b.states and qb = s mod b.states in
        match mode with
        | `Inter -> a.accept.(qa) && b.accept.(qb)
        | `Union -> a.accept.(qa) || b.accept.(qb))
  in
  { states; alphabet = a.alphabet; start = pair a.start b.start; delta; accept }

let reachable a =
  let seen = Array.make a.states false in
  let order = ref [] in
  let rec dfs q =
    if not seen.(q) then begin
      seen.(q) <- true;
      order := q :: !order;
      Array.iter dfs a.delta.(q)
    end
  in
  dfs a.start;
  let old_states = List.rev !order in
  let renum = Array.make a.states (-1) in
  List.iteri (fun i q -> renum.(q) <- i) old_states;
  let arr = Array.of_list old_states in
  {
    states = Array.length arr;
    alphabet = a.alphabet;
    start = renum.(a.start);
    delta =
      Array.map (fun q -> Array.map (fun q' -> renum.(q')) a.delta.(q)) arr;
    accept = Array.map (fun q -> a.accept.(q)) arr;
  }

let minimize a0 =
  let a = reachable a0 in
  (* Moore: iteratively refine the accept/reject partition *)
  let cls = Array.init a.states (fun q -> if a.accept.(q) then 1 else 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    (* signature of q: (class, classes of successors) *)
    let sigs =
      Array.init a.states (fun q ->
          (cls.(q), Array.map (fun q' -> cls.(q')) a.delta.(q)))
    in
    let tbl = Hashtbl.create 16 in
    let next = ref 0 in
    let newcls =
      Array.map
        (fun s ->
          match Hashtbl.find_opt tbl s with
          | Some c -> c
          | None ->
              let c = !next in
              incr next;
              Hashtbl.replace tbl s c;
              c)
        sigs
    in
    if newcls <> cls then begin
      Array.blit newcls 0 cls 0 a.states;
      changed := true
    end
  done;
  let class_count = 1 + Array.fold_left max 0 cls in
  let repr = Array.make class_count (-1) in
  Array.iteri (fun q c -> if repr.(c) < 0 then repr.(c) <- q) cls;
  {
    states = class_count;
    alphabet = a.alphabet;
    start = cls.(a.start);
    delta =
      Array.init class_count (fun c ->
          Array.map (fun q' -> cls.(q')) a.delta.(repr.(c)));
    accept = Array.init class_count (fun c -> a.accept.(repr.(c)));
  }

let is_empty a =
  let a = reachable a in
  not (Array.exists Fun.id a.accept)

let equal_language a b =
  if a.alphabet <> b.alphabet then
    invalid_arg "Dfa.equal_language: alphabet mismatch";
  (* symmetric difference empty *)
  let xor =
    let p = product a b ~mode:`Inter in
    let qa s = s / b.states and qb s = s mod b.states in
    {
      p with
      accept =
        Array.init p.states (fun s ->
            a.accept.(qa s) <> b.accept.(qb s));
    }
  in
  is_empty xor

let total_language ~alphabet =
  create ~states:1 ~alphabet ~start:0
    ~delta:[| Array.make alphabet 0 |]
    ~accept:[| true |]

let empty_language ~alphabet =
  create ~states:1 ~alphabet ~start:0
    ~delta:[| Array.make alphabet 0 |]
    ~accept:[| false |]

let of_predicate ~alphabet ~max_len pred =
  (* Myhill-Nerode by sampled residuals: identify prefixes by the values
     of [pred] on all continuations of length <= max_len, and explore
     states breadth-first.  Correct whenever max_len distinguishes all
     residual classes of the language (e.g. any DFA with <= max_len
     states). *)
  let suffixes =
    let rec go l =
      if l = 0 then [ [] ]
      else begin
        let shorter = go (l - 1) in
        shorter
        @ List.concat_map
            (fun w ->
              if List.length w = l - 1 then
                List.init alphabet (fun a -> a :: w)
              else [])
            shorter
      end
    in
    List.map Array.of_list (go max_len)
  in
  let signature prefix =
    List.map (fun s -> pred (Array.append prefix s)) suffixes
  in
  let module SM = Map.Make (struct
    type t = bool list

    let compare = compare
  end) in
  let ids = ref SM.empty in
  let reps = ref [] in
  let count = ref 0 in
  let queue = Queue.create () in
  let state_of prefix =
    let s = signature prefix in
    match SM.find_opt s !ids with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        if id > 4096 then
          invalid_arg "Dfa.of_predicate: too many residual classes";
        ids := SM.add s id !ids;
        reps := (id, prefix) :: !reps;
        Queue.add (id, prefix) queue;
        id
  in
  let transitions = ref [] in
  let _start = state_of [||] in
  while not (Queue.is_empty queue) do
    let id, prefix = Queue.take queue in
    let row =
      Array.init alphabet (fun a -> state_of (Array.append prefix [| a |]))
    in
    transitions := (id, row) :: !transitions
  done;
  let states = !count in
  let delta = Array.make states [||] in
  List.iter (fun (id, row) -> delta.(id) <- row) !transitions;
  let accept = Array.make states false in
  List.iter (fun (id, prefix) -> accept.(id) <- pred prefix) !reps;
  minimize (create ~states ~alphabet ~start:0 ~delta ~accept)

let pp ppf a =
  Format.fprintf ppf "@[<v>dfa: %d states over %d letters, start %d@," a.states
    a.alphabet a.start;
  Array.iteri
    (fun q row ->
      Format.fprintf ppf "%c q%d:" (if a.accept.(q) then '*' else ' ') q;
      Array.iteri (fun l q' -> Format.fprintf ppf " %d->q%d" l q') row;
      Format.fprintf ppf "@,")
    a.delta;
  Format.fprintf ppf "@]"
