type t = {
  states : int;
  alphabet : int;
  leaf : int array;
  unary : int array array;
  binary : int array array array;
  accept : bool array;
}

let create ~states ~alphabet ~leaf ~unary ~binary ~accept =
  if states < 1 then invalid_arg "Tree_automaton.create: need a state";
  if alphabet < 1 then invalid_arg "Tree_automaton.create: need a letter";
  let chk q = q >= 0 && q < states in
  if Array.length leaf <> alphabet || not (Array.for_all chk leaf) then
    invalid_arg "Tree_automaton.create: bad leaf table";
  if
    Array.length unary <> states
    || not
         (Array.for_all
            (fun row -> Array.length row = alphabet && Array.for_all chk row)
            unary)
  then invalid_arg "Tree_automaton.create: bad unary table";
  if
    Array.length binary <> states
    || not
         (Array.for_all
            (fun plane ->
              Array.length plane = states
              && Array.for_all
                   (fun row ->
                     Array.length row = alphabet && Array.for_all chk row)
                   plane)
            binary)
  then invalid_arg "Tree_automaton.create: bad binary table";
  if Array.length accept <> states then
    invalid_arg "Tree_automaton.create: bad accept table";
  { states; alphabet; leaf; unary; binary; accept }

let rec run a t =
  let check_label l =
    if l < 0 || l >= a.alphabet then
      invalid_arg "Tree_automaton.run: label out of alphabet"
  in
  match t with
  | Tree.Leaf l ->
      check_label l;
      a.leaf.(l)
  | Tree.Unary (l, c) ->
      check_label l;
      a.unary.(run a c).(l)
  | Tree.Binary (l, x, y) ->
      check_label l;
      a.binary.(run a x).(run a y).(l)

let accepts a t = a.accept.(run a t)

let complement a = { a with accept = Array.map not a.accept }

let product a b ~mode =
  if a.alphabet <> b.alphabet then
    invalid_arg "Tree_automaton.product: alphabet mismatch";
  let states = a.states * b.states in
  let pair qa qb = (qa * b.states) + qb in
  let leaf = Array.init a.alphabet (fun l -> pair a.leaf.(l) b.leaf.(l)) in
  let unary =
    Array.init states (fun s ->
        let qa = s / b.states and qb = s mod b.states in
        Array.init a.alphabet (fun l -> pair a.unary.(qa).(l) b.unary.(qb).(l)))
  in
  let binary =
    Array.init states (fun s1 ->
        let qa1 = s1 / b.states and qb1 = s1 mod b.states in
        Array.init states (fun s2 ->
            let qa2 = s2 / b.states and qb2 = s2 mod b.states in
            Array.init a.alphabet (fun l ->
                pair a.binary.(qa1).(qa2).(l) b.binary.(qb1).(qb2).(l))))
  in
  let accept =
    Array.init states (fun s ->
        let qa = s / b.states and qb = s mod b.states in
        match mode with
        | `Inter -> a.accept.(qa) && b.accept.(qb)
        | `Union -> a.accept.(qa) || b.accept.(qb))
  in
  { states; alphabet = a.alphabet; leaf; unary; binary; accept }

(* states generable bottom-up *)
let reachable_states a =
  let seen = Array.make a.states false in
  Array.iter (fun q -> seen.(q) <- true) a.leaf;
  let changed = ref true in
  while !changed do
    changed := false;
    for q = 0 to a.states - 1 do
      if seen.(q) then
        Array.iter
          (fun q' ->
            if not seen.(q') then begin
              seen.(q') <- true;
              changed := true
            end)
          a.unary.(q)
    done;
    for q1 = 0 to a.states - 1 do
      if seen.(q1) then
        for q2 = 0 to a.states - 1 do
          if seen.(q2) then
            Array.iter
              (fun q' ->
                if not seen.(q') then begin
                  seen.(q') <- true;
                  changed := true
                end)
              a.binary.(q1).(q2)
        done
    done
  done;
  seen

let restrict a =
  let seen = reachable_states a in
  let renum = Array.make a.states (-1) in
  let count = ref 0 in
  Array.iteri
    (fun q live ->
      if live then begin
        renum.(q) <- !count;
        incr count
      end)
    seen;
  let states = !count in
  let old_of_new = Array.make states 0 in
  Array.iteri (fun q c -> if c >= 0 then old_of_new.(c) <- q) renum;
  {
    states;
    alphabet = a.alphabet;
    leaf = Array.map (fun q -> renum.(q)) a.leaf;
    unary =
      Array.init states (fun c ->
          Array.map (fun q -> renum.(q)) a.unary.(old_of_new.(c)));
    binary =
      Array.init states (fun c1 ->
          Array.init states (fun c2 ->
              Array.map
                (fun q -> renum.(q))
                a.binary.(old_of_new.(c1)).(old_of_new.(c2))));
    accept = Array.init states (fun c -> a.accept.(old_of_new.(c)));
  }

let minimize a0 =
  let a = restrict a0 in
  let cls = Array.init a.states (fun q -> if a.accept.(q) then 1 else 0) in
  let changed = ref true in
  while !changed do
    changed := false;
    let sigs =
      Array.init a.states (fun q ->
          ( cls.(q),
            Array.map (fun q' -> cls.(q')) a.unary.(q),
            Array.init a.states (fun q2 ->
                ( cls.(q2),
                  Array.map (fun q' -> cls.(q')) a.binary.(q).(q2),
                  Array.map (fun q' -> cls.(q')) a.binary.(q2).(q) )) ))
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
    leaf = Array.map (fun q -> cls.(q)) a.leaf;
    unary =
      Array.init class_count (fun c ->
          Array.map (fun q' -> cls.(q')) a.unary.(repr.(c)));
    binary =
      Array.init class_count (fun c1 ->
          Array.init class_count (fun c2 ->
              Array.map (fun q' -> cls.(q')) a.binary.(repr.(c1)).(repr.(c2))));
    accept = Array.init class_count (fun c -> a.accept.(repr.(c)));
  }

let is_empty a =
  let seen = reachable_states a in
  not (Array.exists2 (fun live acc -> live && acc) seen a.accept)

let equal_language a b =
  if a.alphabet <> b.alphabet then
    invalid_arg "Tree_automaton.equal_language: alphabet mismatch";
  let p = product a b ~mode:`Inter in
  let xor =
    {
      p with
      accept =
        Array.init p.states (fun s ->
            a.accept.(s / b.states) <> b.accept.(s mod b.states));
    }
  in
  is_empty xor

let total_language ~alphabet =
  create ~states:1 ~alphabet ~leaf:(Array.make alphabet 0)
    ~unary:[| Array.make alphabet 0 |]
    ~binary:[| [| Array.make alphabet 0 |] |]
    ~accept:[| true |]

let empty_language ~alphabet =
  { (total_language ~alphabet) with accept = [| false |] }

(* ------------------------------------------------------------------ *)
(* Nondeterministic closure (for track erasure)                        *)
(* ------------------------------------------------------------------ *)

type nta = {
  n_alphabet : int;
  n_leaf : int list array;
  n_unary : int list array array;
  n_binary : int list array array array;
  n_accept : bool array;
}

let project a ~alphabet preimages =
  {
    n_alphabet = alphabet;
    n_leaf =
      Array.init alphabet (fun b ->
          List.sort_uniq compare (List.map (fun l -> a.leaf.(l)) (preimages b)));
    n_unary =
      Array.init a.states (fun q ->
          Array.init alphabet (fun b ->
              List.sort_uniq compare
                (List.map (fun l -> a.unary.(q).(l)) (preimages b))));
    n_binary =
      Array.init a.states (fun q1 ->
          Array.init a.states (fun q2 ->
              Array.init alphabet (fun b ->
                  List.sort_uniq compare
                    (List.map (fun l -> a.binary.(q1).(q2).(l)) (preimages b)))));
    n_accept = a.accept;
  }

module ISet = Set.Make (Int)

let determinize (n : nta) =
  let module SMap = Map.Make (ISet) in
  let ids = ref SMap.empty in
  let sets = ref [] in
  let count = ref 0 in
  let intern set =
    match SMap.find_opt set !ids with
    | Some id -> (id, false)
    | None ->
        let id = !count in
        incr count;
        ids := SMap.add set id !ids;
        sets := (id, set) :: !sets;
        (id, true)
  in
  let union_over f qs = List.fold_left (fun acc q -> ISet.union acc (ISet.of_list (f q))) ISet.empty qs in
  (* seed with leaf subsets *)
  let leaf_ids =
    Array.init n.n_alphabet (fun b -> fst (intern (ISet.of_list n.n_leaf.(b))))
  in
  (* saturate: keep discovering subsets via unary/binary moves *)
  let unary_tbl : (int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let binary_tbl : (int * int * int, int) Hashtbl.t = Hashtbl.create 64 in
  let set_of = Hashtbl.create 64 in
  let sync () =
    List.iter (fun (id, s) -> Hashtbl.replace set_of id s) !sets
  in
  sync ();
  let changed = ref true in
  while !changed do
    changed := false;
    let current = !sets in
    List.iter
      (fun (id1, s1) ->
        for b = 0 to n.n_alphabet - 1 do
          if not (Hashtbl.mem unary_tbl (id1, b)) then begin
            let target =
              union_over (fun q -> n.n_unary.(q).(b)) (ISet.elements s1)
            in
            let tid, fresh = intern target in
            if fresh then begin
              changed := true;
              sync ()
            end;
            Hashtbl.replace unary_tbl (id1, b) tid
          end
        done;
        List.iter
          (fun (id2, s2) ->
            for b = 0 to n.n_alphabet - 1 do
              if not (Hashtbl.mem binary_tbl (id1, id2, b)) then begin
                let target =
                  ISet.elements s1
                  |> List.fold_left
                       (fun acc q1 ->
                         ISet.elements s2
                         |> List.fold_left
                              (fun acc q2 ->
                                ISet.union acc
                                  (ISet.of_list n.n_binary.(q1).(q2).(b)))
                              acc)
                       ISet.empty
                in
                let tid, fresh = intern target in
                if fresh then begin
                  changed := true;
                  sync ()
                end;
                Hashtbl.replace binary_tbl (id1, id2, b) tid
              end
            done)
          current)
      current
  done;
  let states = !count in
  let get_set id = Hashtbl.find set_of id in
  let leaf = leaf_ids in
  let unary =
    Array.init states (fun q ->
        Array.init n.n_alphabet (fun b ->
            match Hashtbl.find_opt unary_tbl (q, b) with
            | Some t -> t
            | None ->
                (* subset discovered in the last round: compute directly *)
                let target =
                  union_over (fun s -> n.n_unary.(s).(b))
                    (ISet.elements (get_set q))
                in
                fst (intern target)))
  in
  let binary =
    Array.init states (fun q1 ->
        Array.init states (fun q2 ->
            Array.init n.n_alphabet (fun b ->
                match Hashtbl.find_opt binary_tbl (q1, q2, b) with
                | Some t -> t
                | None ->
                    let target =
                      ISet.elements (get_set q1)
                      |> List.fold_left
                           (fun acc s1 ->
                             ISet.elements (get_set q2)
                             |> List.fold_left
                                  (fun acc s2 ->
                                    ISet.union acc
                                      (ISet.of_list n.n_binary.(s1).(s2).(b)))
                                  acc)
                           ISet.empty
                    in
                    fst (intern target))))
  in
  (* the while-loop saturated, so intern above cannot create new ids *)
  let accept =
    Array.init states (fun q ->
        ISet.exists (fun s -> n.n_accept.(s)) (get_set q))
  in
  create ~states ~alphabet:n.n_alphabet ~leaf ~unary ~binary ~accept

let erase a ~alphabet preimages = determinize (project a ~alphabet preimages)
