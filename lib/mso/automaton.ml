type 'q ranked = {
  states : int;
  alphabet : int;
  leaf : 'q array;
  unary : 'q array array;
  binary : 'q array array array;
  accept : bool array;
}

type t = int ranked
type shape = Words | Trees

let shape_of a = if Array.length a.binary = 0 then Words else Trees

let validate ok a =
  let fail what = invalid_arg ("Automaton: bad " ^ what) in
  let row r = Array.length r = a.alphabet && Array.for_all ok r in
  let per_state f rows = Array.length rows = a.states && Array.for_all f rows in
  if a.states < 1 then fail "state count";
  if a.alphabet < 1 then fail "alphabet";
  (match shape_of a with
  | Words ->
      if Array.length a.leaf <> 1 || not (ok a.leaf.(0)) then fail "start state"
  | Trees ->
      if not (row a.leaf) then fail "leaf table";
      if not (per_state (per_state row) a.binary) then fail "binary table");
  if not (per_state row a.unary) then fail "unary table";
  if Array.length a.accept <> a.states then fail "accept table"

let create ~states ~alphabet ~leaf ~unary ~binary ~accept =
  let a = { states; alphabet; leaf; unary; binary; accept } in
  validate (fun q -> q >= 0 && q < states) a;
  a

let tabulate shape ~states ~alphabet step accepting =
  let row below = Array.init alphabet (step below) in
  {
    states;
    alphabet;
    leaf = (match shape with Words -> [| step [] 0 |] | Trees -> row []);
    unary = Array.init states (fun q -> row [ q ]);
    binary =
      (match shape with
      | Words -> [||]
      | Trees ->
          Array.init states (fun q1 ->
              Array.init states (fun q2 -> row [ q1; q2 ])));
    accept = Array.init states accepting;
  }

(* the transitions over children in states [below], by letter; a word's
   rank 0 is its one entry, read at letter 0 *)
let row a = function
  | [] -> a.leaf
  | [ q ] -> a.unary.(q)
  | [ q1; q2 ] -> a.binary.(q1).(q2)
  | _ -> invalid_arg "Automaton: rank above 2"

let letter a l =
  if l < 0 || l >= a.alphabet then
    invalid_arg "Automaton: letter out of the alphabet";
  l

let accepts_word a word =
  if shape_of a <> Words then invalid_arg "Automaton: not a word automaton";
  let step q l = a.unary.(q).(letter a l) in
  a.accept.(Array.fold_left step a.leaf.(0) word)

let accepts_tree a t =
  if shape_of a <> Trees then invalid_arg "Automaton: not a tree automaton";
  let rec run t =
    let below =
      match t with
      | Tree.Leaf _ -> []
      | Tree.Unary (_, c) -> [ run c ]
      | Tree.Binary (_, x, y) ->
          let qx = run x in
          [ qx; run y ]
    in
    (row a below).(letter a (Tree.label t))
  in
  a.accept.(run t)

(* ------------------------------------------------------------------ *)
(* Algebra                                                             *)
(* ------------------------------------------------------------------ *)

let total shape ~alphabet =
  tabulate shape ~states:1 ~alphabet (fun _ _ -> 0) (fun _ -> true)

let complement a = { a with accept = Array.map not a.accept }
let empty shape ~alphabet = complement (total shape ~alphabet)

(* pair states are [qa * b.states + qb] *)
let product_with f a b =
  if a.alphabet <> b.alphabet || shape_of a <> shape_of b then
    invalid_arg "Automaton.product: shape or alphabet mismatch";
  let split s = (s / b.states, s mod b.states) in
  tabulate (shape_of a) ~states:(a.states * b.states) ~alphabet:a.alphabet
    (fun below ->
      let qa, qb = List.split (List.map split below) in
      let ra = row a qa and rb = row b qb in
      fun l -> (ra.(l) * b.states) + rb.(l))
    (fun s ->
      let qa, qb = split s in
      f a.accept.(qa) b.accept.(qb))

let product a b ~mode =
  product_with (match mode with `Inter -> ( && ) | `Union -> ( || )) a b

(* Bottom-up worklist: [fire] every children tuple once, as soon as its
   last member is popped — a state alone at rank 1, and at rank 2 with
   each state popped before it (and itself), in both orders. *)
let explore shape queue fire =
  let popped = ref [] in
  while not (Queue.is_empty queue) do
    let s = Queue.pop queue in
    popped := s :: !popped;
    fire [ s ];
    if shape = Trees then
      List.iter
        (fun s' ->
          fire [ s; s' ];
          fire [ s'; s ])
        !popped
  done

(* the states generable bottom-up *)
let reachable a =
  let seen = Array.make a.states false and queue = Queue.create () in
  let visit q =
    if not seen.(q) then begin
      seen.(q) <- true;
      Queue.add q queue
    end
  in
  Array.iter visit a.leaf;
  explore (shape_of a) queue (fun below -> Array.iter visit (row a below));
  seen

(* the automaton on classes [0..k-1]: class [c] is state [repr.(c)] of
   [a], and [cls] maps each state of [a] to its class *)
let quotient a repr cls =
  tabulate (shape_of a) ~states:(Array.length repr) ~alphabet:a.alphabet
    (fun below ->
      let r = row a (List.map (Array.get repr) below) in
      fun l -> cls.(r.(l)))
    (fun c -> a.accept.(repr.(c)))

let restrict a =
  let seen = reachable a in
  let live =
    Array.of_list (List.filter (Array.get seen) (List.init a.states Fun.id))
  in
  let cls = Array.make a.states (-1) in
  Array.iteri (fun c q -> cls.(q) <- c) live;
  quotient a live cls

let minimize a0 =
  let a = restrict a0 in
  let classes = Array.map (fun b -> if b then 1 else 0) a.accept in
  let rec refine () =
    let cls r = Array.map (Array.get classes) r in
    (* a state's class, and the classes it leads to at every rank *)
    let signature q =
      ( classes.(q),
        cls a.unary.(q),
        Array.mapi
          (fun q2 plane -> (cls a.binary.(q).(q2), cls plane.(q)))
          a.binary )
    in
    let ids = Hashtbl.create 16 in
    let next =
      Array.init a.states (fun q ->
          let s = signature q in
          match Hashtbl.find_opt ids s with
          | Some c -> c
          | None ->
              let c = Hashtbl.length ids in
              Hashtbl.add ids s c;
              c)
    in
    if next <> classes then begin
      Array.blit next 0 classes 0 a.states;
      refine ()
    end
  in
  refine ();
  (* classes are numbered in order of first appearance *)
  let repr = Array.make (1 + Array.fold_left max 0 classes) (-1) in
  Array.iteri (fun q c -> if repr.(c) < 0 then repr.(c) <- q) classes;
  quotient a repr classes

let is_empty a =
  let seen = reachable a in
  not (Array.exists2 ( && ) seen a.accept)

let equal_language a b = is_empty (product_with ( <> ) a b)

(* ------------------------------------------------------------------ *)
(* Subset construction                                                 *)
(* ------------------------------------------------------------------ *)

module ISet = Set.Make (Int)
module SMap = Map.Make (ISet)

(* every tuple with one member from each set *)
let rec choices = function
  | [] -> [ [] ]
  | set :: rest ->
      let tails = choices rest in
      List.concat_map
        (fun q -> List.map (List.cons q) tails)
        (ISet.elements set)

let determinize (n : int list ranked) =
  validate (List.for_all (fun q -> q >= 0 && q < n.states)) n;
  let ids = ref SMap.empty and sets = ref [] and count = ref 0 in
  let queue = Queue.create () in
  let intern set =
    match SMap.find_opt set !ids with
    | Some id -> id
    | None ->
        let id = !count in
        incr count;
        ids := SMap.add set id !ids;
        sets := set :: !sets;
        Queue.add (id, set) queue;
        id
  in
  let leaf = Array.map (fun qs -> intern (ISet.of_list qs)) n.leaf in
  (* the subset each letter reaches over children subsets, by child ids *)
  let rows = Hashtbl.create 64 in
  explore (shape_of n) queue (fun below ->
      let tuples = List.map (row n) (choices (List.map snd below)) in
      Hashtbl.replace rows (List.map fst below)
        (Array.init n.alphabet (fun l ->
             intern
               (List.fold_left
                  (fun acc r -> List.fold_right ISet.add r.(l) acc)
                  ISet.empty tuples))));
  let sets = Array.of_list (List.rev !sets) in
  tabulate (shape_of n) ~states:(Array.length sets) ~alphabet:n.alphabet
    (fun below ->
      Array.get (if below = [] then leaf else Hashtbl.find rows below))
    (fun s -> ISet.exists (Array.get n.accept) sets.(s))

let erase a ~alphabet preimages =
  let pre row =
    Array.init alphabet (fun b -> List.map (Array.get row) (preimages b))
  in
  determinize
    {
      states = a.states;
      alphabet;
      leaf =
        (match shape_of a with
        | Words -> [| [ a.leaf.(0) ] |]
        | Trees -> pre a.leaf);
      unary = Array.map pre a.unary;
      binary = Array.map (Array.map pre) a.binary;
      accept = a.accept;
    }
