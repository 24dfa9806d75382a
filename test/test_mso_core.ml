(* Tests for what words and trees share in the MSO subsystem: one AST,
   one parser, one validation ([Formula.free]) and one compilation
   skeleton instantiated with DFAs and with bottom-up tree automata. *)

module F = Mso.Formula
module P = Mso.Parser
module T = Mso.Tree
module Ta = Mso.Automaton
module Tf = Mso.Tree_formula

let check = Alcotest.(check bool)

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

(* random formulas with free position variable x over the atoms both
   structures have and the binary atoms [extra] of one structure *)
let random_formula ~extra seed =
  let st = Random.State.make [| seed; 0x7e3 |] in
  let rec go pos_vars set_vars depth =
    let pick l = List.nth l (Random.State.int st (List.length l)) in
    if depth = 0 || Random.State.int st 3 = 0 then
      match (set_vars, Random.State.int st (3 + List.length extra)) with
      | _, 0 -> F.Letter (Random.State.int st 2, pick pos_vars)
      | _ :: _, 1 -> F.Mem (pick pos_vars, pick set_vars)
      | _, i when i >= 3 ->
          let y = pick pos_vars in
          (List.nth extra (i - 3)) (pick pos_vars) y
      | _ -> F.EqPos (pick pos_vars, pick pos_vars)
    else
      match Random.State.int st 6 with
      | 0 -> F.Not (go pos_vars set_vars (depth - 1))
      | 1 -> F.And [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 2 -> F.Or [ go pos_vars set_vars (depth - 1); go pos_vars set_vars (depth - 1) ]
      | 3 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          F.ExistsPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | 4 ->
          let v = Printf.sprintf "p%d" (Random.State.int st 2) in
          F.ForallPos (v, go (v :: pos_vars) set_vars (depth - 1))
      | _ ->
          let v = Printf.sprintf "S%d" (Random.State.int st 2) in
          F.ExistsSet (v, go pos_vars (v :: set_vars) (depth - 1))
  in
  go [ "x" ] [] 3

let word_atoms = [ (fun x y -> F.Less (x, y)); (fun x y -> F.Succ (x, y)) ]
let child_atoms = [ (fun x y -> F.Child1 (x, y)); (fun x y -> F.Child2 (x, y)) ]
let scope = [ ("x", F.Pos) ]
let letters = [ "a"; "b" ]

let tree_roundtrip =
  QCheck.Test.make ~name:"MSO pp/parse round-trip on trees" ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~extra:child_atoms seed in
      match
        P.parse_opt ~structure:`Trees ~letters (F.to_string ~letters phi)
      with
      | None -> false
      | Some phi' ->
          Ta.equal_language
            (Tf.compile ~sigma:2 ~scope phi)
            (Tf.compile ~sigma:2 ~scope phi'))

(* a word as the tree whose preorder is the word: each position is the
   only child of the one before *)
let unary_tree word =
  let n = Array.length word in
  let rec go i = if i = n - 1 then T.Leaf word.(i) else T.Unary (word.(i), go (i + 1)) in
  go 0

(* every non-empty word over {a, b} of length at most [len] *)
let words_up_to len =
  let rec of_length n =
    if n = 0 then [ [||] ]
    else
      List.concat_map
        (fun w -> [ Array.append w [| 0 |]; Array.append w [| 1 |] ])
        (of_length (n - 1))
  in
  List.concat_map of_length (List.init len (fun i -> i + 1))

let shared_atoms_agree =
  QCheck.Test.make
    ~name:"shared atoms: a word and its unary tree agree (eval and compile)"
    ~count:30
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~extra:[] seed in
      let dfa = F.compile ~sigma:2 ~scope phi in
      let ta = Tf.compile ~sigma:2 ~scope phi in
      List.for_all
        (fun w ->
          let tree = unary_tree w in
          List.for_all
            (fun p ->
              let asg = { F.pos = [ ("x", p) ]; sets = [] } in
              let expected = F.eval ~word:w asg phi in
              Tf.eval ~tree asg phi = expected
              && F.holds_compiled ~sigma:2 ~scope dfa w asg = expected
              && Tf.holds_compiled ~sigma:2 ~scope ta tree asg = expected)
            (List.init (Array.length w) Fun.id))
        (words_up_to 4))

let test_tree_iff_sugar () =
  let a = F.Letter (0, "x") and c = F.Child1 ("x", "y") in
  check "<-> on trees expands" true
    (P.parse ~structure:`Trees ~letters "a(x) <-> child1(x, y)"
    = F.Or [ F.And [ a; c ]; F.And [ F.Not a; F.Not c ] ]);
  let phi = P.parse ~structure:`Trees ~letters "exists x. a(x) <-> b(x)" in
  check "compiles" false (Ta.accepts_tree (Tf.compile ~sigma:2 ~scope:[] phi) (T.Leaf 0))

let test_structure_keywords () =
  check "'<' is not a tree atom" true
    (P.parse_opt ~structure:`Trees ~letters "x < y" = None);
  check "child1 is not a word atom" true
    (P.parse_opt ~letters "child1(x, y)" = None);
  check "child1 may name a letter of a word" true
    (P.parse ~letters:[ "child1" ] "child1(x)" = F.Letter (0, "x"));
  check "succ may name a label of a tree" true
    (P.parse ~structure:`Trees ~letters:[ "succ" ] "succ(x)" = F.Letter (0, "x"))

let test_foreign_atoms () =
  let sc = [ ("x", F.Pos); ("y", F.Pos) ] in
  let asg = { F.pos = [ ("x", 0); ("y", 0) ]; sets = [] } in
  check "child1 does not compile on words" true
    (raises_invalid (fun () -> F.compile ~sigma:2 ~scope:sc (F.Child1 ("x", "y"))));
  check "'<' does not compile on trees" true
    (raises_invalid (fun () -> Tf.compile ~sigma:2 ~scope:sc (F.Less ("x", "y"))));
  check "child2 does not evaluate on words" true
    (raises_invalid (fun () -> F.eval ~word:[| 0 |] asg (F.Child2 ("x", "y"))));
  check "succ does not evaluate on trees" true
    (raises_invalid (fun () -> Tf.eval ~tree:(T.Leaf 0) asg (F.Succ ("x", "y"))))

let test_free_rejects_bound_kind () =
  check "position binder used as a set" true
    (raises_invalid (fun () -> F.free (F.ExistsPos ("X", F.Mem ("x", "X")))));
  check "set binder used as a position" true
    (raises_invalid (fun () -> F.free (F.ExistsSet ("x", F.Mem ("x", "x")))));
  check "a binder may reuse a free name at the other kind" true
    (F.free (F.And [ F.Mem ("y", "x"); F.ExistsPos ("x", F.EqPos ("x", "y")) ])
    = [ ("x", F.Set); ("y", F.Pos) ]);
  (* what [free] accepts compiles *)
  let phi = F.And [ F.Mem ("y", "x"); F.ExistsPos ("x", F.EqPos ("x", "y")) ] in
  let sc = [ ("x", F.Set); ("y", F.Pos) ] in
  let dfa = F.compile ~sigma:2 ~scope:sc phi in
  check "shadowing across kinds compiles" true
    (F.holds_compiled ~sigma:2 ~scope:sc dfa [| 0; 1 |]
       { F.pos = [ ("y", 1) ]; sets = [ ("x", [ 1 ]) ] })

(* ------------------------------------------------------------------ *)
(* The one ranked algebra against the two it replaced                  *)
(* ------------------------------------------------------------------ *)

module A = Mso.Automaton

(* The reference: the word and tree automaton algebras this library had
   before one ranked automaton served both, kept as they were — the
   DFA's product and Moore minimisation with the NFA subset construction
   (a recursive visit), and the tree automaton's product, minimisation
   and erasure (saturation in rounds). *)
module Old_dfa = struct
  type t = {
    states : int;
    alphabet : int;
    start : int;
    delta : int array array;
    accept : bool array;
  }

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

  let total_language ~alphabet =
    { states = 1; alphabet; start = 0; delta = [| Array.make alphabet 0 |]; accept = [| true |] }

  let empty_language ~alphabet =
    { (total_language ~alphabet) with accept = [| false |] }
end

module Old_nfa = struct
  type t = {
    states : int;
    alphabet : int;
    starts : int list;
    delta : int list array array;
    accept : bool array;
  }

  module ISet = Set.Make (Int)

  let step_set n set letter =
    ISet.fold
      (fun q acc ->
        List.fold_left (fun acc q' -> ISet.add q' acc) acc n.delta.(q).(letter))
      set ISet.empty

  let project (d : Old_dfa.t) ~alphabet preimages =
    {
      states = d.Old_dfa.states;
      alphabet;
      starts = [ d.Old_dfa.start ];
      delta =
        Array.init d.Old_dfa.states (fun q ->
            Array.init alphabet (fun b ->
                List.sort_uniq compare
                  (List.map (fun a -> d.Old_dfa.delta.(q).(a)) (preimages b))));
      accept = d.Old_dfa.accept;
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
    { Old_dfa.states; alphabet = n.alphabet; start; delta; accept }
end

module Old_ta = struct
  type 'q ranked = 'q A.ranked = {
    states : int;
    alphabet : int;
    leaf : 'q array;
    unary : 'q array array;
    binary : 'q array array array;
    accept : bool array;
  }

  type t = int ranked

  let create = A.create

  let rec run a t =
    let check_label l =
      if l < 0 || l >= a.alphabet then
        invalid_arg "Tree_automaton.run: label out of alphabet"
    in
    match t with
    | T.Leaf l ->
        check_label l;
        a.leaf.(l)
    | T.Unary (l, c) ->
        check_label l;
        a.unary.(run a c).(l)
    | T.Binary (l, x, y) ->
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
end

(* the algebra the reference compilation runs *)
module type OLD = sig
  type t
  type input

  val of_new : A.t -> t
  val states : t -> int
  val accepts : t -> input -> bool
  val total_language : alphabet:int -> t
  val empty_language : alphabet:int -> t
  val complement : t -> t
  val product : t -> t -> mode:[ `Inter | `Union ] -> t
  val minimize : t -> t
  val erase : t -> alphabet:int -> (int -> int list) -> t
end

(* The compilation skeleton run on the old algebra.  Atoms and the
   quantifier's singleton machine are the new compiler's, converted:
   what differs is only the algebra that combines them. *)
module Reference (O : OLD) = struct
  let compile ~atom ~sigma ~scope phi =
    let rec go scope phi =
      let tracks = List.length scope in
      let alphabet = sigma lsl tracks in
      let quantify ~exists x kind body =
        let inner = go (scope @ [ (x, kind) ]) body in
        let inner = if exists then inner else O.complement inner in
        let inner =
          match kind with
          | F.Pos ->
              let single =
                O.of_new
                  (atom ~sigma ~scope:(scope @ [ (x, F.Pos) ]) (F.EqPos (x, x)))
              in
              O.minimize (O.product inner single ~mode:`Inter)
          | F.Set -> inner
        in
        let projected =
          O.minimize (O.erase inner ~alphabet (fun b -> [ b; b + alphabet ]))
        in
        if exists then projected else O.minimize (O.complement projected)
      in
      match phi with
      | F.MTrue -> O.minimize (O.total_language ~alphabet)
      | F.MFalse -> O.minimize (O.empty_language ~alphabet)
      | F.Not f -> O.minimize (O.complement (go scope f))
      | F.And fs ->
          O.minimize
            (List.fold_left
               (fun acc f -> O.product acc (go scope f) ~mode:`Inter)
               (O.total_language ~alphabet) fs)
      | F.Or fs ->
          O.minimize
            (List.fold_left
               (fun acc f -> O.product acc (go scope f) ~mode:`Union)
               (O.empty_language ~alphabet) fs)
      | F.ExistsPos (x, f) -> quantify ~exists:true x F.Pos f
      | F.ForallPos (x, f) -> quantify ~exists:false x F.Pos f
      | F.ExistsSet (x, f) -> quantify ~exists:true x F.Set f
      | F.ForallSet (x, f) -> quantify ~exists:false x F.Set f
      | atom_phi -> O.minimize (O.of_new (atom ~sigma ~scope atom_phi))
    in
    go scope phi
end

module Old_words = Reference (struct
  include Old_dfa

  type input = int array

  let of_new (a : A.t) =
    {
      states = a.states;
      alphabet = a.alphabet;
      start = a.leaf.(0);
      delta = a.unary;
      accept = a.accept;
    }

  let states (a : t) = a.states
  let erase d ~alphabet preimages =
    Old_nfa.determinize (Old_nfa.project d ~alphabet preimages)
end)

module Old_trees = Reference (struct
  include Old_ta

  type input = T.t

  let of_new a = a
  let states (a : t) = a.states
end)

(* every input over the track alphabet of [scope] up to the given size,
   valid annotation or not *)
let track_letters = 2 lsl List.length scope

let words_agree =
  QCheck.Test.make
    ~name:"one algebra = DFA/NFA algebra on words (state counts, runs)"
    ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~extra:word_atoms seed in
      let a = F.compile ~sigma:2 ~scope phi in
      let old = Old_words.compile ~atom:F.compile ~sigma:2 ~scope phi in
      a.A.states = old.Old_dfa.states
      && List.for_all
           (fun w -> A.accepts_word a w = Old_dfa.accepts old w)
           (Test_mso.words_up_to track_letters 4))

let trees_agree =
  let trees = Test_trees.all_trees_up_to track_letters 5 in
  QCheck.Test.make
    ~name:"one algebra = tree automaton algebra on trees (state counts, runs)"
    ~count:40
    QCheck.(int_range 0 5000)
    (fun seed ->
      let phi = random_formula ~extra:child_atoms seed in
      let a = Tf.compile ~sigma:2 ~scope phi in
      let old = Old_trees.compile ~atom:Tf.compile ~sigma:2 ~scope phi in
      a.A.states = old.A.states
      && List.for_all
           (fun t -> A.accepts_tree a t = Old_ta.accepts old t)
           trees)

let suite =
  [
    QCheck_alcotest.to_alcotest tree_roundtrip;
    QCheck_alcotest.to_alcotest shared_atoms_agree;
    QCheck_alcotest.to_alcotest words_agree;
    QCheck_alcotest.to_alcotest trees_agree;
    Alcotest.test_case "<-> on trees is sugar" `Quick test_tree_iff_sugar;
    Alcotest.test_case "structure keywords" `Quick test_structure_keywords;
    Alcotest.test_case "foreign atoms" `Quick test_foreign_atoms;
    Alcotest.test_case "free rejects bound kind clashes" `Quick
      test_free_rejects_bound_kind;
  ]
