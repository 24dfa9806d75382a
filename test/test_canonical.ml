(* Printed types follow the structural order, never intern order:
   - the ops goldens that print hypotheses or type numbers equal the
     ones recorded when output followed intern ids, up to the order of
     the operands of /\ and \/ and the #N numbers;
   - a learn and a types op print the same bytes whatever the registry
     held before them. *)

open Cgraph
module F = Fo.Formula
module T = Modelcheck.Types
module J = Obs.Json

(* ------------------------------------------------------------------ *)
(* Goldens up to operand order                                         *)
(* ------------------------------------------------------------------ *)

(* every [#N] as [#] *)
let mask_numbers line =
  let n = String.length line in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    Buffer.add_char b line.[!i];
    incr i;
    if line.[!i - 1] = '#' then
      while !i < n && line.[!i] >= '0' && line.[!i] <= '9' do
        incr i
      done
  done;
  Buffer.contents b

(* the operands of every /\ and \/ sorted, recursively *)
let rec sorted (f : F.t) : F.t =
  match f with
  | And fs -> And (List.sort F.compare (List.map sorted fs))
  | Or fs -> Or (List.sort F.compare (List.map sorted fs))
  | Not f -> Not (sorted f)
  | Implies (a, b) -> Implies (sorted a, sorted b)
  | Iff (a, b) -> Iff (sorted a, sorted b)
  | Exists (x, f) -> Exists (x, sorted f)
  | Forall (x, f) -> Forall (x, sorted f)
  | CountGe (t, x, f) -> CountGe (t, x, sorted f)
  | (True | False | Atom _) as f -> f

let is_formula_line l = String.length l >= 2 && String.sub l 0 2 = "  "

(* A golden row with its numbers masked and each formula block (a run
   of lines indented by two spaces) parsed, sorted and printed on one
   line. *)
let canonical text =
  let rec go acc = function
    | [] -> List.rev acc
    | l :: _ as lines when is_formula_line l ->
        let rec split block = function
          | l :: rest when is_formula_line l -> split (l :: block) rest
          | rest -> (List.rev block, rest)
        in
        let block, rest = split [] lines in
        let f = Fo.Parser.parse (String.concat "\n" block) in
        go (("  " ^ F.to_string (sorted f)) :: acc) rest
    | l :: rest -> go (mask_numbers l :: acc) rest
  in
  String.concat "\n" (go [] (String.split_on_char '\n' text))

let read path = In_channel.with_open_bin path In_channel.input_all

(* The digest of [canonical] of each golden re-recorded when output
   moved to the structural order, taken from the file as it was
   recorded in intern order. *)
let recorded =
  [
    ("learn_brute", "c2992be013fb298ac2ae18f19d09e764");
    ("learn_brute_l2", "49ba2924763915474df32938038508b5");
    ("learn_brute_l2_fuel", "7106b29910d60b15a7c4864c16a17570");
    ("learn_brute_q2", "19eb78a44e25141a6295724cf1b529b5");
    ("learn_counting", "d1c3ea562c98d238e36a8678145a1f09");
    ("learn_counting_guarded", "b8a975c2c649c0cfad4f4ebed58f5a67");
    ("learn_counting_l2", "f8dfc1e329956d31592d3de86f202ca5");
    ("learn_counting_q2", "f524789e59417dc4fcf33493465c1ca6");
    ("learn_counting_table_salvaged", "c9a5fba5862509396e532b02a373fe49");
    ("learn_fuel_salvaged", "f69525055261414da2dd43029e365c57");
    ("types", "c59f5eb8e10e70142d1f573a1469043b");
    ("types_hintikka", "b88cb33f9e47e91d0956ed28e4ab7217");
    ("types_hintikka_q2", "7c78e30911072deeed7d6d65948b2094");
    ("types_q2", "d6eda3701e932fd7d6625077a799ddf8");
  ]

let test_goldens_up_to_order () =
  List.iter
    (fun (row, digest) ->
      let text = read (Filename.concat "corpus/ops" (row ^ ".expected")) in
      Alcotest.(check string)
        (row ^ " = its intern-order recording up to operand order")
        digest
        (Digest.to_hex (Digest.string (canonical text))))
    recorded

(* ------------------------------------------------------------------ *)
(* Output independent of intern order                                  *)
(* ------------------------------------------------------------------ *)

let shuffle st l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

(* n in 3..6, a colour on two vertices, q in {1, 2}; brute and counting
   learns print their hypothesis, [types --hintikka] its classes *)
let instance =
  QCheck.(
    make
      ~print:(fun (seed, n, q, counting) ->
        Printf.sprintf "seed %d: n=%d q=%d counting=%b" seed n q counting)
      Gen.(quad (int_range 0 100_000) (int_range 3 6) (int_range 1 2) bool))

let output_ignores_intern_order =
  QCheck.Test.make ~name:"printed bytes do not depend on intern order"
    ~count:30 instance (fun (seed, n, q, counting) ->
      let st = Random.State.make [| seed |] in
      let graph = J.String (Printf.sprintf "gnp:%d:0.4:%d" n seed) in
      let colors = J.List [ J.String "Red=0,2" ] in
      let learn =
        J.Obj
          [
            ("graph", graph); ("colors", colors);
            ("target", J.String "exists y. (E(x1,y) & Red(y))");
            ("ell", J.Int 1); ("q", J.Int q);
            ("solver", J.String (if counting then "counting" else "brute"));
          ]
      and types =
        J.Obj
          [
            ("graph", graph); ("colors", colors); ("q", J.Int q);
            ("hintikka", J.Bool true);
          ]
      in
      (* the types of this graph's tuples, at ranks 0-2 and caps 1-2,
         interned in a shuffled order *)
      let fill () =
        let g = Serve.Exec.coloured_graph ~op:"types" types in
        let plain = T.make_ctx g and capped = T.make_ctx ~cap:2 g in
        List.iter
          (fun u ->
            let ctx = if Random.State.bool st then plain else capped in
            ignore (T.tp ctx ~q:(Random.State.int st 3) u))
          (shuffle st (Graph.Tuple.all ~n ~k:1 @ Graph.Tuple.all ~n ~k:2))
      in
      let run ~filled op params =
        T.reset_tables ();
        if filled then fill ();
        let r = Serve.Exec.run_op ~op ~params () in
        (r.Serve.Exec.code, r.Serve.Exec.out)
      in
      run ~filled:false "learn" learn = run ~filled:true "learn" learn
      && run ~filled:false "types" types = run ~filled:true "types" types)

let suite =
  [
    Alcotest.test_case "goldens = intern-order goldens up to order" `Quick
      test_goldens_up_to_order;
    QCheck_alcotest.to_alcotest output_ignores_intern_order;
  ]
