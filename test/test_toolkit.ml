(* Tests for the toolkit additions: graph I/O, random formula generation
   and the Lemma 14 centre set. *)

open Cgraph
module F = Fo.Formula
module E = Modelcheck.Eval

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

(* ------------------------------------------------------------------ *)
(* Graph I/O                                                           *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip_basic () =
  let g =
    Graph.with_colors (Gen.cycle 5) [ ("Red", [ 0; 2 ]); ("Empty", []) ]
  in
  let g' = Io.of_string (Io.to_string g) in
  check "roundtrip" true (Graph.equal g g')

let test_io_parse () =
  let g = Io.of_string "# demo\nn 4\ne 0 1\ne 2 3 # trailing comment\nc Red 0 3\n" in
  check_int "order" 4 (Graph.order g);
  check "edge" true (Graph.mem_edge g 2 3);
  check "colour" true (Graph.has_color g "Red" 3)

let test_io_errors () =
  let fails s =
    try
      ignore (Io.of_string s);
      false
    with Io.Format_error _ -> true
  in
  check "missing n" true (fails "e 0 1\n");
  check "bad integer" true (fails "n 3\ne 0 x\n");
  check "out of range" true (fails "n 2\ne 0 5\n");
  check "unknown directive" true (fails "n 2\nz 1\n");
  check "bare c" true (fails "n 2\nc\n")

let test_io_file () =
  let path = Filename.temp_file "folearn" ".graph" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let g = Gen.colored ~seed:4 ~colors:[ "A" ] (Gen.random_tree ~seed:2 12) in
      Io.save path g;
      check "file roundtrip" true (Graph.equal g (Io.load path)))

let io_roundtrip_random =
  QCheck.Test.make ~name:"I/O roundtrip (random coloured graphs)" ~count:40
    QCheck.(int_range 1 600)
    (fun seed ->
      let g =
        Gen.colored ~seed ~colors:[ "Red"; "B_2" ]
          (Gen.gnp ~seed:(seed + 1) ~n:(3 + (seed mod 12)) ~p:0.3)
      in
      Graph.equal g (Io.of_string (Io.to_string g)))

(* ------------------------------------------------------------------ *)
(* Genform                                                             *)
(* ------------------------------------------------------------------ *)

let test_genform_deterministic () =
  check "same seed" true
    (Oracle.Genform.formula ~seed:5 () = Oracle.Genform.formula ~seed:5 ());
  check "different seeds differ somewhere" true
    (List.exists
       (fun s -> Oracle.Genform.formula ~seed:s () <> Oracle.Genform.formula ~seed:0 ())
       [ 1; 2; 3; 4; 5 ])

let test_genform_respects_config () =
  let cfg =
    { Oracle.Genform.default with Oracle.Genform.free_vars = [ "x" ]; colors = [] }
  in
  List.iter
    (fun seed ->
      let f = Oracle.Genform.formula ~config:cfg ~seed () in
      check "free vars within config" true
        (List.for_all (fun v -> v = "x") (F.free_vars f));
      check "no colours" true (F.colors_used f = []))
    [ 0; 10; 20; 30 ]

let test_genform_sentence_closed () =
  List.iter
    (fun seed ->
      check "sentence has no free vars" true
        (F.free_vars (Oracle.Genform.sentence ~seed ()) = []))
    [ 1; 2; 3; 4; 5 ]

let test_genform_counting_flag () =
  let rec has_counting = function
    | F.CountGe _ -> true
    | F.Not f -> has_counting f
    | F.And fs | F.Or fs -> List.exists has_counting fs
    | F.Implies (a, b) | F.Iff (a, b) -> has_counting a || has_counting b
    | F.Exists (_, f) | F.Forall (_, f) -> has_counting f
    | _ -> false
  in
  let cfg = { Oracle.Genform.default with Oracle.Genform.allow_counting = true } in
  check "counting appears eventually" true
    (List.exists
       (fun seed -> has_counting (Oracle.Genform.formula ~config:cfg ~seed ()))
       (List.init 40 Fun.id));
  check "counting off by default" true
    (List.for_all
       (fun seed -> not (has_counting (Oracle.Genform.formula ~seed ())))
       (List.init 40 Fun.id))

let genform_parses =
  QCheck.Test.make ~name:"generated formulas survive pp/parse" ~count:80
    QCheck.(int_range 0 10000)
    (fun seed ->
      let cfg = { Oracle.Genform.default with Oracle.Genform.allow_counting = true } in
      let f = Oracle.Genform.formula ~config:cfg ~seed () in
      Fo.Parser.parse_opt (F.to_string f) <> None)

(* Genform builds through the smart constructors, so printing and
   re-parsing gives back the same tree, not merely an equivalent one. *)
let test_genform_parse_fixpoint () =
  let cfg = { Oracle.Genform.default with Oracle.Genform.allow_counting = true } in
  List.iter
    (fun seed ->
      let f = Oracle.Genform.formula ~config:cfg ~seed () in
      if Fo.Parser.parse (F.to_string f) <> f then
        Alcotest.failf "seed %d: %s is not a parse fixpoint" seed
          (F.to_string f))
    (List.init 40 Fun.id)

(* ------------------------------------------------------------------ *)
(* Lemma 14 centre set                                                 *)
(* ------------------------------------------------------------------ *)

let test_centre_set_separation () =
  let g = Gen.path 40 in
  let critical = List.map (fun v -> [| v |]) [ 0; 10; 20; 30; 39 ] in
  let r = 1 in
  let xs = Folearn.Erm_nd.centre_set g ~r ~cap:10 ~critical in
  check "nonempty" true (xs <> []);
  (* pairwise separation > 4r+2 *)
  List.iteri
    (fun i x ->
      List.iteri
        (fun j y ->
          if i < j && Bfs.dist g x y <= (4 * r) + 2 then
            Alcotest.failf "centres %d,%d too close" x y)
        xs)
    xs;
  (* every centre attends at least one critical tuple *)
  List.iter
    (fun x ->
      check "attends" true
        (List.exists
           (fun v -> Bfs.dist_tuple g [| x |] v <= (2 * r) + 1)
           critical))
    xs

let test_centre_set_cap () =
  let g = Gen.path 60 in
  let critical = List.map (fun v -> [| v |]) (List.init 60 Fun.id) in
  let xs = Folearn.Erm_nd.centre_set g ~r:1 ~cap:3 ~critical in
  check "cap respected" true (List.length xs <= 3)

let test_centre_set_empty () =
  check "no critical tuples, no centres" true
    (Folearn.Erm_nd.centre_set (Gen.path 20) ~r:1 ~cap:5 ~critical:[] = [])

(* Three critical vertices bunched at 5..7 and one alone at 30: the
   greedy takes a vertex attending all three of the bunch first, then
   one attending the lone tuple. *)
let test_centre_set_attendance_order () =
  let g = Gen.path 40 in
  let critical = List.map (fun v -> [| v |]) [ 5; 6; 7; 30 ] in
  let attends x v = Bfs.dist g x v <= 3 in
  match Folearn.Erm_nd.centre_set g ~r:1 ~cap:5 ~critical with
  | [ x; y ] ->
      check "first centre attends the bunch" true
        (List.for_all (attends x) [ 5; 6; 7 ]);
      check "second centre attends the lone tuple" true (attends y 30)
  | xs -> Alcotest.failf "expected two centres, got %d" (List.length xs)

let centre_set_property =
  QCheck.Test.make ~name:"Lemma 14 centre set properties (random trees)"
    ~count:30
    QCheck.(pair (int_range 8 40) (int_range 1 2))
    (fun (n, r) ->
      let g = Gen.random_tree ~seed:(n + r) n in
      let st = Random.State.make [| n; r |] in
      let critical =
        List.init (1 + Random.State.int st 8) (fun _ ->
            [| Random.State.int st n |])
      in
      let xs = Folearn.Erm_nd.centre_set g ~r ~cap:20 ~critical in
      (* separation *)
      List.for_all
        (fun x ->
          List.for_all
            (fun y -> x = y || Bfs.dist g x y > (4 * r) + 2)
            xs)
        xs
      (* coverage: anything that attends critical tuples is within
         4r+2 of some chosen centre (else greedy would have taken it) *)
      && List.for_all
           (fun u ->
             (not
                (List.exists
                   (fun v -> Bfs.dist_tuple g [| u |] v <= (2 * r) + 1)
                   critical))
             || List.exists (fun x -> Bfs.dist g u x <= (4 * r) + 2) xs)
           (Graph.vertices g))

let suite =
  [
    Alcotest.test_case "io roundtrip" `Quick test_io_roundtrip_basic;
    Alcotest.test_case "io parse" `Quick test_io_parse;
    Alcotest.test_case "io errors" `Quick test_io_errors;
    Alcotest.test_case "io file" `Quick test_io_file;
    Alcotest.test_case "genform deterministic" `Quick test_genform_deterministic;
    Alcotest.test_case "genform config" `Quick test_genform_respects_config;
    Alcotest.test_case "genform sentences" `Quick test_genform_sentence_closed;
    Alcotest.test_case "genform counting flag" `Quick test_genform_counting_flag;
    Alcotest.test_case "centre set separation" `Quick test_centre_set_separation;
    Alcotest.test_case "centre set cap" `Quick test_centre_set_cap;
    Alcotest.test_case "centre set empty" `Quick test_centre_set_empty;
    Alcotest.test_case "centre set attendance order" `Quick
      test_centre_set_attendance_order;
    Alcotest.test_case "genform parse fixpoint" `Quick
      test_genform_parse_fixpoint;
    QCheck_alcotest.to_alcotest io_roundtrip_random;
    QCheck_alcotest.to_alcotest genform_parses;
    QCheck_alcotest.to_alcotest centre_set_property;
  ]
